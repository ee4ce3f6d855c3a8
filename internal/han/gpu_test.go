package han

import (
	"bytes"
	"errors"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

func gpuSpec(nodes, ppn int) cluster.Spec {
	s := cluster.Mini(nodes, ppn)
	s.GPUsPerNode = 4
	s.GPUMemBandwidth = 200e9
	s.NVLinkBandwidth = 20e9
	s.PCIeBandwidth = 6e9
	return s
}

func TestGPUTopology(t *testing.T) {
	spec := gpuSpec(2, 8)
	m := cluster.NewMachine(sim.New(), spec)
	if m.GPUOf(0) != 0 || m.GPUOf(1) != 1 || m.GPUOf(4) != 0 || m.GPUOf(9) != 1 {
		t.Error("round-robin GPU assignment wrong")
	}
	if m.GPUMem(0, 0) == m.GPUMem(0, 1) || m.NVLink(0) == m.NVLink(1) {
		t.Error("GPU resources not distinct")
	}
}

func TestBcastGPUCorrect(t *testing.T) {
	spec := gpuSpec(2, 6)
	want := pattern(6000, 9)
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		buf := make([]byte, len(want))
		if p.Rank == 0 {
			copy(buf, want)
		}
		h.Bcast(p, mpi.Bytes(buf), 0, Config{FS: 2 << 10, Levels: LevelsGPU})
		if !bytes.Equal(buf, want) {
			t.Errorf("rank %d: wrong payload after the GPU Bcast", p.Rank)
		}
	})
}

func TestAllreduceGPUCorrect(t *testing.T) {
	spec := gpuSpec(2, 4)
	ranks := spec.Ranks()
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		elems := 200
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = float64(p.Rank*3 + i)
		}
		sbuf := mpi.Bytes(mpi.EncodeFloat64s(vals))
		rbuf := mpi.Bytes(make([]byte, sbuf.N))
		h.Allreduce(p, sbuf, rbuf, mpi.OpSum, mpi.Float64, Config{FS: 512, Levels: LevelsGPU})
		got := mpi.DecodeFloat64s(rbuf.B)
		for i := range got {
			want := 3*float64(ranks*(ranks-1))/2 + float64(i*ranks)
			if got[i] != want {
				t.Errorf("rank %d elem %d: got %v want %v", p.Rank, i, got[i], want)
				return
			}
		}
	})
}

// On a machine without GPUs the GPU collectives degrade to the two-level
// CPU pipeline instead of failing, and say so via a *FallbackError note.
func TestGPUOnGPUlessMachineFallsBack(t *testing.T) {
	spec := cluster.Mini(2, 2)
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		err := h.Bcast(p, mpi.Phantom(100), 0, Config{FS: 100, Levels: LevelsGPU})
		var fb *FallbackError
		if !errors.As(err, &fb) {
			t.Errorf("rank %d: err = %v, want *FallbackError", p.Rank, err)
			return
		}
		var he *HierarchyError
		if !errors.As(err, &he) || he.Reason != "machine has no GPUs" {
			t.Errorf("rank %d: cause = %v, want missing-GPUs HierarchyError", p.Rank, fb.Cause)
		}
	})
}

// The pipelined GPU broadcast must beat the naive approach (stage the whole
// message down, host-broadcast, stage it back up) for large messages — the
// reason the paper wants the GPU level inside HAN's task pipeline instead
// of around it.
func TestBcastGPUBeatsNaiveStaging(t *testing.T) {
	spec := gpuSpec(4, 8)
	n := 16 << 20
	cfg := DefaultDecision(coll.Bcast, n)
	gpu := cfg
	gpu.Levels = LevelsGPU
	piped := runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		h.Bcast(p, mpi.Phantom(n), 0, gpu)
	})
	naive := runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		cuda := h.Mods.CUDA
		node := h.W.NodeComm(p.Node())
		// Whole-message D2H at the root, host broadcast, whole-message H2D
		// at every leader, NVLink fan-out.
		if p.Rank == 0 {
			p.Wait(cuda.D2H(p, n))
		}
		h.Bcast(p, mpi.Phantom(n), 0, cfg)
		if h.W.Mach.IsNodeLeader(p.Rank) {
			p.Wait(cuda.H2D(p, n))
		}
		p.Wait(cuda.Ibcast(p, node, mpi.Phantom(n), 0, coll.Params{}))
	})
	if piped >= naive {
		t.Errorf("pipelined GPU bcast (%v) should beat naive staging (%v)", piped, naive)
	}
}
