package coll

import (
	"bytes"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

func cudaSpec(nodes, ppn int) cluster.Spec {
	s := cluster.Mini(nodes, ppn)
	s.GPUsPerNode = 4
	s.GPUMemBandwidth = 200e9
	s.NVLinkBandwidth = 20e9
	s.PCIeBandwidth = 6e9
	return s
}

func TestCUDABcastDelivers(t *testing.T) {
	spec := cudaSpec(1, 6)
	mod := NewCUDA()
	want := pattern(5000, 4)
	_, err := mpi.Run(spec, mpi.OpenMPI(), func(p *mpi.Proc) {
		c := p.W.World()
		buf := make([]byte, len(want))
		if c.Rank(p) == 2 {
			copy(buf, want)
		}
		p.Wait(mod.Ibcast(p, c, mpi.Bytes(buf), 2, Params{}))
		if !bytes.Equal(buf, want) {
			t.Errorf("rank %d wrong payload", c.Rank(p))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCUDAReduceDelivers(t *testing.T) {
	spec := cudaSpec(1, 5)
	ranks := spec.Ranks()
	mod := NewCUDA()
	_, err := mpi.Run(spec, mpi.OpenMPI(), func(p *mpi.Proc) {
		c := p.W.World()
		me := c.Rank(p)
		vals := []float64{float64(me), float64(2 * me)}
		sbuf := mpi.Bytes(mpi.EncodeFloat64s(vals))
		rbuf := mpi.Bytes(make([]byte, sbuf.N))
		p.Wait(mod.Ireduce(p, c, sbuf, rbuf, mpi.OpSum, mpi.Float64, 1, Params{}))
		if me == 1 {
			got := mpi.DecodeFloat64s(rbuf.B)
			want := float64(ranks*(ranks-1)) / 2
			if got[0] != want || got[1] != 2*want {
				t.Errorf("reduce got %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// GPU reductions at HBM bandwidth must beat CPU scalar reductions for large
// payloads despite the kernel-launch latency — the premise of the GPU
// submodule.
func TestCUDAReduceBeatsSMForLargePayloads(t *testing.T) {
	spec := cudaSpec(1, 8)
	timeOf := func(mod Module, n int) sim.Time {
		var end sim.Time
		_, err := mpi.Run(spec, mpi.OpenMPI(), func(p *mpi.Proc) {
			c := p.W.World()
			p.Wait(mod.Ireduce(p, c, mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, 0, Params{}))
			if p.Now() > end {
				end = p.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	big := 8 << 20
	cudaT := timeOf(NewCUDA(), big)
	smT := timeOf(NewSM(), big)
	if cudaT >= smT {
		t.Errorf("CUDA reduce (%v) should beat SM (%v) at 8MB", cudaT, smT)
	}
	// And lose for tiny payloads (kernel launch dominates).
	small := 64
	cudaS := timeOf(NewCUDA(), small)
	smS := timeOf(NewSM(), small)
	if cudaS <= smS {
		t.Errorf("SM reduce (%v) should beat CUDA (%v) at 64B", smS, cudaS)
	}
}

func TestCUDAOnGPUlessMachinePanics(t *testing.T) {
	spec := cluster.Mini(1, 2)
	mod := NewCUDA()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = mpi.Run(spec, mpi.OpenMPI(), func(p *mpi.Proc) {
		p.Wait(mod.Ibcast(p, p.W.World(), mpi.Phantom(8), 0, Params{}))
	})
}
