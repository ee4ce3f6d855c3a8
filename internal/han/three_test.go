package han

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// numaSpec returns a dual-socket machine where the UPI link is a genuine
// bottleneck relative to the per-socket buses.
func numaSpec(nodes, ppn int) cluster.Spec {
	s := cluster.Mini(nodes, ppn)
	s.SocketsPerNode = 2
	s.SocketBusBandwidth = 3e9
	s.UPIBandwidth = 1.5e9
	return s
}

func TestSocketTopology(t *testing.T) {
	spec := numaSpec(2, 6)
	eng := sim.New()
	m := cluster.NewMachine(eng, spec)
	if m.SocketOf(0) != 0 || m.SocketOf(2) != 0 || m.SocketOf(3) != 1 || m.SocketOf(5) != 1 {
		t.Error("socket mapping wrong")
	}
	if m.SocketOf(6) != 0 || m.SocketOf(9) != 1 {
		t.Error("socket mapping wrong on node 1")
	}
	if !m.IsSocketLeader(0) || !m.IsSocketLeader(3) || m.IsSocketLeader(4) {
		t.Error("socket leader detection wrong")
	}
	// Cross-socket path includes three resources, same-socket only one.
	if len(m.IntraPath(0, 1)) != 1 {
		t.Error("same-socket path should be one resource")
	}
	if len(m.IntraPath(0, 4)) != 3 {
		t.Error("cross-socket path should be bus+upi+bus")
	}
	w := mpi.NewWorld(m, mpi.OpenMPI())
	if w.SocketComm(0, 1).Size() != 3 {
		t.Errorf("socket comm size %d, want 3", w.SocketComm(0, 1).Size())
	}
	if w.SocketLeaderComm(1).Size() != 2 {
		t.Errorf("socket leader comm size %d, want 2", w.SocketLeaderComm(1).Size())
	}
	if w.SocketLeaderComm(1).WorldRank(0) != 6 {
		t.Error("node leader should lead the socket-leader comm")
	}
}

func TestSingleSocketFallbacks(t *testing.T) {
	spec := cluster.Mini(2, 4) // single socket
	eng := sim.New()
	m := cluster.NewMachine(eng, spec)
	if m.SocketOf(3) != 0 || !m.IsSocketLeader(4) || m.IsSocketLeader(5) {
		t.Error("single-socket fallbacks wrong")
	}
	w := mpi.NewWorld(m, mpi.OpenMPI())
	if w.SocketComm(0, 0) != w.NodeComm(0) {
		t.Error("SocketComm should alias NodeComm on single-socket machines")
	}
}

func TestBcast3Correct(t *testing.T) {
	spec := numaSpec(2, 6)
	for _, n := range []int{100, 9000} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			want := pattern(n, 5)
			runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
				buf := make([]byte, n)
				if p.Rank == 0 {
					copy(buf, want)
				}
				h.Bcast(p, mpi.Bytes(buf), 0, Config{FS: 2 << 10, Levels: LevelsSocket})
				if !bytes.Equal(buf, want) {
					t.Errorf("rank %d wrong payload", p.Rank)
				}
			})
		})
	}
}

func TestAllreduce3Correct(t *testing.T) {
	spec := numaSpec(2, 4)
	ranks := spec.Ranks()
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		elems := 300
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = float64(p.Rank + i)
		}
		sbuf := mpi.Bytes(mpi.EncodeFloat64s(vals))
		rbuf := mpi.Bytes(make([]byte, sbuf.N))
		h.Allreduce(p, sbuf, rbuf, mpi.OpSum, mpi.Float64, Config{FS: 512, Levels: LevelsSocket})
		got := mpi.DecodeFloat64s(rbuf.B)
		for i := range got {
			want := float64(ranks*i) + float64(ranks*(ranks-1))/2
			if got[i] != want {
				t.Errorf("rank %d elem %d: got %v want %v", p.Rank, i, got[i], want)
				return
			}
		}
	})
}

func TestThreeLevelFallsBackOnSingleSocket(t *testing.T) {
	spec := cluster.Mini(2, 4)
	want := pattern(500, 2)
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		if h.W.Mach.Spec.MultiSocket() {
			t.Error("single-socket machine reported three-level")
		}
		buf := make([]byte, len(want))
		if p.Rank == 0 {
			copy(buf, want)
		}
		h.Bcast(p, mpi.Bytes(buf), 0, Config{FS: 128, Levels: LevelsSocket})
		if !bytes.Equal(buf, want) {
			t.Errorf("rank %d wrong payload", p.Rank)
		}
	})
}

// On a NUMA machine with a narrow UPI link, the three-level broadcast must
// beat the two-level one for large messages: the node-level stage crosses
// UPI once per node instead of once per remote-socket rank.
func TestThreeLevelBeatsTwoLevelOnNUMA(t *testing.T) {
	spec := numaSpec(4, 8)
	n := 8 << 20
	cfg := Config{FS: 1 << 20, IMod: "adapt", SMod: "solo", IBAlg: coll.AlgBinary, IBS: 256 << 10}
	two := runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		h.Bcast(p, mpi.Phantom(n), 0, cfg)
	})
	cfg.Levels = LevelsSocket
	three := runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		h.Bcast(p, mpi.Phantom(n), 0, cfg)
	})
	if three >= two {
		t.Errorf("three-level (%v) should beat two-level (%v) on a UPI-bound machine", three, two)
	}
}
