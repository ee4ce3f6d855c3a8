package coll

import (
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// A rank that crashes while its step-driven helper is mid-sequence — blocked
// in a fragment's copy-out — takes the helper with it: the helper's use of
// the operation's shared state is released as a goroutine body's defer
// released it, its request never completes, the survivors finish, and no
// helper ever started a goroutine.
func TestKillHelperMidSequence(t *testing.T) {
	for _, mod := range []Module{NewSM(), NewSOLO()} {
		eng := sim.New()
		w := mpi.NewWorld(cluster.NewMachine(eng, cluster.Mini(1, 4)), mpi.OpenMPI())
		w.AttachFaults(fault.Plan{Crashes: []fault.CrashSpec{{Rank: 2, At: 100e-6}}})
		var victim *mpi.Request
		finished := 0
		var last sim.Time // when the last survivor had its data
		w.Start(func(p *mpi.Proc) {
			req := mod.Ibcast(p, p.W.World(), mpi.Phantom(2<<20), 0, Params{})
			if p.Rank == 2 {
				victim = req
			}
			p.Wait(req)
			finished++
			last = p.Now()
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("%s: %v", mod.Name(), err)
		}
		if last < 200e-6 {
			t.Fatalf("%s: broadcast over at %v: the crash at 100us was not mid-sequence", mod.Name(), last)
		}
		if finished != 3 || victim.Test() {
			t.Errorf("%s: %d ranks finished, victim's request complete: %v; want 3 and false", mod.Name(), finished, victim.Test())
		}
		var left int
		switch m := mod.(type) {
		case *SM:
			left = len(m.ops)
		case *SOLO:
			left = len(m.ops)
		}
		if left != 0 {
			t.Errorf("%s: %d operations still hold shared state", mod.Name(), left)
		}
		if eng.Goroutines() != 4 {
			t.Errorf("%s: %d goroutines started, want the 4 ranks'", mod.Name(), eng.Goroutines())
		}
	}
}

// BenchmarkShmBcast is the host cost of one 256 KiB intra-node broadcast on
// a 32-rank node (eight fragments under SM): 31 step-driven helpers walking
// their sequences.
func BenchmarkShmBcast(b *testing.B) {
	for _, mod := range []Module{NewSM(), NewSOLO()} {
		b.Run(mod.Name(), func(b *testing.B) {
			eng := sim.New()
			w := mpi.NewWorld(cluster.NewMachine(eng, cluster.Mini(1, 32)), mpi.OpenMPI())
			w.Start(func(p *mpi.Proc) {
				for i := 0; i < b.N; i++ {
					p.Wait(mod.Ibcast(p, p.W.World(), mpi.Phantom(256<<10), 0, Params{}))
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
