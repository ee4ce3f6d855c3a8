package coll

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/arena"
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
			left = len(m.ops.live)
		case *SOLO:
			left = len(m.ops.live)
		}
		if left != 0 {
			t.Errorf("%s: %d operations still hold shared state", mod.Name(), left)
		}
		if eng.Goroutines() != 4 {
			t.Errorf("%s: %d goroutines started, want the 4 ranks'", mod.Name(), eng.Goroutines())
		}
	}
}

// The same for a tree helper blocked in a receive wait. A four-rank chain
// moves 2 MiB from rank 0; rank 2 crashes while its helper waits for a
// segment from rank 1. At that instant the victim's helper is killed but has
// not unwound, and its record must still be out of the pool: it goes back
// only at the unwind, after which the process can no longer be resumed. The
// victim's request never completes; the survivors' sends to it and receives
// from it fail once it is declared dead, and they finish.
func TestKillTreeHelperInReceiveWait(t *testing.T) {
	adapt, nbc := NewAdapt(), NewLibnbc()
	for _, tc := range []struct {
		mod  Module
		base *Base
		alg  Alg
	}{{adapt, &adapt.Base, AlgChain}, {nbc, &nbc.Base, AlgBinomial}} {
		mod, alg := tc.mod, tc.alg
		tc.base.newSeq(nil, nil, 0).Reclaim(nil) // make the pool, to look into it
		runs := tc.base.runs
		eng := sim.New()
		w := mpi.NewWorld(cluster.NewMachine(eng, cluster.Mini(4, 1)), mpi.OpenMPI())
		const crashAt = 100e-6
		w.AttachFaults(fault.Plan{Crashes: []fault.CrashSpec{{Rank: 2, At: crashAt}}})
		outAtCrash := -1
		eng.At(crashAt, func() { outAtCrash = runs.Live() }) // queued after the crash, before the unwinds it queues
		var victim *mpi.Request
		finished := 0
		w.Start(func(p *mpi.Proc) {
			req := mod.Ibcast(p, p.W.World(), mpi.Phantom(2<<20), 0, Params{Alg: alg})
			if p.Rank == 2 {
				victim = req
			}
			p.Wait(req)
			finished++
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("%s: %v", mod.Name(), err)
		}
		if finished != 3 || victim.Test() {
			t.Errorf("%s: %d ranks finished, victim's request complete: %v; want 3 and false", mod.Name(), finished, victim.Test())
		}
		if outAtCrash != 4 || runs.Live() != 0 {
			t.Errorf("%s: %d records out at the crash and %d at the end, want 4 (the victim's too) and 0", mod.Name(), outAtCrash, runs.Live())
		}
		if eng.Goroutines() != 4 {
			t.Errorf("%s: %d goroutines started, want the 4 ranks'", mod.Name(), eng.Goroutines())
		}
	}
}

// A tree helper stuck in a receive is reported under its composed name, at
// the request a blocking body would be parked on.
func TestDeadlockNamesTreeHelperAndReceive(t *testing.T) {
	mod := NewAdapt()
	_, err := mpi.Run(cluster.Mini(2, 1), mpi.OpenMPI(), func(p *mpi.Proc) {
		if p.Rank == 1 { // the root never shows up
			p.Wait(mod.Ibcast(p, p.W.World(), mpi.Phantom(1<<10), 0, Params{}))
		}
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("run returned %v, want a deadlock", err)
	}
	want := fmt.Sprintf("rank1.adapt-ibcast waiting on recv(peer=0, tag=%d, ctx=0)", mpi.TagColl(0))
	if !strings.Contains(err.Error(), want) {
		t.Errorf("deadlock report %q does not name %q", err, want)
	}
}

// rounds runs issue on every rank of a fresh 8-node world, waiting for each
// request: warmup+1+measured times on every rank but 0, which hands
// testing.AllocsPerRun its round after the warm-up and returns the count —
// process-wide, so every rank's helper and the engine are in it.
func allocsPerRound(t *testing.T, issue func(p *mpi.Proc) *mpi.Request) float64 {
	t.Helper()
	const warmup, measured = 4, 10
	allocs := -1.0
	_, err := mpi.Run(cluster.Mini(8, 1), mpi.OpenMPI(), func(p *mpi.Proc) {
		round := func() { p.Wait(issue(p)) }
		if p.Rank != 0 {
			for i := 0; i < warmup+1+measured; i++ {
				round()
			}
			return
		}
		for i := 0; i < warmup; i++ {
			round()
		}
		allocs = testing.AllocsPerRun(measured, round)
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// On a warm world an operation allocates nothing: the program, its operands
// and requests, the helper's mpi.Proc with the sim.Proc it runs in and the
// rendezvous state are recycled, the completion request is the world's.
// (Chains of two segments, so that no helper ends up waiting for more than
// the two sends a sim.Proc's inline arm list holds on its first use.) Under
// HAN_ARENA_DEBUG nothing is handed out twice, so only the stale-use checks
// run.
func TestWarmOperationAllocatesNothing(t *testing.T) {
	const n = 256 << 10
	sm, adapt := NewSM(), NewAdapt()
	pr := Params{Alg: AlgChain, Seg: n / 2}
	for _, tc := range []struct {
		name  string
		issue func(p *mpi.Proc) *mpi.Request
	}{
		{"SM.Ibcast", func(p *mpi.Proc) *mpi.Request {
			return sm.Ibcast(p, p.W.NodeComm(p.Node()), mpi.Phantom(n), 0, Params{})
		}},
		{"Adapt.Ibcast", func(p *mpi.Proc) *mpi.Request {
			return adapt.Ibcast(p, p.W.World(), mpi.Phantom(n), 0, pr)
		}},
		{"Adapt.Ireduce", func(p *mpi.Proc) *mpi.Request {
			return adapt.Ireduce(p, p.W.World(), mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, 0, pr)
		}},
	} {
		if got := allocsPerRound(t, tc.issue); !arena.Debug && got > 0 {
			t.Errorf("%s: a warm round allocates %v objects, want none", tc.name, got)
		}
	}
}

// BenchmarkShmBcast is the host cost of one 256 KiB intra-node broadcast on
// a 32-rank node (eight fragments under SM): 31 step-driven helpers walking
// their sequences.
func BenchmarkShmBcast(b *testing.B) {
	for _, mod := range []Module{NewSM(), NewSOLO()} {
		b.Run(mod.Name(), func(b *testing.B) {
			benchOp(b, cluster.Mini(1, 32), func(p *mpi.Proc) *mpi.Request {
				return mod.Ibcast(p, p.W.World(), mpi.Phantom(256<<10), 0, Params{})
			})
		})
	}
}

// BenchmarkTreeBcast and BenchmarkTreeReduce are the host cost of one
// inter-node task of the size HAN issues: 1 MiB in 64 KiB segments down, or
// up, Adapt's binary tree over 8 nodes.
func BenchmarkTreeBcast(b *testing.B) {
	mod := NewAdapt()
	benchOp(b, cluster.Mini(8, 1), func(p *mpi.Proc) *mpi.Request {
		return mod.Ibcast(p, p.W.World(), mpi.Phantom(1<<20), 0, Params{Alg: AlgBinary, Seg: 64 << 10})
	})
}

func BenchmarkTreeReduce(b *testing.B) {
	mod := NewAdapt()
	benchOp(b, cluster.Mini(8, 1), func(p *mpi.Proc) *mpi.Request {
		return mod.Ireduce(p, p.W.World(), mpi.Phantom(1<<20), mpi.Phantom(1<<20), mpi.OpSum, mpi.Float64, 0, Params{Alg: AlgBinary, Seg: 64 << 10})
	})
}

// benchOp runs b.N rounds of one operation on every rank of spec.
func benchOp(b *testing.B, spec cluster.Spec, issue func(p *mpi.Proc) *mpi.Request) {
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	w.Start(func(p *mpi.Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(issue(p))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}

// A helper's record goes back to the pool when the engine is through with
// the helper, not when the helper completes its request: the completion's
// callbacks run inside the helper's last Step, and one that issues the next
// operation must be handed another record — the one it would get back is
// still the engine's, which has yet to mark the process finished and take it
// off its list (sim.Engine.SpawnStep refuses such a record). Rank 0 issues
// its second broadcast from inside the completion of its first.
func TestProcStorageIsReusedOnlyAfterTheEngineIsDone(t *testing.T) {
	mod := NewLibnbc()
	mod.newSeq(nil, nil, 0).Reclaim(nil) // make the pool, to look into it
	runs := mod.runs
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, cluster.Mini(2, 1)), mpi.OpenMPI())
	issue := func(p *mpi.Proc) *mpi.Request {
		return mod.Ibcast(p, p.W.World(), mpi.Phantom(1<<10), 0, Params{})
	}
	outInCallback, carvedInCallback := -1, -1
	w.Start(func(p *mpi.Proc) {
		first := issue(p)
		var second *mpi.Request
		if p.Rank == 0 {
			first.Done().OnFire(sim.Func(func() {
				outInCallback = runs.Live()
				second = issue(p)
				carvedInCallback = runs.Total()
			}), 0)
		}
		p.Wait(first)
		if p.Rank != 0 {
			second = issue(p)
		}
		p.Wait(second)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The root's helper is done when its send is; rank 1's is still waiting
	// for the message then.
	if outInCallback != 2 {
		t.Errorf("%d records out inside the completion of rank 0's broadcast, want 2: its own helper's, not yet reclaimed, and rank 1's", outInCallback)
	}
	if runs.Live() != 0 || carvedInCallback < 3 {
		t.Errorf("%d records out at the end, %d carved by the time the second broadcast was issued; want 0, and a third record for it", runs.Live(), carvedInCallback)
	}
}

// The record of a killed helper never goes round again. Rank 2 crashes while
// its helper is parked on the flag the root of a shared-memory broadcast has
// yet to raise; ranks 1 and 3 then run broadcasts of their own, which take
// records from the pool; and the root raises the flag afterwards — a late
// Fire on a signal that still lists the victim, which must find the victim,
// dying, and not a successor spawned into its record: the survivors'
// broadcasts end when they do in a run where nobody dies. Nothing on the
// pool's free list holds a killed process. (Under HAN_ARENA_DEBUG no record
// goes round again, killed or not.)
func TestKilledHelperStorageIsNeverReused(t *testing.T) {
	const crashAt, rootAt = 100e-6, 300e-6
	for _, mk := range []func() (Module, *Base){
		func() (Module, *Base) { m := NewSM(); return m, &m.Base },
		func() (Module, *Base) { m := NewSOLO(); return m, &m.Base },
	} {
		run := func(crash bool) (pairDone sim.Time, victim *mpi.Request, runs *arena.Pool[seqRun]) {
			mod, base := mk()
			base.newSeq(nil, nil, 0).Reclaim(nil) // make the pool, to look into it
			eng := sim.New()
			w := mpi.NewWorld(cluster.NewMachine(eng, cluster.Mini(1, 4)), mpi.OpenMPI())
			if crash {
				w.AttachFaults(fault.Plan{Crashes: []fault.CrashSpec{{Rank: 2, At: crashAt}}})
			}
			w.Start(func(p *mpi.Proc) {
				c := p.W.World()
				if p.Rank == 0 {
					p.Sim.Sleep(rootAt) // everybody else's helper waits for the flag
				}
				req := mod.Ibcast(p, c, mpi.Phantom(64<<10), 0, Params{})
				switch p.Rank {
				case 2:
					victim = req
				case 1, 3:
					p.Sim.Sleep(crashAt + 50e-6) // the victim has unwound
					pair := c.Sub("13", []int{1, 3})
					for i := 0; i < 4; i++ {
						p.Wait(mod.Ibcast(p, pair, mpi.Phantom(64<<10), 0, Params{}))
					}
					pairDone = p.Now()
				}
				p.Wait(req)
			})
			if err := eng.Run(); err != nil {
				t.Fatalf("%s: %v", mod.Name(), err)
			}
			if pairDone >= rootAt {
				t.Fatalf("%s: the pair's broadcasts ended at %v, after the root raised its flag", mod.Name(), pairDone)
			}
			return pairDone, victim, base.runs
		}
		clean, _, _ := run(false)
		crashed, victim, runs := run(true)
		if crashed != clean {
			t.Errorf("the survivors' own broadcasts ended at %v with rank 2 dead, %v with nobody dead", crashed, clean)
		}
		if victim.Test() || runs.Live() != 0 {
			t.Errorf("victim's request complete: %v, %d records out; want false and 0", victim.Test(), runs.Live())
		}
		// Empty the free list: it is empty when Get carves a new slab.
		for carved := runs.Total(); !arena.Debug; {
			r := runs.Get()
			if runs.Total() != carved {
				break
			}
			if r.hp.Sim != nil && r.hp.Sim.Dying() {
				t.Fatalf("a record on the free list holds the killed helper %s", r.hp.Sim.Name())
			}
		}
	}
}
