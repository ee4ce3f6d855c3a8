package mpi

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/sim"
)

// A barrier costs each rank one park, whatever the number of rounds: the
// rank issues the first round itself and lends its process to the rest.
func TestBarrierParksOncePerRank(t *testing.T) {
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(4, 4)), OpenMPI())
	w.Start(func(p *Proc) { p.W.World().Barrier(p) }) // four rounds
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Goroutines() != 16 || eng.Parks() != 16 {
		t.Errorf("%d goroutines and %d parks, want 16 and 16", eng.Goroutines(), eng.Parks())
	}
}

// A rank killed while parked inside a barrier unwinds on its own stack —
// deferred functions run, nothing after the barrier does — exactly once,
// and the survivors get through once the detector fails their requests.
func TestKillRankInsideBarrier(t *testing.T) {
	unwound, past := 0, 0
	var returned [4]bool
	w, _ := runCrash(t, cluster.Mini(2, 2), 1, crashAt(1, 50e-6), func(p *Proc) {
		if p.Rank == 1 {
			defer func() { unwound++ }()
		}
		if p.Rank == 3 {
			p.Sim.Sleep(1e-3) // holds everybody in the barrier past the crash
		}
		p.W.World().Barrier(p)
		if p.Rank == 1 {
			past++
		}
		returned[p.Rank] = true
	})
	if unwound != 1 || past != 0 {
		t.Errorf("victim unwound %d times and ran past the barrier %d times, want 1 and 0", unwound, past)
	}
	if returned != [4]bool{true, false, true, true} {
		t.Errorf("ranks out of the barrier: %v", returned)
	}
	if dead := w.DeadRanks(); len(dead) != 1 || dead[0] != 1 {
		t.Errorf("dead ranks %v, want [1]", dead)
	}
}

// A rank stuck in a barrier is reported at the request a blocking loop would
// be parked on, and a stuck helper under its composed name.
func TestDeadlockNamesBarrierRoundAndHelper(t *testing.T) {
	_, err := Run(cluster.Mini(1, 2), OpenMPI(), func(p *Proc) {
		if p.Rank == 0 {
			p.SpawnHelper("stuck", func(hp *Proc) { hp.Wait(NewRequest()) })
			p.W.World().Barrier(p)
		}
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("run returned %v, want a deadlock", err)
	}
	const want = "[rank0 waiting on recv(peer=1, tag=1048576, ctx=0) rank0.stuck]"
	if !strings.HasSuffix(err.Error(), want) {
		t.Errorf("deadlock report %q does not end in %q", err, want)
	}
}

// A crash finds a rank's live processes, not every helper the rank ever
// spawned: a helper is off the engine's list when it finishes, a goroutine
// helper and a step helper alike. Rank 0 runs two thousand short helpers to
// their end, then dies holding two stuck ones.
func TestFinishedHelpersArePruned(t *testing.T) {
	const short = 1000
	unwound := make(map[string]int)
	runCrash(t, cluster.Mini(1, 2), 1, crashAt(0, 10e-3), func(p *Proc) {
		if p.Rank != 0 {
			return
		}
		defer func() { unwound["main"]++ }()
		steps := make([]napSteps, short+1)
		for i := range steps {
			steps[i].unwound = unwound
		}
		for i := 0; i < short; i++ {
			p.SpawnHelper("short", func(hp *Proc) {
				defer func() {
					if hp.Sim.Dying() {
						unwound["short goroutine"]++
					}
				}()
				hp.Sim.Sleep(1e-6)
			})
			p.SpawnSteps(&steps[i].hp, "short", &steps[i])
			p.Sim.Sleep(2e-6)
		}
		p.SpawnHelper("stuck", func(hp *Proc) {
			defer func() { unwound["stuck goroutine"]++ }()
			hp.Wait(NewRequest())
		})
		steps[short].nap = 1 // past the crash
		p.SpawnSteps(&steps[short].hp, "stuck", &steps[short])
		p.Wait(NewRequest())
	})
	want := map[string]int{"main": 1, "stuck goroutine": 1, "stuck": 1}
	if !reflect.DeepEqual(unwound, want) {
		t.Errorf("the crash unwound %v, want %v", unwound, want)
	}
}

// napSteps is a step helper that sleeps a microsecond, or nap if that is
// set, and counts its unwinding under its name.
type napSteps struct {
	hp      Proc
	nap     sim.Time
	napped  bool
	unwound map[string]int
}

func (n *napSteps) Step(sp *sim.Proc) bool {
	if n.napped {
		return true
	}
	n.napped = true
	sp.StepSleep(max(n.nap, 1e-6))
	return false
}

func (n *napSteps) Unwind(*sim.Proc) { n.unwound[n.hp.helper]++ }

// BenchmarkBarrier4096 is the host cost of one barrier (twelve rounds) on
// the 4096 ranks of the headline run.
func BenchmarkBarrier4096(b *testing.B) {
	spec := cluster.ShaheenII()
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, spec), OpenMPI())
	w.Start(func(p *Proc) {
		c := p.W.World()
		for i := 0; i < b.N; i++ {
			c.Barrier(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(eng.Now())*1e6/float64(b.N), "sim-us/op")
}

// Ranks without goroutines (StartSteps) running barriers as phases simulate
// what goroutine ranks blocking in Barrier do, to the bit and on every rank,
// and cost the host no goroutine and no park.
func TestStepRanksMatchGoroutineRanks(t *testing.T) {
	const barriers = 3
	spec := cluster.Mini(4, 4)
	run := func(steps bool) (*sim.Engine, []sim.Time) {
		eng := sim.New()
		w := NewWorld(cluster.NewMachine(eng, spec), OpenMPI())
		done := make([]sim.Time, spec.Ranks())
		if steps {
			w.StartSteps(func(p *Proc) sim.Stepper { return &barrierLoop{p: p, left: barriers, done: done} })
		} else {
			w.Start(func(p *Proc) {
				for i := 0; i < barriers; i++ {
					p.W.World().Barrier(p)
				}
				done[p.Rank] = p.Now()
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if n := w.LiveRecords(); n != 0 {
			t.Errorf("steps=%v: %d P2P records still checked out after the run", steps, n)
		}
		return eng, done
	}
	want, wantDone := run(false)
	got, gotDone := run(true)
	if got.Now() != want.Now() {
		t.Errorf("step ranks end at %v, goroutine ranks at %v", got.Now(), want.Now())
	}
	for r := range wantDone {
		if gotDone[r] != wantDone[r] {
			t.Errorf("rank %d leaves its last barrier at %v as a routine, at %v as a goroutine", r, gotDone[r], wantDone[r])
		}
	}
	if got.Goroutines() != 0 || got.Parks() != 0 {
		t.Errorf("step ranks cost %d goroutines and %d parks, want none", got.Goroutines(), got.Parks())
	}
	if ranks := uint64(spec.Ranks()); want.Goroutines() != ranks || want.Parks() != barriers*ranks {
		t.Errorf("goroutine ranks cost %d goroutines and %d parks, want %d and %d", want.Goroutines(), want.Parks(), ranks, barriers*ranks)
	}
}

// barrierLoop is a rank routine: left barriers on the world, one after the
// other.
type barrierLoop struct {
	p     *Proc
	left  int
	phase sim.Stepper
	done  []sim.Time
}

func (b *barrierLoop) Step(sp *sim.Proc) bool {
	for ; b.left > 0; b.left-- {
		if b.phase == nil {
			b.phase = b.p.W.World().BarrierSteps(b.p)
		}
		if !b.phase.Step(sp) {
			return false
		}
		b.phase = nil
	}
	b.done[b.p.Rank] = sp.Now()
	return true
}

func (b *barrierLoop) Unwind(*sim.Proc) {}

// The blocking Barrier called from a rank that has no goroutine to park is a
// panic naming the rank, not a hang.
func TestBarrierFromStepRankPanics(t *testing.T) {
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(1, 2)), OpenMPI())
	w.StartSteps(func(p *Proc) sim.Stepper { return blockingBarrier{p} })
	defer func() {
		got, _ := recover().(string)
		if !strings.Contains(got, `"rank0"`) || !strings.Contains(got, "blocking call inside a Step") {
			t.Errorf("Run panicked with %q, want rank0's name and \"blocking call inside a Step\"", got)
		}
	}()
	err := eng.Run()
	t.Errorf("Run returned %v, want a panic", err)
}

type blockingBarrier struct{ p *Proc }

func (b blockingBarrier) Step(*sim.Proc) bool { b.p.W.World().Barrier(b.p); return true }
func (b blockingBarrier) Unwind(*sim.Proc)    {}

// A stuck step rank is reported under the name a goroutine rank has.
func TestDeadlockNamesStepRank(t *testing.T) {
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(1, 2)), OpenMPI())
	w.StartSteps(func(p *Proc) sim.Stepper {
		if p.Rank == 1 {
			return &barrierLoop{p: p, done: make([]sim.Time, 2)} // no barrier: rank 0 waits alone
		}
		return &barrierLoop{p: p, left: 1, done: make([]sim.Time, 2)}
	})
	err := eng.Run()
	const want = "[rank0 waiting on recv(peer=1, tag=1048576, ctx=0)]"
	if err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("run returned %v, want a deadlock report ending in %q", err, want)
	}
}

// Goroutine ranks are named when a report asks, like step ranks and helpers:
// a deadlock of twelve of them prints what it printed when every rank's name
// was formatted at its spawn.
func TestDeadlockNamesGoroutineRanks(t *testing.T) {
	_, err := Run(cluster.Mini(3, 4), OpenMPI(), func(p *Proc) {
		p.W.World().Recv(p, Phantom(8), (p.Rank+1)%12, 7) // nobody sends
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("run returned %v, want a deadlock", err)
	}
	want := []string{"rank0", "rank1", "rank10", "rank11", "rank2", "rank3", "rank4", "rank5", "rank6", "rank7", "rank8", "rank9"}
	if !slices.Equal(dl.Parked, want) {
		t.Errorf("parked processes %v, want %v", dl.Parked, want)
	}
	if site := "recv(peer=11, tag=7, ctx=0)"; dl.Sites[2] != site {
		t.Errorf("rank10 is reported waiting on %q, want %q", dl.Sites[2], site)
	}
}
