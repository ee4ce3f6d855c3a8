package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// These tests pin the proc-side half of the dispatch path: a parking or
// exiting process may pop the next resume itself, and must then honour
// everything the engine loop honours — the (t, seq) order, the RunUntil
// window, the MaxEvents budget, Stop and a process panic.

// sleeperWorld spawns n processes that each sleep `loops` times with a
// per-process step, so after the n start events every event is a resume
// and nearly every dispatch is made by a parking process. wake is called
// in process context after each sleep.
func sleeperWorld(e *Engine, n, loops int, wake func(p *Proc, id int)) {
	for i := 0; i < n; i++ {
		i := i
		step := Time(1+i%5) * 0.25
		e.Spawn(fmt.Sprintf("s%02d", i), func(p *Proc) {
			for k := 0; k < loops; k++ {
				p.Sleep(step)
				wake(p, i)
			}
		})
	}
}

type wakeRec struct {
	t  Time
	id int
}

// One Run and a sequence of RunUntil windows must produce the same wake
// sequence, and inside a window no process may dispatch a resume at or past
// the window limit.
func TestProcDispatchRespectsRunUntilLimit(t *testing.T) {
	const n, loops = 16, 12
	var want []wakeRec
	ref := New()
	sleeperWorld(ref, n, loops, func(p *Proc, id int) { want = append(want, wakeRec{p.Now(), id}) })
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	e := New()
	var got []wakeRec
	limit := Time(0)
	sleeperWorld(e, n, loops, func(p *Proc, id int) {
		if p.Now() >= limit {
			t.Errorf("process %d woke at %v inside RunUntil(%v)", id, p.Now(), limit)
		}
		got = append(got, wakeRec{p.Now(), id})
	})
	for e.LiveProcs() > 0 {
		limit += 0.6 // not a multiple of any step: windows cut between and on event times
		if err := e.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
		if next, ok := e.NextEventTime(); ok && next < limit {
			t.Fatalf("RunUntil(%v) returned with an event pending at %v", limit, next)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("windowed run saw %d wakes, single run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wake %d: windowed %+v, single run %+v", i, got[i], want[i])
		}
	}
}

// The event budget trips at exactly MaxEvents dispatched events wherever it
// falls — on a start event the engine dispatches or on a resume a process
// would have dispatched — and the processes have run exactly the wakes
// those events carry.
func TestProcDispatchRespectsEventBudget(t *testing.T) {
	const n, loops = 8, 10
	for _, budget := range []uint64{1, n - 1, n, n + 1, 3*n + 5, n*loops - 1} {
		e := New()
		e.MaxEvents = budget
		wakes := uint64(0)
		sleeperWorld(e, n, loops, func(*Proc, int) { wakes++ })
		err := e.Run()
		var be *ErrEventBudget
		if !errors.As(err, &be) {
			t.Fatalf("budget %d: Run = %v, want *ErrEventBudget", budget, err)
		}
		if be.Dispatched != budget {
			t.Errorf("budget %d: tripped after %d events", budget, be.Dispatched)
		}
		// All n starts come first (time 0); every later event is one wake.
		if wantWakes := budget - min(budget, n); wakes != wantWakes {
			t.Errorf("budget %d: %d wakes, want %d", budget, wakes, wantWakes)
		}
	}
}

// Stop called from a process takes effect before the next event: the
// parking process must hand back to the engine, not dispatch a peer.
func TestStopFromProcessHaltsProcDispatch(t *testing.T) {
	e := New()
	halt := errors.New("halt")
	wakes := 0
	sleeperWorld(e, 8, 10, func(p *Proc, id int) {
		wakes++
		if wakes == 20 {
			e.Stop(halt)
		}
	})
	if err := e.Run(); err != halt {
		t.Fatalf("Run = %v, want the Stop error", err)
	}
	if wakes != 20 {
		t.Fatalf("%d wakes, want 20: processes kept dispatching after Stop", wakes)
	}
	if err := e.Run(); err != halt {
		t.Fatalf("second Run = %v, want the Stop error again", err)
	}
}

// A panic in a process that was woken by another process (not by the engine
// goroutine) still surfaces from Run, and nothing is dispatched after it.
func TestPanicInProcWokenByPeerPropagates(t *testing.T) {
	e := New()
	wakes := 0
	sleeperWorld(e, 8, 10, func(p *Proc, id int) {
		wakes++
		if wakes == 20 {
			panic("kaboom")
		}
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in process did not propagate to Run")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "kaboom") || !strings.Contains(msg, "panicked") {
			t.Fatalf("propagated panic %q does not carry the process panic", msg)
		}
		if wakes != 20 {
			t.Fatalf("%d wakes, want 20: processes kept dispatching after the panic", wakes)
		}
	}()
	_ = e.Run()
}

// Callbacks run on the engine goroutine only: a process that parks with a
// callback next in line hands back to the engine, and the callback sees the
// process already parked.
func TestCallbacksStayOnEngineGoroutine(t *testing.T) {
	e := New()
	s := NewSignal()
	var inProc bool // true while process code runs
	var order []string
	e.Spawn("waiter", func(p *Proc) {
		inProc = true
		e.Schedule(0, func() {
			if inProc {
				t.Error("callback ran while a process held the baton")
			}
			order = append(order, "callback")
			s.Fire(e)
		})
		inProc = false
		p.Wait(s)
		inProc = true
		order = append(order, "woken")
		inProc = false
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "callback" || order[1] != "woken" {
		t.Fatalf("order %v, want [callback woken]", order)
	}
}

// waitAll arms p on every signal and parks once, as mpi.Proc.Wait does over
// its requests.
func waitAll(p *Proc, sigs ...*Signal) {
	for _, s := range sigs {
		p.Arm(s, nil)
	}
	p.WaitArmed()
}

// A wait on several signals parks once: a process waiting on N signals costs
// one resume event, pushed when the last of them fires.
func TestWaitAllParksOnce(t *testing.T) {
	e := New()
	sigs := []*Signal{NewSignal(), NewSignal(), NewSignal()}
	var wokeAt Time
	e.Spawn("w", func(p *Proc) {
		waitAll(p, sigs...)
		wokeAt = p.Now()
	})
	e.At(1, func() { sigs[2].Fire(e) })
	e.At(2, func() { sigs[0].Fire(e) })
	e.At(3, func() { sigs[1].Fire(e) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 3 {
		t.Fatalf("woke at %v, want 3 (the last fire)", wokeAt)
	}
	// 1 start + 3 callbacks + exactly 1 resume.
	if e.dispatched != 5 {
		t.Fatalf("dispatched %d events, want 5", e.dispatched)
	}
}

// While parked on several signals a process reports the first one still
// unfired — what it would be parked on had it waited for them in turn.
func TestParkSiteIsFirstUnfiredSignal(t *testing.T) {
	e := New()
	a, b := NewSignal(), NewSignal()
	e.Spawn("w", func(p *Proc) {
		p.Arm(a, stringer("site-a"))
		p.Arm(b, stringer("site-b"))
		p.WaitArmed()
	})
	site := func() string {
		ps := e.ParkedSites()
		if len(ps) != 1 {
			t.Fatalf("ParkedSites = %v, want one entry", ps)
		}
		return ps[0].Site
	}
	var before, after string
	e.At(1, func() { before = site(); a.Fire(e) })
	e.At(2, func() { after = site() })
	err := e.Run()
	if before != "site-a" || after != "site-b" {
		t.Fatalf("sites %q then %q, want site-a then site-b", before, after)
	}
	var de *DeadlockError
	if !errors.As(err, &de) || len(de.Sites) != 1 || de.Sites[0] != "site-b" {
		t.Fatalf("Run = %v, want a deadlock naming site-b", err)
	}
}

type stringer string

func (s stringer) String() string { return string(s) }

// The process list behind ParkedSites holds live processes only: a process
// leaves it when it finishes, so an engine that keeps spawning short-lived
// helpers does not grow without bound.
func TestFinishedProcsAreForgotten(t *testing.T) {
	e := New()
	e.Spawn("spawner", func(p *Proc) {
		for i := 0; i < 10_000; i++ {
			e.Spawn("helper", func(*Proc) {})
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.head != nil || e.tail != nil || e.LiveProcs() != 0 {
		t.Fatalf("engine still lists a process (%d live) after 10000 short-lived spawns", e.LiveProcs())
	}
}
