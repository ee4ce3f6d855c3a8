package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// These tests hold the engine to what it promises about the processes it
// lists and the storage step-driven ones run in: a process is on the list
// from its spawn to its finish, a step-driven process's record may be spawned
// into again once the engine has said it is through with it (Reclaimer), and
// never when the process was killed.

// pooledNap is a step-driven process in recycled storage: it sleeps d, then
// finishes, and goes back on the free list when the engine reclaims it.
type pooledNap struct {
	p      Proc
	d      Time
	napped bool
	free   *[]*pooledNap
}

func (n *pooledNap) Step(p *Proc) bool {
	if n.napped {
		return true
	}
	n.napped = true
	p.StepSleep(n.d)
	return false
}

func (n *pooledNap) Unwind(*Proc) {}

func (n *pooledNap) Reclaim(p *Proc) {
	if p != &n.p || !p.finished || p.prev != nil || p.next != nil || p.pending != 0 || len(p.armed) != 0 {
		panic(fmt.Sprintf("reclaimed before the engine was through: %+v", p))
	}
	*n.free = append(*n.free, n)
}

// listed walks the engine's list of live processes both ways.
func listed(t *testing.T, e *Engine) []*Proc {
	t.Helper()
	var out []*Proc
	var last *Proc
	for p := e.head; p != nil; last, p = p, p.next {
		if p.prev != last {
			t.Fatalf("process %q is linked after %v but points back to %v", p.Name(), last, p.prev)
		}
		out = append(out, p)
	}
	if e.tail != last {
		t.Fatalf("the list ends in %v, the engine's tail is %v", last, e.tail)
	}
	return out
}

// After a run of thousands of short helpers — goroutines, and step-driven
// ones recycling a handful of records — the engine lists what is still alive
// and nothing else, and a deadlock names each of those once, in the order it
// always has: by name, processes of one name in the order they were spawned.
func TestFinishedProcessIsUnlinked(t *testing.T) {
	const helpers = 5000
	e := New()
	never := NewSignal()
	stuck := func(name, site string, step bool) {
		body := waitLabelled{{never, label(site)}}
		if step {
			spawnStep(e, name, &body)
		} else {
			e.Spawn(name, func(p *Proc) { body.arm(p); p.WaitArmed() })
		}
	}
	stuck("b", "first b", true)
	var free []*pooledNap
	carved, most := 0, 0
	e.Spawn("spawner", func(p *Proc) {
		for i := 0; i < helpers; i++ {
			if i == helpers/2 {
				stuck("a", "first a", false)
				stuck("c", "only c", true)
				stuck("a", "second a", true)
				stuck("b", "second b", false)
			}
			if i%10 == 0 {
				e.Spawn("helper", func(hp *Proc) { hp.Sleep(0.25) })
			}
			var n *pooledNap
			if k := len(free); k > 0 {
				n, free = free[k-1], free[:k-1]
			} else {
				n = &pooledNap{free: &free}
				carved++
			}
			n.d, n.napped = Time(1+i%3)*0.25, false
			e.SpawnStep(&n.p, n)
			p.Sleep(0.5)
			most = max(most, len(listed(t, e)))
		}
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run returned %v, want the deadlock of the five stuck processes", err)
	}
	if carved > 3 || most > 9 {
		t.Errorf("%d records carved for %d step helpers and up to %d processes listed; want at most 3 (a helper outlives the next spawn by a quarter) and 9", carved, helpers, most)
	}
	var names []string
	for _, p := range listed(t, e) {
		names = append(names, p.Name())
	}
	if got := strings.Join(names, " "); got != "b a c a b" || e.LiveProcs() != 5 {
		t.Errorf("the engine lists %q (%d live), want the stuck processes in spawn order: b a c a b", got, e.LiveProcs())
	}
	want := []ParkedProc{{"a", "first a"}, {"a", "second a"}, {"b", "first b"}, {"b", "second b"}, {"c", "only c"}}
	if got := e.ParkedSites(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ParkedSites: %v, want %v", got, want)
	}
	if got := fmt.Sprint(dl.Parked, dl.Sites); got != "[a a b b c] [first a second a first b second b only c]" {
		t.Errorf("deadlock report lists %s", got)
	}
}

// SpawnStep takes a zero Proc or one the engine is through with, and keeps
// the signal list the last process grew; it refuses a record whose process is
// still live, and one whose process was killed — for good: a signal the
// victim was armed on still lists it, and a late Fire resumes nobody.
func TestSpawnStepGuardsItsStorage(t *testing.T) {
	e := New()
	refuses := func(what string, p *Proc) {
		t.Helper()
		defer func() {
			if r := fmt.Sprint(recover()); !strings.Contains(r, "live or was killed") {
				t.Errorf("SpawnStep into the storage of %s: %s", what, r)
			}
		}()
		e.SpawnStep(p, stepFunc(func(*Proc) {}))
	}

	// A process that waited on five signals at once, and finished.
	sigs := make([]*Signal, 5)
	wide := make(waitLabelled, len(sigs))
	for i := range sigs {
		sigs[i] = NewSignal()
		wide[i].s = sigs[i]
	}
	var rec Proc
	e.SpawnStep(&rec, &wide)
	refuses("a process not started yet", &rec)
	e.Schedule(1, func() {
		refuses("a parked process", &rec)
		for _, s := range sigs {
			s.Fire(e)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	grown := cap(rec.armed)
	if !rec.finished || grown < len(sigs) {
		t.Fatalf("finished %v with room for %d signals", rec.finished, grown)
	}
	e.SpawnStep(&rec, stepFunc(func(*Proc) {}))
	if rec.finished || cap(rec.armed) != grown || len(rec.armed) != 0 {
		t.Errorf("respawned: finished %v, %d signals armed, room for %d; want a fresh process with room for %d", rec.finished, len(rec.armed), cap(rec.armed), grown)
	}

	// A process killed while parked: it unwinds, and its record is spent.
	late := NewSignal()
	victim := &killProbe{wait: late}
	var spent Proc
	e.SpawnStep(&spent, victim)
	resumed := 0
	e.Schedule(1, func() { e.Kill(&spent) })
	e.Schedule(2, func() {
		refuses("a killed process", &spent)
		before := e.seq
		late.Fire(e) // the victim is still on its waiter list
		resumed = int(e.seq - before)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if victim.steps != 1 || victim.unwinds != 1 || resumed != 0 || !spent.finished {
		t.Errorf("victim: %d steps, %d unwinds, %d events queued by the late Fire, finished %v; want 1, 1, 0, true", victim.steps, victim.unwinds, resumed, spent.finished)
	}
	if len(listed(t, e)) != 0 {
		t.Errorf("the engine still lists %d processes", len(listed(t, e)))
	}
}

// A drained engine that is Reset runs the next program on the (t, seq) a new
// engine would; one with work left refuses to be reset, and keeps that work.
func TestEngineResetRefusesPendingWork(t *testing.T) {
	// run plays a few sleepers and callbacks and logs every dispatch as
	// (time, sequence number of the next push).
	run := func(e *Engine) string {
		var log strings.Builder
		note := func() { fmt.Fprintf(&log, "%v/%d ", e.Now(), e.seq) }
		for i := 0; i < 3; i++ {
			n := &pooledNap{d: Time(i+1) * 0.5, free: new([]*pooledNap)}
			e.SpawnStep(&n.p, n)
			e.Schedule(Time(i)*0.75, note)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		note()
		return log.String()
	}
	want := run(New())
	e := New()
	run(e)
	e.Reset()
	if got := run(e); got != want || e.Goroutines() != 0 {
		t.Errorf("after Reset the engine logs %q, a new one %q", got, want)
	}

	refuses := func(what, msg string) {
		t.Helper()
		defer func() {
			if r := fmt.Sprint(recover()); !strings.Contains(r, msg) {
				t.Errorf("Reset with %s: %s", what, r)
			}
		}()
		e.Reset()
	}
	e.Reset()
	e.Schedule(1, func() {})
	refuses("a pending event", "pending event")
	if e.Run() != nil || e.Now() != 1 {
		t.Errorf("the refused Reset dropped the pending event: the clock reads %v", e.Now())
	}
	e.Reset()
	var parked Proc
	e.SpawnStep(&parked, &waitLabelled{{NewSignal(), label("never")}})
	if err := e.Run(); err == nil {
		t.Fatal("a process parked forever drained cleanly")
	}
	refuses("a live process", "live process")
}
