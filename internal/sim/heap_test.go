package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// This file holds the event heap's oracle. The engine's queue is a
// hand-written binary heap over []*event; container/heap behind
// heap.Interface is what it replaced, and survives here as the reference
// the engine is held to through its public timer API.

// oracleEvent mirrors what the engine keeps per queued callback: the
// (t, seq) key, the lazy-cancel mark and the heap position that lets a
// pending timer be retargeted in place.
type oracleEvent struct {
	t         Time
	seq       uint64
	id        int
	cancelled bool
	idx       int // -1 once popped
}

type oracleHeap []*oracleEvent

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *oracleHeap) Push(x interface{}) {
	ev := x.(*oracleEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *oracleHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// checkIdx asserts every queued event knows its own heap position and the
// heap property holds at every edge.
func checkIdx(t *testing.T, e *Engine, step int) {
	t.Helper()
	for i, ev := range e.events {
		if ev.idx != i {
			t.Fatalf("step %d: events[%d].idx = %d", step, i, ev.idx)
		}
		if i > 0 && ev.before(e.events[(i-1)/2]) {
			t.Fatalf("step %d: events[%d] sorts before its parent", step, i)
		}
	}
}

// TestEventHeapMatchesContainerHeap drives the engine through a long random
// mix of At, AtInto retargets, Timer.Cancel and single-event dispatches, and
// mirrors every step on a container/heap oracle: each dispatched callback
// must be the one the oracle pops, at the oracle's time, and every queued
// event's idx must stay consistent.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	const (
		steps     = 200_000
		rearmable = 256 // long-lived timers rearmed through AtInto
	)
	rng := rand.New(rand.NewSource(1))
	e := New()
	var oracle oracleHeap
	var seq uint64 // mirrors the engine's sequence counter

	fired := -1
	nextID := 0
	type oneShot struct {
		tm *Timer
		ev *oracleEvent
	}
	var shots []oneShot

	timers := make([]Timer, rearmable)
	mirrors := make([]*oracleEvent, rearmable)
	fns := make([]func(), rearmable)
	for i := range fns {
		id := -1 - i // rearmable timers report negative ids
		fns[i] = func() { fired = id }
	}

	when := func() Time { return e.Now() + Time(rng.Intn(16))*1e-3 } // few distinct times: seq breaks the ties

	// dispatchOne runs exactly one live event on the engine and pops the
	// matching one off the oracle (discarding cancelled tops on both).
	dispatchOne := func(step int) bool {
		var want *oracleEvent
		for oracle.Len() > 0 {
			ev := heap.Pop(&oracle).(*oracleEvent)
			if !ev.cancelled {
				want = ev
				break
			}
		}
		nt, ok := e.NextEventTime()
		if want == nil {
			if ok {
				t.Fatalf("step %d: engine has an event at %v, oracle is empty", step, nt)
			}
			return false
		}
		if !ok || nt != want.t {
			t.Fatalf("step %d: next event time = %v (ok=%v), oracle says %v", step, nt, ok, want.t)
		}
		fired = 0
		e.MaxEvents = e.dispatched + 1
		if err := e.Run(); err != nil {
			if _, budget := err.(*ErrEventBudget); !budget {
				t.Fatalf("step %d: Run: %v", step, err)
			}
		}
		if fired != want.id || e.Now() != want.t {
			t.Fatalf("step %d: dispatched id %d at %v, oracle popped id %d at %v", step, fired, e.Now(), want.id, want.t)
		}
		return true
	}

	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 35: // fresh one-shot timer
			nextID++
			id, at := nextID, when()
			tm := e.At(at, func() { fired = id })
			ev := &oracleEvent{t: at, seq: seq, id: id}
			seq++
			heap.Push(&oracle, ev)
			shots = append(shots, oneShot{tm, ev})
		case r < 60: // rearm a long-lived timer: retarget in place if still queued
			i, at := rng.Intn(rearmable), when()
			e.AtInto(&timers[i], at, Func(fns[i]), 0)
			if ev := mirrors[i]; ev != nil && ev.idx >= 0 {
				ev.t, ev.seq, ev.cancelled = at, seq, false
				heap.Fix(&oracle, ev.idx)
			} else {
				mirrors[i] = &oracleEvent{t: at, seq: seq, id: -1 - i}
				heap.Push(&oracle, mirrors[i])
			}
			seq++
			if ev := timers[i].ev; ev.idx < 0 || e.events[ev.idx] != ev {
				t.Fatalf("step %d: rearmed timer's event is not where its idx says", step)
			}
		case r < 75: // cancel something: a one-shot or a long-lived timer
			if rng.Intn(2) == 0 && len(shots) > 0 {
				k := rng.Intn(len(shots))
				shots[k].tm.Cancel()
				if shots[k].ev.idx >= 0 {
					shots[k].ev.cancelled = true
				}
				shots[k] = shots[len(shots)-1]
				shots = shots[:len(shots)-1]
			} else {
				i := rng.Intn(rearmable)
				timers[i].Cancel()
				if ev := mirrors[i]; ev != nil && ev.idx >= 0 {
					ev.cancelled = true
				}
			}
		default:
			dispatchOne(step)
		}
		if step%4096 == 0 {
			checkIdx(t, e, step)
		}
	}
	checkIdx(t, e, steps)
	for dispatchOne(steps) {
	}
	if len(e.events) != 0 {
		t.Fatalf("engine still holds %d events after the oracle drained", len(e.events))
	}
}
