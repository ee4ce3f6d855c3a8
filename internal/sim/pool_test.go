package sim

import "testing"

// Repeated WaitAny calls against the same long-lived unfired signals must
// not accumulate callbacks (the progress-loop pattern in internal/mpi).
func TestWaitAnyDoesNotLeakCallbacks(t *testing.T) {
	e := New()
	slow := NewSignal() // never fires until the very end
	var peak int
	e.Spawn("poller", func(p *Proc) {
		for i := 0; i < 100; i++ {
			tick := NewSignal()
			e.At(p.Now()+1, func() { tick.Fire(e) })
			if got := p.WaitAny(slow, tick); got != 1 {
				t.Errorf("iteration %d: WaitAny = %d, want 1 (tick)", i, got)
			}
			if n := slow.pending(); n > peak {
				peak = n
			}
		}
	})
	e.At(1000, func() { slow.Fire(e) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// One registration may be live inside a WaitAny; anything that grows
	// with the iteration count is the leak this guards against.
	if peak > 2 {
		t.Fatalf("slow signal accumulated %d callbacks across WaitAny calls, want <= 2", peak)
	}
	if n := slow.pending(); n != 0 {
		t.Fatalf("slow signal still holds %d callbacks after all WaitAny calls returned", n)
	}
}

func TestWaitAnyStillReturnsFirstFired(t *testing.T) {
	e := New()
	a, b, c := NewSignal(), NewSignal(), NewSignal()
	var idx int = -1
	e.Spawn("w", func(p *Proc) { idx = p.WaitAny(a, b, c) })
	e.At(1, func() {
		// Fire two at the same instant: lowest index must win.
		c.Fire(e)
		b.Fire(e)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("WaitAny = %d, want 1", idx)
	}
}

// Timer.When must be nil-safe: a nil handle or a never-armed zero Timer
// (flow.Flow.timer before the first rebalance) reports 0 instead of
// dereferencing a nil event.
func TestTimerWhenNilSafe(t *testing.T) {
	var nilTimer *Timer
	if got := nilTimer.When(); got != 0 {
		t.Fatalf("nil.When() = %v, want 0", got)
	}
	var zero Timer
	if got := zero.When(); got != 0 {
		t.Fatalf("zero.When() = %v, want 0", got)
	}
	zero.Cancel() // must not panic either
	if zero.Active() {
		t.Fatal("zero timer reports Active")
	}
	e := New()
	tm := e.At(3, func() {})
	if got := tm.When(); got != 3 {
		t.Fatalf("When() = %v, want 3", got)
	}
	if !tm.Active() {
		t.Fatal("armed timer not Active")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// After firing, When still reports the scheduled time; the handle is
	// just inert.
	if got := tm.When(); got != 3 {
		t.Fatalf("after fire When() = %v, want 3", got)
	}
	if tm.Active() {
		t.Fatal("fired timer reports Active")
	}
}

// A stale Timer whose event struct has been recycled must not cancel the
// event's new occupant.
func TestStaleTimerCannotCancelRecycledEvent(t *testing.T) {
	e := New()
	var stale *Timer
	ran := false
	stale = e.At(1, func() {})
	e.At(2, func() {
		// stale's event fired at t=1 and was recycled. Schedule new work
		// (likely reusing the same struct) and try to cancel via the stale
		// handle.
		e.At(3, func() { ran = true })
		stale.Cancel()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("stale Cancel killed a recycled event")
	}
}

// AtInto rearm must retarget a pending timer in place: the old callback
// must not fire, the new one must, and cancellation must keep working.
func TestAfterIntoRearm(t *testing.T) {
	e := New()
	var tm Timer
	old, new_ := 0, 0
	e.AfterInto(&tm, 5, Func(func() { old++ }), 0)
	e.At(1, func() { e.AfterInto(&tm, 1, Func(func() { new_++ }), 0) }) // fires at 2
	e.At(10, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if old != 0 || new_ != 1 {
		t.Fatalf("old ran %d times, new %d; want 0 and 1", old, new_)
	}
	if tm.When() != 2 {
		t.Fatalf("When() = %v, want 2", tm.When())
	}

	// Rearm then cancel: nothing fires.
	e2 := New()
	var tm2 Timer
	fired := 0
	e2.AfterInto(&tm2, 1, Func(func() { fired++ }), 0)
	e2.AfterInto(&tm2, 2, Func(func() { fired++ }), 0)
	tm2.Cancel()
	e2.At(5, func() {})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("cancelled rearmed timer fired %d times", fired)
	}
}

// Rearming must not disturb dispatch order relative to fresh scheduling: a
// retargeted event takes the sequence number a newly pushed event would
// have taken, so same-instant callbacks run in scheduling order.
func TestRearmKeepsTieOrder(t *testing.T) {
	run := func(rearm bool) []int {
		e := New()
		var order []int
		var tm Timer
		e.AfterInto(&tm, 10, Func(func() { order = append(order, 0) }), 0)
		e.At(1, func() {
			e.At(2, func() { order = append(order, 1) })
			if rearm {
				e.AtInto(&tm, 2, Func(func() { order = append(order, 0) }), 0)
			} else {
				tm.Cancel()
				var fresh Timer
				e.AtInto(&fresh, 2, Func(func() { order = append(order, 0) }), 0)
			}
			e.At(2, func() { order = append(order, 2) })
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(true), run(false)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("orders %v and %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rearm changed tie order: %v vs %v", a, b)
		}
	}
	if a[0] != 1 || a[1] != 0 || a[2] != 2 {
		t.Fatalf("order %v, want [1 0 2]", a)
	}
}

// A Timer is a value: a pending event can be handed from one holder to
// another and retargeted through the new holder, and a cancelled event that
// is still queued is revived by AtInto where it sits. Rearms counts exactly
// the retargets that found their event queued.
func TestTimerHandOverAndRevive(t *testing.T) {
	e := New()
	var a, b Timer
	var fired []string
	e.AtInto(&a, 5, Func(func() { fired = append(fired, "a") }), 0)
	b, a = a, Timer{} // b now holds the pending event
	if a.Active() || !b.Active() {
		t.Fatalf("after hand-over: a active %v, b active %v", a.Active(), b.Active())
	}
	e.AtInto(&b, 3, Func(func() { fired = append(fired, "b") }), 0) // retargets a's old event
	if got := e.Rearms(); got != 1 {
		t.Fatalf("Rearms = %d after one retarget, want 1", got)
	}
	e.AtInto(&a, 4, Func(func() { fired = append(fired, "a2") }), 0) // nothing queued on a: fresh event
	a.Cancel()
	if a.Active() {
		t.Fatal("cancelled timer reports active")
	}
	e.AtInto(&a, 6, Func(func() { fired = append(fired, "a3") }), 0) // revives the cancelled event
	if got := e.Rearms(); got != 2 || !a.Active() {
		t.Fatalf("Rearms = %d, a active %v after reviving a cancelled event; want 2 and true", got, a.Active())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != "b" || fired[1] != "a3" {
		t.Fatalf("fired %v, want [b a3]", fired)
	}
	if e.dispatched != 2 {
		t.Fatalf("%d events dispatched, want 2: no tombstone should have been left", e.dispatched)
	}
}

// The event pool must actually recycle: a long run should carve one small
// chunk of records rather than allocating one struct per event.
func TestEventPoolRecycles(t *testing.T) {
	e := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 10000 {
			e.Schedule(1e-9, tick)
		}
	}
	e.Schedule(1e-9, tick)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.carved > 16 || len(e.free) != e.carved {
		t.Fatalf("%d events carved, %d free after a serial run, want one chunk of 16, all free", e.carved, len(e.free))
	}
	if n != 10000 {
		t.Fatalf("ran %d ticks", n)
	}
}

// A signal's first OnFire callback sits in a field and the rest in a slice;
// they run in registration order across the two, Reset drops the field,
// pending counts it, and one callback on a new signal allocates nothing.
func TestSignalFirstCallbackInline(t *testing.T) {
	e := New()
	s := NewSignal()
	var order []int
	for i := 0; i < 3; i++ {
		s.OnFire(Func(func() { order = append(order, i) }), 0)
	}
	if n := s.pending(); n != 3 {
		t.Fatalf("pending = %d with three callbacks, want 3", n)
	}
	s.Fire(e)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("callbacks ran in order %v, want [0 1 2]", order)
	}

	s.Reset()
	s.OnFire(Func(func() { t.Error("a callback registered before Reset ran") }), 0)
	s.Reset()
	if n := s.pending(); n != 0 {
		t.Fatalf("pending = %d after Reset, want 0", n)
	}
	s.Fire(e)

	cb := func() {}
	if allocs := testing.AllocsPerRun(100, func() {
		var fresh Signal
		fresh.OnFire(Func(cb), 0)
		fresh.Fire(e)
		fresh.Reset()
	}); allocs != 0 {
		t.Fatalf("OnFire + Fire + Reset on a new signal allocates %v times, want 0", allocs)
	}
}

// tally is a record with three callbacks, told apart by op.
type tally [3]int

func (c *tally) Handle(op int) { c[op]++ }

// A record registers its callbacks as itself and an op, and a closure as a
// Func: scheduled through Schedule, Call and AtInto or registered through
// OnFire, and fired, neither form allocates once the engine's event records
// are carved.
func TestCallbackFormsAllocateNothing(t *testing.T) {
	e := New()
	var c tally
	closure := 0
	fn := func() { closure++ }
	var tm, tf Timer
	var s Signal
	round := func() {
		e.Schedule(1, fn)
		e.Call(1, &c, 0)
		e.AtInto(&tm, e.Now()+2, &c, 1)
		e.AtInto(&tf, e.Now()+2, Func(fn), 0)
		s.OnFire(&c, 2)
		s.OnFire(Func(fn), 0)
		s.Fire(e)
		s.Reset()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a round of callbacks allocates %v times, want 0", allocs)
	}
	if runs := 101; c != (tally{runs, runs, runs}) || closure != 3*runs {
		t.Fatalf("callbacks ran %v times by op and the closure %d times, want %d each and %d", c, closure, runs, 3*runs)
	}
}

func TestSubscribeCancelCompacts(t *testing.T) {
	e := New()
	s := NewSignal()
	cancels := make([]func(), 0, 1000)
	for i := 0; i < 1000; i++ {
		cancels = append(cancels, s.Subscribe(func() {}))
	}
	for _, c := range cancels[:999] {
		c()
	}
	if n := s.pending(); n != 1 {
		t.Fatalf("pending = %d, want 1", n)
	}
	if len(s.subs.list) > 4 {
		t.Fatalf("subs slice holds %d entries after cancellation, want compacted", len(s.subs.list))
	}
	fired := 0
	s.subs.list[0].cb = callback{Func(func() { fired++ }), 0} // the surviving sub
	s.Fire(e)
	if fired != 1 {
		t.Fatalf("surviving subscription ran %d times", fired)
	}
}
