package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClockAdvancesThroughSleep(t *testing.T) {
	e := New()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(2.5)
		wake = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 2.5 {
		t.Fatalf("woke at %v, want 2.5", wake)
	}
	if e.Now() != 2.5 {
		t.Fatalf("engine now %v, want 2.5", e.Now())
	}
}

func TestEventOrderDeterministic(t *testing.T) {
	run := func() []int {
		e := New()
		var order []int
		// Same timestamps; order must follow scheduling sequence.
		for i := 0; i < 10; i++ {
			i := i
			e.At(1.0, func() { order = append(order, i) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] || a[i] != i {
			t.Fatalf("non-deterministic or unordered dispatch: %v vs %v", a, b)
		}
	}
}

func TestSignalWakesAllWaiters(t *testing.T) {
	e := New()
	s := NewSignal()
	woke := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Wait(s)
			woke++
			if p.Now() != 3 {
				t.Errorf("woke at %v, want 3", p.Now())
			}
		})
	}
	e.At(3, func() { s.Fire(e) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5 {
		t.Fatalf("woke %d, want 5", woke)
	}
}

func TestWaitOnFiredSignalReturnsImmediately(t *testing.T) {
	e := New()
	s := NewSignal()
	e.Spawn("w", func(p *Proc) {
		p.Sleep(1)
		p.Wait(s) // fired at t=0.5
		if p.Now() != 1 {
			t.Errorf("wait on fired signal blocked until %v", p.Now())
		}
	})
	e.At(0.5, func() { s.Fire(e) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New()
	s := NewSignal()
	e.Spawn("stuck-a", func(p *Proc) { p.Wait(s) })
	e.Spawn("stuck-b", func(p *Proc) { p.Wait(s) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Parked) != 2 || de.Parked[0] != "stuck-a" || de.Parked[1] != "stuck-b" {
		t.Fatalf("parked = %v", de.Parked)
	}
}

func TestTimerCancel(t *testing.T) {
	e := New()
	ran := false
	tm := e.At(1, func() { ran = true })
	tm.Cancel()
	e.At(2, func() {}) // keep the queue non-empty past t=1
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled timer ran")
	}
	if e.Now() != 2 {
		t.Fatalf("now = %v, want 2", e.Now())
	}
}

func TestWaitAnyReturnsFirstFired(t *testing.T) {
	e := New()
	a, b := NewSignal(), NewSignal()
	var idx int = -1
	e.Spawn("w", func(p *Proc) { idx = p.WaitAny(a, b) })
	e.At(1, func() { b.Fire(e) })
	e.At(2, func() { a.Fire(e) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("WaitAny = %d, want 1", idx)
	}
}

func TestSpawnAt(t *testing.T) {
	e := New()
	var started Time = -1
	e.SpawnAt(4, "late", func(p *Proc) { started = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if started != 4 {
		t.Fatalf("started at %v, want 4", started)
	}
}

func TestEventBudget(t *testing.T) {
	e := New()
	e.MaxEvents = 10
	var tick func()
	tick = func() { e.After(1, tick) }
	e.After(1, tick)
	err := e.Run()
	if _, ok := err.(*ErrEventBudget); !ok {
		t.Fatalf("want ErrEventBudget, got %v", err)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := New()
	e.Spawn("boom", func(p *Proc) { panic("kaboom") })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in process did not propagate to Run")
		}
	}()
	_ = e.Run()
}

// Property: with random sleep durations, every process observes a
// monotonically non-decreasing clock, and the engine finishes at the maximum
// cumulative sleep over all processes.
func TestQuickMonotonicClock(t *testing.T) {
	f := func(seed int64, nProcs uint8, nSleeps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		np := int(nProcs%8) + 1
		ns := int(nSleeps%8) + 1
		e := New()
		var maxEnd Time
		ok := true
		for i := 0; i < np; i++ {
			durs := make([]Time, ns)
			var sum Time
			for j := range durs {
				durs[j] = Time(rng.Float64())
				sum += durs[j]
			}
			if sum > maxEnd {
				maxEnd = sum
			}
			e.Spawn("p", func(p *Proc) {
				prev := p.Now()
				for _, d := range durs {
					p.Sleep(d)
					if p.Now() < prev {
						ok = false
					}
					prev = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok && e.Now() <= maxEnd+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
