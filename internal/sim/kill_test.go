package sim

import (
	"testing"
)

// A killed signal-parked process must unwind (running defers) and the
// engine must drain cleanly even if the signal later fires.
func TestKillParkedProc(t *testing.T) {
	e := New()
	s := NewSignal()
	var unwound, ranPastWait bool
	p := e.Spawn("victim", func(p *Proc) {
		defer func() { unwound = true }()
		p.Wait(s)
		ranPastWait = true
	})
	e.Schedule(1, func() { e.Kill(p) })
	e.Schedule(2, func() { s.Fire(e) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !unwound {
		t.Fatal("killed proc did not run its deferred functions")
	}
	if ranPastWait {
		t.Fatal("killed proc executed code past its park point")
	}
	if !p.Dying() || !p.finished {
		t.Fatalf("proc state: dying=%v finished=%v", p.Dying(), p.finished)
	}
}

// Killing a sleeping process lets it unwind at the sleep expiry.
func TestKillSleepingProc(t *testing.T) {
	e := New()
	var after bool
	p := e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10)
		after = true
	})
	e.Schedule(1, func() { e.Kill(p) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after {
		t.Fatal("killed sleeper executed code past its sleep")
	}
	if e.Now() != 10 {
		t.Fatalf("sleeper should unwind at its pending resume (t=10), drained at %v", e.Now())
	}
}

// Killing a process whose start event has not fired yet skips the body
// entirely.
func TestKillBeforeStart(t *testing.T) {
	e := New()
	var ran bool
	p := e.SpawnAt(5, "late", func(p *Proc) { ran = true })
	e.Schedule(1, func() { e.Kill(p) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("killed proc body ran despite pre-start Kill")
	}
}

// Exit terminates the calling process immediately; siblings are unaffected.
func TestExitFromProcess(t *testing.T) {
	e := New()
	var after, sibling bool
	e.Spawn("quitter", func(p *Proc) {
		p.Sleep(1)
		p.Exit()
		after = true //nolint:govet // unreachable by design
	})
	e.Spawn("sibling", func(p *Proc) {
		p.Sleep(2)
		sibling = true
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after {
		t.Fatal("code after Exit ran")
	}
	if !sibling {
		t.Fatal("sibling did not complete")
	}
}

// Killing a finished process is a no-op; double Kill is a no-op.
func TestKillIdempotent(t *testing.T) {
	e := New()
	p := e.Spawn("quick", func(p *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	e.Kill(p) // finished: no-op
	e.Kill(p)
	e.Kill(nil)
	if err := e.Run(); err != nil {
		t.Fatalf("Run after no-op kills: %v", err)
	}
}

// A process that kills itself via Engine.Kill unwinds at its next wait.
func TestSelfKillUnwindsAtNextWait(t *testing.T) {
	e := New()
	s := NewSignal()
	var past bool
	e.Spawn("selfkill", func(p *Proc) {
		e.Kill(p)
		p.Wait(s)
		past = true
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if past {
		t.Fatal("self-killed proc ran past its wait")
	}
}

// A signal with both live and dying waiters resumes only the live ones.
func TestFireSkipsDyingWaiters(t *testing.T) {
	e := New()
	s := NewSignal()
	var live, dead bool
	victim := e.Spawn("victim", func(p *Proc) {
		p.Wait(s)
		dead = true
	})
	e.Spawn("survivor", func(p *Proc) {
		p.Wait(s)
		live = true
	})
	e.Schedule(1, func() { e.Kill(victim) })
	e.Schedule(2, func() { s.Fire(e) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if dead {
		t.Fatal("dying waiter was resumed by Fire")
	}
	if !live {
		t.Fatal("live waiter was not resumed")
	}
}

// A process killed while registered on several signals gets exactly one
// unwind resume, has its pending count cleared, and is skipped by every
// signal that fires afterwards — whether the kill lands before any of them
// fired, between two fires, or in the same instant as the last one.
func TestKillWhileArmedOnSeveralSignals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		killAt Time
	}{
		{"before any fire", 0.5},
		{"between fires", 1.5},
		{"with the last fire", 3},
		{"after the last fire", 3.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			sigs := []*Signal{NewSignal(), NewSignal(), NewSignal()}
			var unwound, ranPastWait, survivorDone int
			victim := e.Spawn("victim", func(p *Proc) {
				defer func() { unwound++ }()
				p.WaitAll(sigs...)
				ranPastWait++
			})
			// A bystander on the same signals must be unaffected.
			e.Spawn("survivor", func(p *Proc) {
				p.WaitAll(sigs...)
				survivorDone++
			})
			for i, s := range sigs {
				s := s
				e.At(Time(i+1), func() { s.Fire(e) })
			}
			e.At(tc.killAt, func() { e.Kill(victim) })
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			killedInTime := tc.killAt <= 3 // at t=3 the kill callback was scheduled after the fire's, but runs before the resume
			if unwound != 1 {
				t.Fatalf("victim unwound %d times, want 1", unwound)
			}
			if killedInTime && ranPastWait != 0 {
				t.Fatal("killed victim executed code past its wait")
			}
			if !killedInTime && ranPastWait != 1 {
				t.Fatal("victim killed after completing should have run to the end")
			}
			if survivorDone != 1 {
				t.Fatalf("survivor completed %d times, want 1", survivorDone)
			}
			if victim.pending != 0 || victim.parked {
				t.Fatalf("victim left pending=%d parked=%v", victim.pending, victim.parked)
			}
			// 2 starts + 3 fires + 1 kill + one resume per process: a second
			// resume for the victim would show here (and wedge the baton).
			if e.dispatched != 8 {
				t.Fatalf("dispatched %d events, want 8", e.dispatched)
			}
		})
	}
}
