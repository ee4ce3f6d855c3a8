package sim

import "testing"

// benchDepth is the queue depth and process count of the micro-benchmarks:
// one event or one parked process per rank of the 4096-rank headline run.
const benchDepth = 4096

// BenchmarkEventDispatch measures the event queue under load: benchDepth
// callbacks stay pending and each dispatch schedules its successor at a
// pseudo-random later time. Those times are mostly distinct, so this is the
// queue's worst case: nearly every instant holds one event, and every
// iteration opens an instant and closes one in a heap twelve levels deep.
// BenchmarkStepHandoff is the opposite case, seven instants shared by
// benchDepth events.
func BenchmarkEventDispatch(b *testing.B) {
	e := New()
	fired := 0
	for i := 0; i < benchDepth; i++ {
		state := uint64(i)
		var self func()
		self = func() {
			fired++
			if fired+benchDepth <= b.N {
				state = state*6364136223846793005 + 1442695040888963407
				e.Schedule(Time(1+state>>54)*1e-9, self)
			}
		}
		e.Schedule(Time(i+1)*1e-9, self)
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcHandoff measures the process-to-process baton: benchDepth
// sleepers with co-prime-ish steps, so every event is a resume that parks
// one process and wakes another (one Sleep per iteration overall).
func BenchmarkProcHandoff(b *testing.B) {
	e := New()
	loops := b.N/benchDepth + 1
	for i := 0; i < benchDepth; i++ {
		step := Time(1+i%7) * 1e-9
		e.Spawn("sleeper", func(p *Proc) {
			for k := 0; k < loops; k++ {
				p.Sleep(step)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStepHandoff is BenchmarkProcHandoff with step-driven sleepers:
// the same events, dispatched in place on the engine goroutine (one
// StepSleep per iteration overall).
func BenchmarkStepHandoff(b *testing.B) {
	e := New()
	loops := b.N/benchDepth + 1
	for i := 0; i < benchDepth; i++ {
		spawnStep(e, "sleeper", &sleepSteps{left: loops, d: Time(1+i%7) * 1e-9})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSignalFanout measures waking many waiters from one signal.
func BenchmarkSignalFanout(b *testing.B) {
	const waiters = 64
	for i := 0; i < b.N; i++ {
		e := New()
		s := NewSignal()
		for w := 0; w < waiters; w++ {
			e.Spawn("w", func(p *Proc) { p.Wait(s) })
		}
		e.At(1, func() { s.Fire(e) })
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
