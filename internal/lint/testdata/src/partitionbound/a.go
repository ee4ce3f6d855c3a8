// Fixture for the fence pass's partition-advance row, type-checked
// against the real internal/sim package (the loader resolves module
// imports from source): the partition-advance Engine methods are
// coordinator-only, so calling them from this package is a violation.
package partitionbound

import "github.com/hanrepro/han/internal/sim"

func badRunUntil(e *sim.Engine) error {
	return e.RunUntil(1e-3) // want "partition-advance call Engine.RunUntil outside internal/sim"
}

func badNextEventTime(e *sim.Engine) sim.Time {
	t, _ := e.NextEventTime() // want "partition-advance call Engine.NextEventTime outside internal/sim"
	return t
}

func badLiveProcs(e *sim.Engine) int {
	return e.LiveProcs() // want "partition-advance call Engine.LiveProcs outside internal/sim"
}

// The whole-run entry point and the coordinator wrapper are the
// sanctioned ways to drive an engine.
func goodRun(e *sim.Engine) error {
	return e.Run()
}

func goodCoordinator() {
	p := sim.NewParallel(2)
	p.Connect(0, 1, 1e-6)
	p.Run(nil)
}

// A same-named method on an unrelated type is not the Engine API.
type fakeEngine struct{}

func (fakeEngine) RunUntil(limit float64) error { return nil }

func goodUnrelated(f fakeEngine) error {
	return f.RunUntil(0.5)
}
