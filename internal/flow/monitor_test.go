package flow

import (
	"reflect"
	"testing"

	"github.com/hanrepro/han/internal/sim"
)

// monitorScenario runs two overlapping flows: f1 (100 B over A, cap 100)
// starts at t=0; f2 (100 B over A and B, cap 50) joins at t=0.5. Max-min
// gives both 50 B/s while they share A; f1 finishes at 1.5, f2 at 2.5.
func monitorScenario(t *testing.T, enable bool) (*Monitor, sim.Time) {
	t.Helper()
	e := sim.New()
	n := NewNetwork(e)
	a := n.NewResource("A", 100)
	b := n.NewResource("B", 50)
	var mon *Monitor
	if enable {
		mon = n.EnableMonitor()
	}
	n.Start(100, a)
	e.At(e.Now()+0.5, func() { n.Start(100, a, b) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	mon.Finish(e.Now())
	return mon, e.Now()
}

func TestMonitorAccounting(t *testing.T) {
	mon, end := monitorScenario(t, true)
	if end != 2.5 {
		t.Fatalf("end = %v, want 2.5", end)
	}
	rs := mon.Resources()
	if len(rs) != 2 || rs[0].Res.Name != "A" || rs[1].Res.Name != "B" {
		t.Fatalf("resources = %+v", rs)
	}
	ra, rb := rs[0], rs[1]
	// A carried both flows end to end; B only f2.
	if ra.Bytes != 200 || rb.Bytes != 100 {
		t.Fatalf("bytes A=%v B=%v, want 200/100", ra.Bytes, rb.Bytes)
	}
	if ra.BusySeconds != 2.5 || rb.BusySeconds != 2 {
		t.Fatalf("busy A=%v B=%v, want 2.5/2", ra.BusySeconds, rb.BusySeconds)
	}
	if ra.Peak != 1 || rb.Peak != 1 {
		t.Fatalf("peak A=%v B=%v, want 1/1", ra.Peak, rb.Peak)
	}
	// Utilization series are time-ordered with one sample per instant.
	for _, s := range rs {
		for i := 1; i < len(s.Samples); i++ {
			if s.Samples[i].T <= s.Samples[i-1].T {
				t.Fatalf("%s samples not strictly ordered: %+v", s.Res.Name, s.Samples)
			}
		}
		last := s.Samples[len(s.Samples)-1]
		if last.T != end || last.Util != 0 {
			t.Fatalf("%s final sample = %+v, want (2.5, 0)", s.Res.Name, last)
		}
	}
	tot := mon.Totals()
	if tot.Started != 2 || tot.Completed != 2 || tot.Bytes != 200 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.Seconds != 3.5 || tot.MaxSeconds != 2 {
		t.Fatalf("durations = %+v", tot)
	}
}

func TestMonitorDoesNotPerturb(t *testing.T) {
	_, plain := monitorScenario(t, false)
	_, observed := monitorScenario(t, true)
	if plain != observed {
		t.Fatalf("monitor changed completion time: %v vs %v", plain, observed)
	}
}

func TestMonitorDeterministicReplay(t *testing.T) {
	a, _ := monitorScenario(t, true)
	b, _ := monitorScenario(t, true)
	for i := range a.Resources() {
		sa, sb := a.Resources()[i], b.Resources()[i]
		if !reflect.DeepEqual(sa.Samples, sb.Samples) {
			t.Fatalf("%s samples differ across replays:\n%+v\n%+v", sa.Res.Name, sa.Samples, sb.Samples)
		}
	}
	if a.Totals() != b.Totals() {
		t.Fatalf("totals differ: %+v vs %+v", a.Totals(), b.Totals())
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var mon *Monitor
	mon.Finish(1)
	if mon.Resources() != nil || mon.Totals() != (FlowTotals{}) {
		t.Fatal("nil monitor must observe nothing")
	}
}

// sampleCapScenario runs many sequential flows over one resource so its
// utilization series has a known raw length, under the given cap.
func sampleCapScenario(t *testing.T, cap, flows int) *ResourceStats {
	t.Helper()
	e := sim.New()
	n := NewNetwork(e)
	a := n.NewResource("A", 100)
	mon := n.EnableMonitor()
	mon.SetSampleCap(cap)
	var next func(i int)
	next = func(i int) {
		if i == flows {
			return
		}
		f := n.Start(100, a)
		f.Done().OnFire(sim.Func(func() { next(i + 1) }), 0)
	}
	next(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	mon.Finish(e.Now())
	return mon.Resources()[0]
}

func TestMonitorSampleCapBoundsSeries(t *testing.T) {
	const cap = 32
	s := sampleCapScenario(t, cap, 400) // raw series would be ~800 points
	if len(s.Samples) > cap {
		t.Fatalf("series has %d samples, cap is %d", len(s.Samples), cap)
	}
	for i := 1; i < len(s.Samples); i++ {
		if s.Samples[i].T <= s.Samples[i-1].T {
			t.Fatalf("decimated samples not strictly ordered at %d: %+v", i, s.Samples)
		}
	}
	if s.Samples[0].T != 0 {
		t.Fatalf("decimation must keep the series start, got %+v", s.Samples[0])
	}
	last := s.Samples[len(s.Samples)-1]
	if last.T != 400 || last.Util != 0 {
		t.Fatalf("closing sample = %+v, want (400, 0)", last)
	}
	// Exact accumulators ignore the cap entirely.
	if s.Bytes != 400*100 || s.BusySeconds != 400 || s.Peak != 1 {
		t.Fatalf("exact totals perturbed by cap: bytes=%v busy=%v peak=%v", s.Bytes, s.BusySeconds, s.Peak)
	}
}

func TestMonitorSampleCapAboveSeriesLengthIsIdentity(t *testing.T) {
	unbounded := sampleCapScenario(t, 0, 50)
	roomy := sampleCapScenario(t, len(unbounded.Samples)+1, 50)
	if !reflect.DeepEqual(unbounded.Samples, roomy.Samples) {
		t.Fatalf("cap above series length changed the series:\n%d samples vs %d",
			len(unbounded.Samples), len(roomy.Samples))
	}
}

func TestMonitorSampleCapDeterministic(t *testing.T) {
	a := sampleCapScenario(t, 16, 300)
	b := sampleCapScenario(t, 16, 300)
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatalf("decimated series differ across replays:\n%+v\n%+v", a.Samples, b.Samples)
	}
}

func TestMonitorZeroSizeFlow(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	mon := n.EnableMonitor()
	n.Start(0)
	tot := mon.Totals()
	if tot.Started != 1 || tot.Completed != 1 || tot.Bytes != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}
