package flow

import (
	"fmt"
	"math"
	"testing"

	"github.com/hanrepro/han/internal/sim"
)

// This file checks the filler against the definition of max-min fairness
// instead of against a second filler, which could share a bug with the
// first. An allocation is max-min fair if and only if
//
//   - no resource carries more than its capacity, and
//   - every flow crosses a saturated resource on which no flow has a higher
//     rate (the flow's bottleneck: raising its rate would need lowering the
//     rate of a flow that has no more than it).
//
// certify checks both over every flow on a resource list, at any instant
// between two events: every rebalance has run to its end there, and the
// rates it left are the allocation of their component.

// certTol is the relative tolerance of certify's comparisons. The filler's
// rounding errors are a few ulps of a rate times the flows on a resource;
// a wrong fill is off by far more.
const certTol = 1e-9

// certLoad is what the flows on one resource take: their rates' sum, and the
// highest of them.
type certLoad struct{ sum, max float64 }

// certify returns why n's current rates are not max-min fair, or "".
func certify(n *Network) string {
	loads := make(map[*Resource]certLoad)
	for _, r := range n.resources {
		if len(r.flows) == 0 {
			continue
		}
		var l certLoad
		// A flow whose path names r twice is on r.flows twice and uses r
		// twice, as the filler counts it.
		for _, f := range r.flows {
			if !(f.rate > 0) || math.IsInf(f.rate, 0) {
				return fmt.Sprintf("flow over %q has rate %v", r.Name, f.rate)
			}
			l.sum += f.rate
			l.max = max(l.max, f.rate)
		}
		if l.sum > r.Capacity*(1+certTol) {
			return fmt.Sprintf("resource %q carries %v over its capacity %v (%d flows)", r.Name, l.sum, r.Capacity, len(r.flows))
		}
		loads[r] = l
	}
	for _, r := range n.resources {
		for _, f := range r.flows {
			if f.path[0] == r && !bottlenecked(f, loads) {
				return fmt.Sprintf("flow over %q at rate %v crosses no saturated resource on which it has the highest rate", r.Name, f.rate)
			}
		}
	}
	return ""
}

// bottlenecked reports whether f crosses a saturated resource on which no
// flow has a higher rate than f.
func bottlenecked(f *Flow, loads map[*Resource]certLoad) bool {
	for _, r := range f.path {
		l := loads[r]
		if l.sum >= r.Capacity*(1-certTol) && f.rate >= l.max*(1-certTol) {
			return true
		}
	}
	return false
}

// The 25 seeded churns are max-min fair after every start and every wake.
func TestCertificateChurn(t *testing.T) {
	checks := 0
	for seedv := int64(1); seedv <= 25; seedv++ {
		e := sim.New()
		n := NewNetwork(e)
		// The check runs on the churn's process goroutines: keep the first
		// finding for the test goroutine to report.
		var failed string
		runChurn(t, e, n, seedv, func() {
			checks++
			if msg := certify(n); msg != "" && failed == "" {
				failed = fmt.Sprintf("t=%v: %s", e.Now(), msg)
			}
		})
		if failed != "" {
			t.Fatalf("seed %d, %s", seedv, failed)
		}
	}
	t.Logf("%d allocations certified", checks)
}

// Rates mid-flight, sampled between starts and completions of flows over
// three resources of different capacities, are max-min fair at every sample;
// the first sample is also the allocation worked out by hand.
func TestCertificateRatesMidFlight(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r1 := n.NewResource("r1", 100)
	r2 := n.NewResource("r2", 250)
	r3 := n.NewResource("r3", 40)
	var flows []*Flow
	starts := []struct {
		at    sim.Time
		bytes float64
		path  []*Resource
	}{
		{0, 300, []*Resource{r1}},
		{0, 300, []*Resource{r1, r2}},
		{0.5, 200, []*Resource{r2}},
		{0.5, 200, []*Resource{r3, r2}},
		{1, 100, []*Resource{r1, r3}},
		{1, 500, []*Resource{r2, r1}},
	}
	for _, s := range starts {
		e.At(s.at, func() { flows = append(flows, n.Start(s.bytes, s.path...)) })
	}
	samples := 0
	for _, at := range []sim.Time{0.25, 0.75, 1.5, 2.5, 4, 7} {
		e.At(at, func() {
			if msg := certify(n); msg != "" {
				t.Errorf("t=%v: %s", at, msg)
			}
			samples++
		})
	}
	// At 0.25 the first two flows split r1 evenly.
	e.At(0.25, func() {
		if flows[0].rate != 50 || flows[1].rate != 50 {
			t.Errorf("t=0.25: rates %v, %v, want 50, 50", flows[0].rate, flows[1].rate)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if samples != 6 {
		t.Fatalf("%d samples, want 6", samples)
	}
}

// Capacity changes mid-flight leave a max-min fair allocation, and the
// flows end when the allocations worked out by hand say they do.
func TestCertificateSetCapacity(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r1 := n.NewResource("r1", 100)
	r2 := n.NewResource("r2", 80)
	check := func() {
		if msg := certify(n); msg != "" {
			t.Errorf("t=%v: %s", e.Now(), msg)
		}
	}
	ends := make([]sim.Time, 3)
	xfer := func(i int, bytes float64, path ...*Resource) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			f := n.Start(bytes, path...)
			check()
			p.Wait(f.Done())
			ends[i] = p.Now()
			check()
		}
	}
	e.Spawn("a", xfer(0, 100, r1))
	e.Spawn("b", xfer(1, 150, r1, r2))
	e.Spawn("c", xfer(2, 60, r2))
	for _, c := range []struct {
		at       sim.Time
		r        *Resource
		capacity float64
	}{{0.3, r1, 40}, {0.9, r2, 160}, {1.4, r1, 100}} {
		e.At(c.at, func() {
			n.SetCapacity(c.r, c.capacity)
			check()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// b and c share r2 at 40 and a takes r1's remaining 60; at 0.3 a and b
	// share r1 at 20 and c takes r2's remaining 60; at 0.9 c takes 140 and
	// ends 12 bytes later; at 1.4 a and b share r1 at 50, a ends with 60
	// bytes to go, and b's last 56 bytes cross r1 alone.
	for i, want := range []float64{2.6, 3.16, 0.9 + 12.0/140} {
		if !almost(float64(ends[i]), want) {
			t.Errorf("flow %d ended at %v, want %v", i, ends[i], want)
		}
	}
}
