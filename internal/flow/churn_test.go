package flow

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/sim"
)

// churnEvent is one observed flow completion: which flow, and the exact bits
// of the virtual completion time. Comparing slices of these compares both
// values and wake ordering.
type churnEvent struct {
	flow int
	bits uint64
}

// runChurn drives a seeded random start/complete workload on e and n and
// returns the completion trace plus the exact final clock. check, when not
// nil, runs after every start and every wake. The resources are n's own if
// it has them (n was Reset after a churn of the same seed), else created.
//
// The generated graphs deliberately mix the regimes the HAN machines
// produce: chained multi-resource paths (NIC→NIC→bus), hot shared
// resources (fan-in), singleton flows, simultaneous same-instant waves, and
// staggered arrivals that retrigger rebalancing mid-flight.
func runChurn(tb testing.TB, e *sim.Engine, n *Network, seedv int64, check func()) ([]churnEvent, uint64) {
	tb.Helper()
	if check == nil {
		check = func() {}
	}
	rng := rand.New(rand.NewSource(seedv))

	nRes := 4 + rng.Intn(12)
	res := make([]*Resource, nRes)
	for i := range res {
		capacity := 10 + rng.Float64()*1000
		if i < len(n.resources) {
			res[i] = n.resources[i]
		} else {
			res[i] = n.NewResource("r", capacity)
		}
	}

	var trace []churnEvent
	nFlows := 60 + rng.Intn(140)
	for i := 0; i < nFlows; i++ {
		pathLen := 1 + rng.Intn(3)
		perm := rng.Perm(nRes)
		path := make([]*Resource, pathLen)
		for j := 0; j < pathLen; j++ {
			path[j] = res[perm[j]]
		}
		bytes := 1 + rng.Float64()*5000
		// A third of the flows start in same-instant waves to stress
		// tie-breaking; the rest arrive staggered.
		var start sim.Time
		switch rng.Intn(3) {
		case 0:
			start = sim.Time(rng.Intn(4))
		default:
			start = sim.Time(rng.Float64() * 4)
		}
		e.SpawnAt(start, "f", func(p *sim.Proc) {
			f := n.Start(bytes, path...)
			check()
			p.Wait(f.Done())
			trace = append(trace, churnEvent{flow: i, bits: math.Float64bits(float64(p.Now()))})
			check()
		})
	}
	if err := e.Run(); err != nil {
		tb.Fatalf("seed %d: %v", seedv, err)
	}
	if len(trace) != nFlows {
		tb.Fatalf("seed %d: %d of %d flows completed", seedv, len(trace), nFlows)
	}
	return trace, math.Float64bits(float64(e.Now()))
}

// sameChurn fails unless two churn runs left the same trace and final clock,
// to the bit.
func sameChurn(t *testing.T, seedv int64, a, b []churnEvent, aNow, bNow uint64) {
	t.Helper()
	if aNow != bNow {
		t.Fatalf("seed %d: final clock differs: %016x vs %016x", seedv, aNow, bNow)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d: trace diverges at %d: %+v vs %+v", seedv, i, a[i], b[i])
		}
	}
}

// Two runs of the same seed must produce identical event traces (full
// determinism, the property autotuning sweeps rely on).
func TestChurnDeterministic(t *testing.T) {
	e1, e2 := sim.New(), sim.New()
	a, aNow := runChurn(t, e1, NewNetwork(e1), 42, nil)
	b, bNow := runChurn(t, e2, NewNetwork(e2), 42, nil)
	sameChurn(t, 42, a, b, aNow, bNow)
}

// A network that has run a churn, Reset with its engine, runs it again on
// recycled flow slots, warm scratch and the same resources, and must
// reproduce the run on a new network bit for bit. Under HAN_ARENA_DEBUG=1
// no slot is reused, so the same runs compare fresh slots with fresh slots.
func TestFreshVsRecycledChurn(t *testing.T) {
	for seedv := int64(1); seedv <= 25; seedv++ {
		e := sim.New()
		n := NewNetwork(e)
		fresh, freshNow := runChurn(t, e, n, seedv, nil)
		e.Reset()
		n.Reset()
		recycled, recycledNow := runChurn(t, e, n, seedv, nil)
		if n.pool.Live() != 0 {
			t.Fatalf("seed %d: %d flows still checked out", seedv, n.pool.Live())
		}
		sameChurn(t, seedv, fresh, recycled, freshNow, recycledNow)
	}
}

// A degenerate component (here: a resource whose capacity was corrupted to
// zero mid-run) must panic with a diagnostic instead of scheduling an
// infinite timer and silently hanging the event loop.
func TestDegenerateRatePanicsWithDiagnostic(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	n.Start(50, r)
	r.Capacity = 0 // corrupt: NewResource would reject this
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("rebalance over a zero-capacity resource did not panic")
		}
		msg, ok := rec.(string)
		if !ok || !strings.Contains(msg, "degenerate allocation") || !strings.Contains(msg, "link") {
			t.Fatalf("panic %v lacks diagnostic (want allocator + resource name)", rec)
		}
	}()
	n.Start(50, r) // second flow forces a rebalance at share 0
}
