package flow

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/sim"
)

// This file covers the arena-pooled flow lifecycle: recycling behaviour,
// steady-state allocation pins, pooled-vs-heap differential identity, and
// the stale-pointer retention regressions (Resource.remove and the
// rebalance scratch slices).

// runChurnPooling mirrors runChurn but toggles flow pooling instead of the
// allocator.
func runChurnPooling(t *testing.T, pooled bool, seedv int64) ([]churnEvent, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seedv))
	e := sim.New()
	n := NewNetwork(e)
	n.SetPooling(pooled)

	nRes := 4 + rng.Intn(12)
	res := make([]*Resource, nRes)
	for i := range res {
		res[i] = n.NewResource("r", 10+rng.Float64()*1000)
	}

	var trace []churnEvent
	nFlows := 60 + rng.Intn(140)
	for i := 0; i < nFlows; i++ {
		i := i
		pathLen := 1 + rng.Intn(3)
		perm := rng.Perm(nRes)
		path := make([]*Resource, pathLen)
		for j := 0; j < pathLen; j++ {
			path[j] = res[perm[j]]
		}
		bytes := 1 + rng.Float64()*5000
		var start sim.Time
		switch rng.Intn(3) {
		case 0:
			start = sim.Time(rng.Intn(4))
		default:
			start = sim.Time(rng.Float64() * 4)
		}
		e.SpawnAt(start, "f", func(p *sim.Proc) {
			f := n.Start(bytes, path...)
			p.Wait(f.Done())
			trace = append(trace, churnEvent{flow: i, bits: math.Float64bits(float64(p.Now()))})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("seed %d pooled %v: %v", seedv, pooled, err)
	}
	return trace, math.Float64bits(float64(e.Now()))
}

// Pooled flows must reproduce the heap-allocated path exactly: identical
// completion bits, wake order, and final clock across randomized churn.
func TestDifferentialPooledVsHeapFlows(t *testing.T) {
	for seedv := int64(1); seedv <= 25; seedv++ {
		pooled, pooledNow := runChurnPooling(t, true, seedv)
		heap, heapNow := runChurnPooling(t, false, seedv)
		if pooledNow != heapNow {
			t.Fatalf("seed %d: final clock differs: pooled %016x vs heap %016x", seedv, pooledNow, heapNow)
		}
		if len(pooled) != len(heap) {
			t.Fatalf("seed %d: %d pooled completions vs %d heap", seedv, len(pooled), len(heap))
		}
		for i := range heap {
			if pooled[i] != heap[i] {
				t.Fatalf("seed %d: completion %d differs: pooled flow %d @%016x vs heap flow %d @%016x",
					seedv, i, pooled[i].flow, pooled[i].bits, heap[i].flow, heap[i].bits)
			}
		}
	}
}

// Completed flows must actually return to the pool and be reused: a long
// sequential chain should touch only a handful of slots.
func TestFlowPoolRecycles(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	var done func(i int)
	done = func(i int) {
		if i == 500 {
			return
		}
		f := n.Start(50, r)
		f.Done().OnFire(sim.Func(func() { done(i + 1) }), 0)
	}
	done(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if live := n.pool.Live(); live != 0 {
		t.Fatalf("%d flows still checked out after all completed", live)
	}
	if total := n.pool.Total(); total > 256 { // one slab covers all 500 only via reuse
		t.Fatalf("500 sequential flows carved %d slots; the pool is not recycling", total)
	}
}

// Steady-state Start → rebalance → complete must not allocate on the
// pooled path.
func TestStartCompleteSteadyStateAllocs(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r1 := n.NewResource("a", 100)
	r2 := n.NewResource("b", 50)
	// Warm the pool, scratch slices, and event heap.
	for i := 0; i < 32; i++ {
		n.Start(10, r1, r2)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		n.Start(10, r1, r2) // overlapping pair: forces shared rebalance
		n.Start(10, r2)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 && !arena.Debug { // quarantined slots are not reused: every flow is a fresh one
		t.Fatalf("steady-state start/rebalance/complete allocates %.1f per run, want 0", allocs)
	}
}

// Satellite regression: Resource.remove must nil the vacated capacity-tail
// slot instead of leaving a stale duplicate *Flow pinned in the backing
// array.
func TestResourceRemoveClearsVacatedSlot(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	n.SetPooling(false) // keep completed flows alive so staleness is observable
	r := n.NewResource("link", 100)
	for i := 0; i < 6; i++ {
		n.Start(float64(10*(i+1)), r)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.flows) != 0 {
		t.Fatalf("%d flows still registered after completion", len(r.flows))
	}
	tail := r.flows[:cap(r.flows)]
	for i, f := range tail {
		if f != nil {
			t.Fatalf("capacity tail slot %d still pins flow %p after removal", i, f)
		}
	}
}

// Satellite regression (audit sweep): the rebalance scratch slices —
// component list, DFS stack, active set — must not retain flow pointers in
// their capacity tails between rebalances.
func TestRebalanceScratchDropsFlowReferences(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	n.SetPooling(false)
	r1 := n.NewResource("a", 100)
	r2 := n.NewResource("b", 50)
	// A large wave grows the scratch arrays, then a lone flow shrinks the
	// live extent, exposing any stale tail.
	for i := 0; i < 16; i++ {
		n.Start(25, r1, r2)
	}
	e.At(e.Now()+10, func() { n.Start(5, r2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	check := func(name string, s []*Flow) {
		for i, f := range s[:cap(s)] {
			if f != nil {
				t.Fatalf("%s scratch slot %d still pins flow %p", name, i, f)
			}
		}
	}
	check("comp", n.comp[:0])
	check("stack", n.stack[:0])
	check("active", n.active[:0])
}
