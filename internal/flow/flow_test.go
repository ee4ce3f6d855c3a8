package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hanrepro/han/internal/sim"
)

const eps = 1e-9

func almost(a, b float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestSingleFlowTakesFullCapacity(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("link", 100) // 100 B/s
	var end sim.Time
	e.Spawn("xfer", func(p *sim.Proc) {
		f := n.Start(50, r)
		p.Wait(f.Done())
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(end), 0.5) {
		t.Fatalf("50B over 100B/s finished at %v, want 0.5", end)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	var endA, endB sim.Time
	e.Spawn("a", func(p *sim.Proc) {
		f := n.Start(100, r)
		p.Wait(f.Done())
		endA = p.Now()
	})
	e.Spawn("b", func(p *sim.Proc) {
		f := n.Start(100, r)
		p.Wait(f.Done())
		endB = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Both share 50 B/s, each needs 100 B: 2 s.
	if !almost(float64(endA), 2) || !almost(float64(endB), 2) {
		t.Fatalf("ends = %v, %v; want 2, 2", endA, endB)
	}
}

func TestShortFlowFreesCapacity(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	var endLong sim.Time
	e.Spawn("long", func(p *sim.Proc) {
		f := n.Start(150, r)
		p.Wait(f.Done())
		endLong = p.Now()
	})
	e.Spawn("short", func(p *sim.Proc) {
		f := n.Start(50, r)
		p.Wait(f.Done())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Shared 50 B/s until t=1 (short done, each moved 50B), then long runs
	// at 100 B/s for its remaining 100B: end at t=2.
	if !almost(float64(endLong), 2) {
		t.Fatalf("long ended at %v, want 2", endLong)
	}
}

func TestMaxMinBottleneck(t *testing.T) {
	// Flow A crosses r1 (cap 10) and r2 (cap 100); flow B crosses only r2.
	// A is bottlenecked at 10; B should get the leftover 90.
	e := sim.New()
	n := NewNetwork(e)
	r1 := n.NewResource("r1", 10)
	r2 := n.NewResource("r2", 100)
	var endA, endB sim.Time
	e.Spawn("a", func(p *sim.Proc) {
		f := n.Start(10, r1, r2)
		p.Wait(f.Done())
		endA = p.Now()
	})
	e.Spawn("b", func(p *sim.Proc) {
		f := n.Start(90, r2)
		p.Wait(f.Done())
		endB = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(endA), 1) {
		t.Fatalf("A ended at %v, want 1", endA)
	}
	if !almost(float64(endB), 1) {
		t.Fatalf("B ended at %v, want 1 (max-min leftover)", endB)
	}
}

func TestIndependentComponentsDoNotInterfere(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r1 := n.NewResource("r1", 100)
	r2 := n.NewResource("r2", 100)
	var end1, end2 sim.Time
	e.Spawn("a", func(p *sim.Proc) {
		f := n.Start(100, r1)
		p.Wait(f.Done())
		end1 = p.Now()
	})
	e.Spawn("b", func(p *sim.Proc) {
		f := n.Start(200, r2)
		p.Wait(f.Done())
		end2 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(end1), 1) || !almost(float64(end2), 2) {
		t.Fatalf("ends = %v, %v; want 1, 2", end1, end2)
	}
}

func TestZeroByteFlowCompletesInstantly(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("r", 100)
	f := n.Start(0, r)
	if !f.Done().Fired() {
		t.Fatal("zero-byte flow should complete immediately")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStaggeredArrivals(t *testing.T) {
	// Flow A starts at t=0 with 100B over 100B/s. Flow B (100B) arrives at
	// t=0.5 when A has 50B left: they share 50/50, A finishes at
	// 0.5 + 50/50 = 1.5; B then runs alone: 50B done, 50B left at 100B/s,
	// B ends at 2.0.
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("r", 100)
	var endA, endB sim.Time
	e.Spawn("a", func(p *sim.Proc) {
		f := n.Start(100, r)
		p.Wait(f.Done())
		endA = p.Now()
	})
	e.Spawn("b", func(p *sim.Proc) {
		p.Sleep(0.5)
		f := n.Start(100, r)
		p.Wait(f.Done())
		endB = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(endA), 1.5) {
		t.Fatalf("A ended at %v, want 1.5", endA)
	}
	if !almost(float64(endB), 2.0) {
		t.Fatalf("B ended at %v, want 2.0", endB)
	}
}

// Property: total bytes delivered per resource never exceeds capacity x
// makespan, and all flows eventually complete (work conservation upper
// bound).
func TestQuickCapacityRespected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.New()
		n := NewNetwork(e)
		nRes := rng.Intn(4) + 1
		res := make([]*Resource, nRes)
		for i := range res {
			res[i] = n.NewResource("r", 50+rng.Float64()*200)
		}
		nFlows := rng.Intn(12) + 1
		perRes := make([]float64, nRes) // bytes shipped through each resource
		done := 0
		for i := 0; i < nFlows; i++ {
			bytes := 1 + rng.Float64()*500
			// random non-empty subset path
			var path []*Resource
			for j := range res {
				if rng.Intn(2) == 0 {
					path = append(path, res[j])
					perRes[j] += bytes
				}
			}
			if len(path) == 0 {
				path = append(path, res[0])
				perRes[0] += bytes
			}
			start := sim.Time(rng.Float64())
			e.SpawnAt(start, "f", func(p *sim.Proc) {
				fl := n.Start(bytes, path...)
				p.Wait(fl.Done())
				done++
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if done != nFlows {
			return false
		}
		makespan := float64(e.Now())
		for j := range res {
			if perRes[j] > res[j].Capacity*makespan*(1+1e-6)+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a lone flow of b bytes over one resource of capacity c takes
// exactly b/c seconds regardless of history elsewhere.
func TestQuickLoneFlowExactTime(t *testing.T) {
	f := func(rawBytes, rawCap uint32) bool {
		bytes := float64(rawBytes%100000) + 1
		capacity := float64(rawCap%100000) + 1
		e := sim.New()
		n := NewNetwork(e)
		r := n.NewResource("r", capacity)
		var end sim.Time
		e.Spawn("f", func(p *sim.Proc) {
			fl := n.Start(bytes, r)
			p.Wait(fl.Done())
			end = p.Now()
		})
		if err := e.Run(); err != nil {
			return false
		}
		return almost(float64(end), bytes/capacity)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Rebalance must reschedule completion timers correctly through multiple
// arrival/departure waves.
func TestTimerReschedulingThroughWaves(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("r", 100)
	var ends []sim.Time
	// Three flows arriving at t=0, 1, 2 with sizes chosen so each wave
	// changes every remaining flow's rate.
	starts := []sim.Time{0, 1, 2}
	sizes := []float64{300, 150, 50}
	for i := range starts {
		i := i
		e.SpawnAt(starts[i], "f", func(p *sim.Proc) {
			f := n.Start(sizes[i], r)
			p.Wait(f.Done())
			ends = append(ends, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Work conservation: the resource is busy from t=0 until the last
	// completion, so total bytes / capacity = makespan.
	total := 0.0
	for _, s := range sizes {
		total += s
	}
	want := total / 100
	last := ends[len(ends)-1]
	if !almost(float64(last), want) {
		t.Fatalf("makespan %v, want %v (work conservation broken)", last, want)
	}
}

// Many concurrent small flows across disjoint resources must stay
// independent (component isolation at scale).
func TestManyDisjointComponents(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	const k = 200
	done := 0
	for i := 0; i < k; i++ {
		r := n.NewResource("r", 100)
		e.Spawn("f", func(p *sim.Proc) {
			f := n.Start(100, r)
			p.Wait(f.Done())
			if !almost(float64(p.Now()), 1.0) {
				t.Errorf("isolated flow finished at %v, want 1.0", p.Now())
			}
			done++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != k {
		t.Fatalf("done = %d", done)
	}
}

// A flow spanning two resources couples their components; rates must still
// respect every capacity.
func TestCrossComponentCoupling(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r1 := n.NewResource("r1", 100)
	r2 := n.NewResource("r2", 100)
	var endA, endB, endC sim.Time
	e.Spawn("a", func(p *sim.Proc) { f := n.Start(100, r1); p.Wait(f.Done()); endA = p.Now() })
	e.Spawn("b", func(p *sim.Proc) { f := n.Start(100, r2); p.Wait(f.Done()); endB = p.Now() })
	e.Spawn("c", func(p *sim.Proc) { f := n.Start(100, r1, r2); p.Wait(f.Done()); endC = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Max-min: every flow gets 50 on its bottleneck; a and b finish at 2.0.
	// c is limited to 50 on both, also 2.0.
	for _, v := range []sim.Time{endA, endB, endC} {
		if !almost(float64(v), 2.0) {
			t.Fatalf("ends = %v %v %v, want all 2.0", endA, endB, endC)
		}
	}
}

// Halving a link's capacity mid-flight halves the remaining transfer rate:
// 100 B over a 100 B/s link, degraded to 50 B/s at t=0.5, finishes the
// remaining 50 B in 1 s.
func TestSetCapacityDegradesMidFlight(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	var end sim.Time
	e.Spawn("xfer", func(p *sim.Proc) {
		f := n.Start(100, r)
		p.Wait(f.Done())
		end = p.Now()
	})
	e.At(0.5, func() { n.SetCapacity(r, 50) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(end), 1.5) {
		t.Fatalf("degraded transfer finished at %v, want 1.5", end)
	}
}

// A full flap — degrade then restore — only slows the window in between.
// 200 B at 100 B/s, degraded to 25 B/s over [0.5, 1.5), restored after:
// 50 B + 25 B + 125 B take 0.5 + 1.0 + 1.25 = 2.75 s.
func TestSetCapacityFlapRestores(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	var end sim.Time
	e.Spawn("xfer", func(p *sim.Proc) {
		f := n.Start(200, r)
		p.Wait(f.Done())
		end = p.Now()
	})
	e.At(0.5, func() { n.SetCapacity(r, 25) })
	e.At(1.5, func() { n.SetCapacity(r, 100) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(end), 2.75) {
		t.Fatalf("flapped transfer finished at %v, want 2.75", end)
	}
}

// SetCapacity on an idle resource just records the new capacity; flows
// started afterwards see it.
func TestSetCapacityIdleResource(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	n.SetCapacity(r, 10)
	if r.Capacity != 10 {
		t.Fatalf("capacity = %v, want 10", r.Capacity)
	}
	var end sim.Time
	e.Spawn("xfer", func(p *sim.Proc) {
		f := n.Start(10, r)
		p.Wait(f.Done())
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(float64(end), 1.0) {
		t.Fatalf("transfer finished at %v, want 1.0", end)
	}
}

// Capacity mutation must stay bit-identical across the two allocators.
func TestSetCapacityDifferential(t *testing.T) {
	run := func(a Allocator) []sim.Time {
		e := sim.New()
		n := NewNetwork(e)
		n.SetAllocator(a)
		r1 := n.NewResource("r1", 100)
		r2 := n.NewResource("r2", 80)
		ends := make([]sim.Time, 3)
		e.Spawn("a", func(p *sim.Proc) { f := n.Start(100, r1); p.Wait(f.Done()); ends[0] = p.Now() })
		e.Spawn("b", func(p *sim.Proc) { f := n.Start(150, r1, r2); p.Wait(f.Done()); ends[1] = p.Now() })
		e.Spawn("c", func(p *sim.Proc) { f := n.Start(60, r2); p.Wait(f.Done()); ends[2] = p.Now() })
		e.At(0.3, func() { n.SetCapacity(r1, 40) })
		e.At(0.9, func() { n.SetCapacity(r2, 160) })
		e.At(1.4, func() { n.SetCapacity(r1, 100) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	inc := run(Incremental)
	ref := run(Reference)
	for i := range inc {
		if inc[i] != ref[i] {
			t.Fatalf("flow %d: incremental end %v != reference end %v", i, inc[i], ref[i])
		}
	}
}

// Rejecting bad capacities keeps the degenerate-rate invariant intact.
func TestSetCapacityRejectsNonPositive(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetCapacity(%v) did not panic", bad)
				}
			}()
			n.SetCapacity(r, bad)
		}()
	}
}

// Reset puts every resource back at its created capacity, and refuses while a
// flow is in flight.
func TestNetworkResetRestoresCapacities(t *testing.T) {
	e := sim.New()
	n := NewNetwork(e)
	r := n.NewResource("link", 100)
	n.Start(50, r)
	n.SetCapacity(r, 25)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset with a flow in flight did not panic")
			}
		}()
		n.Reset()
	}()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	n.Reset()
	if r.Capacity != 100 || r.Load() != 0 {
		t.Errorf("after Reset the link carries %d flows at %v B/s, want 0 at 100", r.Load(), r.Capacity)
	}
}
