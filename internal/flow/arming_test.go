package flow

import (
	"fmt"
	"math"
	"testing"

	"github.com/hanrepro/han/internal/sim"
)

// This file holds the arming rule to its statement: one armed completion
// per connected component, at the component's earliest completion time, and
// a count of what that saves the event queue.

// armingWalker re-derives the components from the resource lists, with none
// of rebalance's scratch, and checks every one of them. It runs on whatever
// goroutine the workload is on, so it keeps its first finding for the test
// to report instead of failing it from there.
type armingWalker struct {
	n      *Network
	err    string
	live   map[*Flow]bool // flows on a resource at this check,
	was    []*Flow        // and at the one before, in the order found
	walked map[*Resource]bool
	checks int
	ties   int // components checked whose earliest completion was shared
}

func (w *armingWalker) failf(format string, args ...any) {
	if w.err == "" {
		w.err = fmt.Sprintf("t=%v: ", w.n.e.Now()) + fmt.Sprintf(format, args...)
	}
}

func (w *armingWalker) check() {
	if w.err != "" {
		return
	}
	w.checks++
	live, walked := w.live, w.walked
	clear(live)
	clear(walked)
	var now []*Flow
	for _, seed := range w.n.resources {
		if walked[seed] || len(seed.flows) == 0 {
			continue
		}
		// One component: breadth-first over resources, each list read once.
		var members []*Flow
		walked[seed] = true
		for queue := []*Resource{seed}; len(queue) > 0; queue = queue[1:] {
			for _, f := range queue[0].flows {
				if live[f] {
					continue
				}
				live[f] = true
				members = append(members, f)
				for _, r := range f.path {
					if !walked[r] {
						walked[r] = true
						queue = append(queue, r)
					}
				}
			}
		}
		w.checkComponent(members)
		now = append(now, members...)
	}
	// A flow off every resource list is out of rebalance's reach, so what
	// its timer holds cannot change again: looking once, at the first check
	// after it left, is looking always.
	for _, f := range w.was {
		if !live[f] && f.timer.Active() {
			w.failf("a finished or recycled flow still owns an armed timer")
		}
	}
	w.was = now
}

// completion is the sum rebalance compared: every member of a component was
// brought up to date at its last rebalance, so last is that rebalance's now.
func completion(f *Flow) sim.Time { return f.last + sim.Time(f.remaining/f.rate) }

func (w *armingWalker) checkComponent(members []*Flow) {
	var armed *Flow
	active, tied := 0, 0
	earliest := sim.Time(math.Inf(1))
	for _, f := range members {
		if f.timer.Active() {
			armed = f
			active++
		}
		switch at := completion(f); {
		case at < earliest:
			earliest, tied = at, 1
		case at == earliest:
			tied++
		}
	}
	if active != 1 {
		w.failf("component of %d flows has %d armed timers, want 1", len(members), active)
		return
	}
	if got := armed.timer.When(); got != earliest {
		w.failf("component of %d flows armed for %v, its earliest completion is %v", len(members), got, earliest)
	}
	if tied == 1 {
		return
	}
	// Ties go to component order, which only the scratch of the latest
	// rebalance still records. If that rebalance was of this component and
	// nothing in it has finished since (complete scrubs a finished flow to
	// nil), the first tied flow in scratch order must be the armed one.
	scratch := w.n.comp
	if len(scratch) != len(members) {
		return
	}
	member := make(map[*Flow]bool, len(members))
	for _, f := range members {
		member[f] = true
	}
	var first *Flow
	for _, f := range scratch {
		if !member[f] {
			return
		}
		if first == nil && completion(f) == earliest {
			first = f
		}
	}
	w.ties++
	if first != armed {
		w.failf("tie among %d of %d flows not broken by component order", tied, len(members))
	}
}

// The walker runs after every Start, completion and SetCapacity of the
// golden workloads, on both allocators, and the runs still produce the
// golden bits.
func TestArmingInvariantGoldenWorkloads(t *testing.T) {
	for _, row := range flowGoldens {
		for _, alloc := range []Allocator{Incremental, Reference} {
			var w *armingWalker
			got := runGolden(t, alloc, row.workload, func(n *Network) func() {
				w = &armingWalker{n: n, live: make(map[*Flow]bool), walked: make(map[*Resource]bool)}
				return w.check
			})
			if w.err != "" {
				t.Fatalf("%s (allocator %d): %s", row.name, alloc, w.err)
			}
			if got != row.want {
				t.Errorf("%s (allocator %d): bits moved under the walker: goldenBits{%#016x, %#016x, %d}",
					row.name, alloc, got.stream, got.end, got.n)
			}
			if w.checks < got.n {
				t.Errorf("%s: %d checks for %d records", row.name, w.checks, got.n)
			}
			if row.name == "sameInstant" && w.ties == 0 {
				t.Errorf("%s: no tied component was ever checked", row.name)
			}
		}
	}
}

// A staggered fan-in of k flows over one link rebalances the whole k-flow
// component at every arrival and departure. Arming one completion makes
// that at most one retarget per arrival (the lead keeps or hands over the
// pending event) and none per departure (the fired event is gone; the next
// lead's is pushed fresh); a timer per flow made it k per rebalance.
func TestFanInRearmsAtMostTwicePerFlow(t *testing.T) {
	const k = 128
	for _, alloc := range []Allocator{Incremental, Reference} {
		e := sim.New()
		n := NewNetwork(e)
		n.SetAllocator(alloc)
		r := n.NewResource("link", 1e9)
		for j := 0; j < k; j++ {
			e.At(sim.Time(j)*1e-6, func() { n.Start(1e6, r) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got := e.Rearms(); got == 0 || got > 2*k {
			t.Errorf("allocator %d: %d re-arms for %d flows, want between 1 and %d", alloc, got, k, 2*k)
		}
	}
}
