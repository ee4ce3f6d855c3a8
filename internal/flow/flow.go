package flow

import (
	"fmt"
	"math"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/sim"
)

// Allocator selects a rate-allocation implementation.
type Allocator int

const (
	// Incremental is the default allocator: resource-resident scratch state
	// plus compacted progressive filling, allocation-free on the rebalance
	// hot path.
	Incremental Allocator = iota
	// Reference is the original from-scratch progressive filler, kept as
	// the oracle the differential tests select with Network.SetAllocator.
	Reference
)

// Resource is a capacity-limited element of the platform.
type Resource struct {
	// Name identifies the resource in debug output.
	Name string
	// Capacity is in bytes per second and must be positive.
	Capacity float64
	initial  float64 // the capacity it was created with, for Network.Reset

	// flows lists the active flows crossing this resource, in insertion
	// order; it starts on flows0, so the first two cost no allocation.
	flows  []*Flow
	flows0 [2]*Flow

	// Rebalance scratch, resident on the resource so a rebalance never
	// allocates a map. Valid only while gen equals the network's visitGen;
	// gen is also collectComponent's mark that the resource's flow list has
	// been walked in this rebalance.
	gen      uint64
	residual float64
	count    int

	// stats is non-nil when the network's monitor is enabled.
	stats *ResourceStats
}

func (r *Resource) remove(f *Flow) {
	for i, g := range r.flows {
		if g == f {
			// Shift down and zero the vacated slot: a plain
			// append(r.flows[:i], r.flows[i+1:]...) leaves a duplicate of the
			// last element in the capacity tail, pinning completed flows (and
			// their done signals) live until the slot is overwritten.
			last := len(r.flows) - 1
			copy(r.flows[i:], r.flows[i+1:])
			r.flows[last] = nil
			r.flows = r.flows[:last]
			return
		}
	}
}

// Flow is an in-flight transfer. Flows are pool-managed by their Network
// (hanlint fence): obtain them with Network.Start/StartOn only, and
// never retain one past the firing of its Done signal unless it came from
// a network with pooling disabled — pooled flows are recycled the moment
// they complete.
type Flow struct {
	net       *Network
	path      []*Resource
	remaining float64   // bytes left
	rate      float64   // current allocated bytes/s
	bytes     float64   // original size, for monitor accounting
	start     sim.Time  // time the flow was started
	last      sim.Time  // time remaining was last brought up to date
	timer     sim.Timer // armed while the flow leads its component (rebalance)
	doneSig   sim.Signal
	finished  bool
	pooled    bool
	slot      arena.Slot

	// pathBuf backs path for the common short paths (the longest built-in
	// path, socket-bus/UPI/socket-bus, is 3 hops), so Start copies the
	// caller's path without allocating.
	pathBuf [4]*Resource

	// scratch fields for rate computation
	frozen bool
	visit  uint64 // epoch of the last rebalance that collected the flow
}

// Done returns the signal fired when the flow's last byte has been
// delivered.
func (f *Flow) Done() *sim.Signal { return &f.doneSig }

// Handle is the flow's completion, which its network arms on the engine
// (sim.Handler): the flow has one callback, so the op is unused. It is not
// for callers.
func (f *Flow) Handle(int) { f.net.complete(f) }

// Rate returns the currently allocated rate in bytes per second. No binary
// asks: TestDifferentialRatesMidFlight compares the two allocators with it.
func (f *Flow) Rate() float64 { return f.rate }

// Network tracks active flows over a set of resources.
type Network struct {
	e    *sim.Engine
	mode Allocator

	// pooling recycles Flow structs through an arena pool: a flow is
	// returned to the pool at the end of complete(), so callers must not
	// touch a flow after its Done signal has fired. Disabled, every Start
	// heap-allocates exactly as the original code did — the reference
	// lifecycle oracle for the differential tests.
	pooling bool
	pool    *arena.Pool[Flow]

	// Reusable scratch for rebalances, grown once and kept. comp holds the
	// component of the most recent rebalance; visitGen is its epoch, stamped
	// on every flow and resource it collected.
	comp     []*Flow
	stack    []*Flow
	res      []*Resource
	active   []*Flow
	visitGen uint64

	// resources lists every resource created on this network, in creation
	// order; mon is the attached monitor, nil unless EnableMonitor was
	// called (all monitor hooks are nil-guarded and observation-only).
	resources []*Resource
	mon       *Monitor
	// resFree is the rest of the chunk NewResource carves records from.
	resFree []Resource
}

// NewNetwork returns a flow network bound to the given engine, on the
// incremental allocator with flow recycling on.
func NewNetwork(e *sim.Engine) *Network {
	n := &Network{e: e, mode: Incremental, pooling: true}
	n.pool = arena.NewPool(arena.Options[Flow]{
		Name: "flow.Flow",
		Init: func(f *Flow) {
			f.net = n
			f.pooled = true
		},
		Reset: resetFlow,
		Slot:  func(f *Flow) *arena.Slot { return &f.slot },
	})
	return n
}

// resetFlow clears a flow's per-use state in place. The identity fields
// (net, pooled) persist, and so does the timer handle. In flight, a
// flow's timer is armed (it leads its component), zero or fired (it never
// led, or handed its event over), or a cancelled event still queued, which
// AtInto revives where it sits if the flow comes to lead. A flow finishes
// only through its own armed event, so a pooled slot's timer has fired: the
// engine released that event, and AtInto on reuse schedules afresh.
func resetFlow(f *Flow) {
	for i := range f.pathBuf {
		f.pathBuf[i] = nil
	}
	f.path = nil
	f.remaining, f.rate, f.bytes = 0, 0, 0
	f.start, f.last = 0, 0
	f.doneSig.Reset()
	f.finished = false
	f.frozen = false
	f.visit = 0
}

// SetAllocator selects the allocator implementation. Switching while flows
// are in flight is allowed (both allocators read and write the same flow
// state and produce identical results). No binary switches: the allocator
// differentials (TestAllocatorSwitchMidRun, TestAllocatorParityEndToEnd)
// do, and ROADMAP item 4(e) moves it out with the reference filler.
func (n *Network) SetAllocator(a Allocator) { n.mode = a }

// SetPooling switches flow recycling on or off for subsequently started
// flows. Like SetAllocator it exists for differential tests
// (TestDifferentialPooledVsHeapFlows) and goes with ROADMAP item 4(e);
// flows already in flight keep the lifecycle they were started with.
func (n *Network) SetPooling(on bool) { n.pooling = on }

// NewResource creates a resource with the given capacity in bytes/s.
func (n *Network) NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("flow: resource %q capacity must be positive and finite, got %v", name, capacity))
	}
	if len(n.resFree) == 0 {
		// As many records as the network holds, between 16 and 256: a chunk
		// never moves, so a resource keeps its address (and flows its
		// inline slots) for the network's lifetime.
		n.resFree = make([]Resource, min(max(len(n.resources), 16), 256))
	}
	r := &n.resFree[0]
	n.resFree = n.resFree[1:]
	*r = Resource{Name: name, Capacity: capacity, initial: capacity}
	r.flows = r.flows0[:0]
	n.resources = append(n.resources, r)
	if n.mon != nil {
		n.mon.track(r, n.e.Now())
	}
	return r
}

// Reset returns a network with no flow in flight to the state its resources
// were created in: every resource back at the capacity NewResource gave it.
// What the network grew stays — the resources, the pooled flows, the
// rebalance scratch — none of which reaches a rate or an event. It panics if
// a flow is still in flight.
func (n *Network) Reset() {
	for _, r := range n.resources {
		if len(r.flows) > 0 {
			panic(fmt.Sprintf("flow: Reset with %d flow(s) in flight over %q", len(r.flows), r.Name))
		}
		r.Capacity = r.initial
	}
}

// SetCapacity changes a resource's capacity mid-run (link degradation,
// recovery) and incrementally rebalances the flows crossing it: every flow
// in the resource's connected component is brought up to date under its old
// rate, then rates and completion timers are recomputed under the new
// capacity. A resource with no active flows just takes the new capacity.
func (n *Network) SetCapacity(r *Resource, capacity float64) {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("flow: resource %q capacity must be positive and finite, got %v", r.Name, capacity))
	}
	if capacity == r.Capacity {
		return
	}
	r.Capacity = capacity
	if len(r.flows) > 0 {
		n.rebalance(r.flows[0])
	}
}

// Start launches a transfer of the given size across path. A zero or
// negative size completes at the current instant (its Done signal fires
// immediately). The path must be non-empty for positive sizes.
func (n *Network) Start(bytes float64, path ...*Resource) *Flow {
	return n.StartOn(bytes, path)
}

// StartOn is Start with the path passed as a slice. The path is copied
// into the flow before StartOn returns, so callers may pass a reusable
// scratch slice (cluster.Machine does, to keep the per-message hot path
// allocation-free).
func (n *Network) StartOn(bytes float64, path []*Resource) *Flow {
	var f *Flow
	if n.pooling && bytes > 0 {
		// Positive-size flows complete through a scheduled event, so every
		// caller has registered its interest before the done signal can
		// fire; recycling at complete() is safe. Zero-size flows fire while
		// the caller still holds the only reference and may legitimately be
		// kept around (completed-request fast paths), so they stay on the
		// heap in both modes.
		f = n.pool.Get()
	} else {
		f = &Flow{net: n}
	}
	f.path = append(f.pathBuf[:0], path...)
	f.remaining, f.bytes = bytes, bytes
	f.last = n.e.Now()
	f.start = f.last
	if n.mon != nil {
		n.mon.flowStarted()
	}
	if bytes <= 0 {
		f.finished = true
		if n.mon != nil {
			n.mon.flowDone(0, 0)
		}
		f.doneSig.Fire(n.e)
		return f
	}
	if len(path) == 0 {
		panic("flow: positive-size flow needs a non-empty path")
	}
	for _, r := range f.path {
		r.flows = append(r.flows, f)
	}
	n.rebalance(f)
	return f
}

// collectComponent gathers all flows transitively sharing a resource with
// seed into n.comp, and every resource they cross into n.res, initialising
// the resources' resident scratch (residual = capacity, count = crossing
// flows). Traversal order is deterministic: DFS in path/insertion order,
// identical for both allocators. A resource's flow list is walked once, the
// first time a popped flow crosses it: after that walk the list holds no
// unmarked flow, so later crossings would push nothing.
func (n *Network) collectComponent(seed *Flow) {
	prevComp, prevRes := len(n.comp), len(n.res)
	n.visitGen++
	vg := n.visitGen
	comp, res := n.comp[:0], n.res[:0]
	stack := append(n.stack[:0], seed)
	seed.visit = vg
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack[len(stack)-1] = nil // popped slots must not pin flows
		stack = stack[:len(stack)-1]
		comp = append(comp, f)
		for _, r := range f.path {
			if r.gen == vg {
				continue
			}
			// First touch, in (component × path) order: exactly the order
			// the reference filler builds its map in. Every flow on r is in
			// the component, once per time its path names r.
			r.gen = vg
			r.residual = r.Capacity
			r.count = len(r.flows)
			res = append(res, r)
			for _, g := range r.flows {
				if g.visit != vg {
					g.visit = vg
					stack = append(stack, g)
				}
			}
		}
	}
	// A component smaller than the previous one leaves stale pointers in
	// the shared backing array's tail (same retention pattern as
	// Resource.remove). A shrink implies the array was not regrown, so the
	// old extent is addressable; zero it.
	if len(comp) < prevComp {
		clear(comp[len(comp):prevComp])
	}
	if len(res) < prevRes {
		clear(res[len(res):prevRes])
	}
	n.comp, n.stack, n.res = comp, stack[:0], res
}

// advance brings every flow in n.comp up to date under its old rate.
func (n *Network) advance(now sim.Time) {
	for _, f := range n.comp {
		elapsed := float64(now - f.last)
		if elapsed > 0 && f.rate > 0 {
			f.remaining -= f.rate * elapsed
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.last = now
		f.frozen = false
	}
}

// rebalance brings every flow in seed's component up to date, re-runs
// max-min fair allocation for the component, and arms its next completion.
//
// One completion is armed per component, not one per flow. Until the
// component is rebalanced again its membership and rates are fixed, so only
// its earliest completion can fire; complete then rebalances everything the
// component leaves behind. The earliest is chosen by the time the engine
// would dispatch at — the rounded now+eta, ties to component order, which is
// the order per-flow timers would have drawn their sequence numbers in — so
// the event that fires is the one that always fired, and it keeps its place
// among the other queued events.
func (n *Network) rebalance(seed *Flow) {
	now := n.e.Now()
	n.collectComponent(seed)
	if n.mon != nil {
		// The incremental filler compacts n.res in place; snapshot the
		// component's resource list before it runs.
		n.mon.snapshot(n.res)
	}
	n.advance(now)
	if n.mode == Reference {
		n.fillReference()
	} else {
		n.fillIncremental()
	}
	if n.mon != nil {
		n.mon.noteComponent(now)
	}
	// lead is the flow to arm; armed is the flow holding the component's
	// pending event, if it has one. A merge of several components brings
	// one pending event each: the first is kept, the surplus cancelled.
	var lead, armed *Flow
	var at sim.Time
	for _, f := range n.comp {
		eta := sim.Time(f.remaining / f.rate)
		if f.rate <= 0 || math.IsInf(float64(eta), 0) || math.IsNaN(float64(eta)) {
			panic(fmt.Sprintf(
				"flow: degenerate allocation: flow over %q got rate %v with %v bytes remaining (component of %d flows) — refusing to schedule eta %v",
				f.path[0].Name, f.rate, f.remaining, len(n.comp), eta))
		}
		if t := now + eta; lead == nil || t < at {
			lead, at = f, t
		}
		if f.timer.Active() {
			if armed == nil {
				armed = f
			} else {
				f.timer.Cancel()
			}
		}
	}
	if armed != nil && armed != lead {
		// Hand the pending event over; AtInto retargets it where it sits in
		// the heap. The old holder keeps whatever the new lead held — a
		// cancelled event it may yet revive, or nothing live.
		lead.timer, armed.timer = armed.timer, lead.timer
	}
	n.e.AtInto(&lead.timer, at, lead, 0)
}

// fillIncremental runs progressive filling over n.comp using the resources'
// resident scratch. Scan lists are compacted in place (order-preserving, so
// the float operations match fillReference exactly) as flows freeze and
// resources drain.
func (n *Network) fillIncremental() {
	if len(n.comp) == 1 {
		// A lone flow takes the fair share of its tightest resource: the
		// same min(residual/count) the general loop would compute, with
		// every count == 1.
		f := n.comp[0]
		share := math.Inf(1)
		for _, r := range f.path {
			if s := r.residual / float64(r.count); s < share {
				share = s
			}
		}
		f.rate = share
		return
	}
	active := append(n.active[:0], n.comp...)
	extent := active // full extent, for tail-zeroing once the fill is done
	res := n.res
	for len(active) > 0 {
		share := math.Inf(1)
		for _, r := range res {
			if r.count > 0 {
				if s := r.residual / float64(r.count); s < share {
					share = s
				}
			}
		}
		if math.IsInf(share, 1) {
			panic("flow: unfrozen flows but no constraining resource")
		}
		// Freeze every flow crossing a bottleneck resource at the fair
		// share, compacting the active list in place.
		w := 0
		for _, f := range active {
			bottled := false
			for _, r := range f.path {
				if r.residual/float64(r.count) <= share*(1+1e-12) {
					bottled = true
					break
				}
			}
			if !bottled {
				active[w] = f
				w++
				continue
			}
			f.rate = share
			for _, r := range f.path {
				r.residual -= share
				if r.residual < 0 {
					r.residual = 0
				}
				r.count--
			}
		}
		if w == len(active) {
			panic("flow: max-min filling made no progress")
		}
		active = active[:w]
		// Drop drained resources so later rounds scan only live ones.
		rw := 0
		for _, r := range res {
			if r.count > 0 {
				res[rw] = r
				rw++
			}
		}
		res = res[:rw]
	}
	for i := range extent {
		extent[i] = nil // keep capacity, drop the flow references
	}
	n.active = extent[:0]
}

// fillReference is the original from-scratch progressive filler, preserved
// verbatim (per-rebalance map, full-component scans every round) as the
// differential-testing oracle.
func (n *Network) fillReference() {
	comp := n.comp
	type rstate struct {
		residual float64
		count    int
	}
	states := make(map[*Resource]*rstate)
	resOrder := make([]*Resource, 0, 2*len(comp))
	for _, f := range comp {
		for _, r := range f.path {
			st := states[r]
			if st == nil {
				st = &rstate{residual: r.Capacity}
				states[r] = st
				resOrder = append(resOrder, r)
			}
			st.count++
		}
	}
	unfrozen := len(comp)
	for unfrozen > 0 {
		share := math.Inf(1)
		for _, r := range resOrder {
			st := states[r]
			if st.count > 0 {
				if s := st.residual / float64(st.count); s < share {
					share = s
				}
			}
		}
		if math.IsInf(share, 1) {
			panic("flow: unfrozen flows but no constraining resource")
		}
		progress := false
		for _, f := range comp {
			if f.frozen {
				continue
			}
			bottled := false
			for _, r := range f.path {
				st := states[r]
				if st.residual/float64(st.count) <= share*(1+1e-12) {
					bottled = true
					break
				}
			}
			if !bottled {
				continue
			}
			f.frozen = true
			f.rate = share
			progress = true
			for _, r := range f.path {
				st := states[r]
				st.residual -= share
				if st.residual < 0 {
					st.residual = 0
				}
				st.count--
			}
			unfrozen--
		}
		if !progress {
			panic("flow: max-min filling made no progress")
		}
	}
}

// complete finishes a flow: detaches it from its resources, fires its done
// signal, and rebalances whatever it leaves behind.
func (n *Network) complete(f *Flow) {
	if f.finished {
		return
	}
	f.finished = true
	f.remaining = 0
	now := n.e.Now()
	for _, r := range f.path {
		r.remove(f)
		if n.mon != nil && len(r.flows) == 0 {
			// No neighbour left to trigger a rebalance: close the
			// resource's utilization interval here.
			r.stats.note(now, 0)
		}
	}
	if n.mon != nil {
		n.mon.flowDone(float64(now-f.start), f.bytes)
	}
	f.doneSig.Fire(n.e)
	// Freed capacity may speed up neighbours: rebalance each disjoint
	// neighbourhood once. Together they are f's old component minus f, so
	// every flow whose completion was not the armed one is looked at again
	// here. A visit mark newer than the sweep's start means an earlier
	// rebalance of this sweep already collected the flow.
	swept := n.visitGen
	for _, r := range f.path {
		for _, g := range r.flows {
			if g.visit <= swept {
				n.rebalance(g)
			}
		}
	}
	// The component scratch is only rebuilt at the next rebalance; if no
	// neighbour triggered one, it would keep pinning f (same retention
	// pattern as Resource.remove's capacity tail). Scrub f so a completed —
	// or, below, recycled — flow is never reachable through scratch.
	for i, h := range n.comp {
		if h == f {
			n.comp[i] = nil
		}
	}
	// Every external observer has been notified (done callbacks ran inside
	// Fire, before the sweep) and the flow is off all resource lists:
	// recycle the slot.
	if f.pooled {
		n.pool.Put(f)
	}
}
