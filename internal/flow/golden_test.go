package flow

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/hanrepro/han/internal/sim"
)

// This file pins the flow layer's completion stream bit for bit. Each
// workload below is hashed as the sequence of (id, completion-time bits)
// records in the order the completions were observed, followed by the final
// clock; marker events queued for the same instants as completions are part
// of the stream, so a completion that changed places with an unrelated event
// of its own instant changes the hash. The values were recorded while every
// flow of a component carried its own completion timer, re-armed at every
// rebalance, and are the oracle for arming one completion per component:
// both allocators must reproduce them, and CI runs them a second time under
// HAN_ARENA_DEBUG=1, where no flow slot is ever reused. On a mismatch the
// failure prints the row in table syntax.

// goldenBits is what one workload leaves behind.
type goldenBits struct {
	stream uint64 // FNV-1a of the (id, time bits) records
	end    uint64 // bits of the final clock
	n      int    // records in the stream
}

// goldenRun is the recorder the workloads drive.
type goldenRun struct {
	e   *sim.Engine
	n   *Network
	h   hash.Hash64
	cnt int
	// check, when set, runs after every Start, completion and SetCapacity
	// (arming_test.go's invariant walker). A completion's check is queued
	// for the same instant rather than called from the done callback, which
	// runs before complete has rebalanced what the flow leaves behind; the
	// extra events change no recorded bit.
	check func()
}

// markerBase offsets the ids of marker events away from flow indices.
const markerBase = 1 << 32

func (g *goldenRun) note(id int) {
	var rec [16]byte
	binary.LittleEndian.PutUint64(rec[:8], uint64(id))
	binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(float64(g.e.Now())))
	g.h.Write(rec[:])
	g.cnt++
}

// start launches flow id and records its completion when the done signal
// fires. The callback form keeps the recorder off the flow once it is done,
// as the pooled lifecycle requires.
func (g *goldenRun) start(id int, bytes float64, path ...*Resource) {
	g.n.Start(bytes, path...).Done().OnFire(sim.Func(func() {
		g.note(id)
		if g.check != nil {
			g.e.Schedule(0, g.check)
		}
	}), 0)
	g.checked()
}

func (g *goldenRun) setCapacity(r *Resource, capacity float64) {
	g.n.SetCapacity(r, capacity)
	g.checked()
}

func (g *goldenRun) checked() {
	if g.check != nil {
		g.check()
	}
}

// startWaited is start with a parked process as the observer, so the
// completion queues a resume at its instant.
func (g *goldenRun) startWaited(id int, at sim.Time, bytes float64, path ...*Resource) {
	g.e.SpawnAt(at, "w", func(p *sim.Proc) {
		f := g.n.Start(bytes, path...)
		g.checked()
		p.Wait(f.Done())
		g.note(id)
		g.checked()
	})
}

// mark queues a marker record for time t.
func (g *goldenRun) mark(id int, t sim.Time) {
	g.e.At(t, func() { g.note(markerBase + id) })
}

// runGolden runs one workload to the end and returns what it left behind.
// mkCheck, when not nil, builds the run's check hook over its network before
// the workload starts.
func runGolden(t *testing.T, alloc Allocator, workload func(g *goldenRun), mkCheck func(n *Network) func()) goldenBits {
	t.Helper()
	e := sim.New()
	g := &goldenRun{e: e, n: NewNetwork(e), h: fnv.New64a()}
	g.n.SetAllocator(alloc)
	if mkCheck != nil {
		g.check = mkCheck(g.n)
	}
	workload(g)
	if err := e.Run(); err != nil {
		t.Fatalf("alloc %v: %v", alloc, err)
	}
	return goldenBits{stream: g.h.Sum64(), end: math.Float64bits(float64(e.Now())), n: g.cnt}
}

// goldenSameInstant is the sm-ibcast fragment: k equal flows over one bus
// started at one instant, so they also finish at one instant — every
// completion after the first is armed with eta 0, at == now, and the order
// is the component order alone. Three buses: one whose numbers divide
// exactly, two whose shares round.
func goldenSameInstant(g *goldenRun) {
	exact := g.n.NewResource("exact", 3200)
	third := g.n.NewResource("third", 1e9/3)
	frag := g.n.NewResource("frag", 12.5e9/7)
	g.mark(0, 1) // queued before any flow exists
	g.e.At(0, func() {
		for i := 0; i < 32; i++ {
			g.start(i, 100, exact)
		}
		g.mark(1, 1) // queued after the last start's rebalance
		for i := 0; i < 32; i++ {
			g.start(100+i, 1000, third)
		}
		for i := 0; i < 31; i++ {
			g.start(200+i, 8192, frag)
		}
	})
	g.e.At(0.5, func() { g.mark(2, 1) })
	// A second wave on the exact bus, started from inside the first wave's
	// last completion: starts and zero-eta completions share the instant.
	g.e.At(1, func() {
		for i := 0; i < 32; i++ {
			g.start(300+i, 100, exact)
		}
		g.mark(3, 2)
	})
}

// goldenMergeSplit runs long base flows on ten separate resources and
// bridges them: a bridge's start merges the components of every resource it
// crosses (each with a completion armed), its completion splits them again.
func goldenMergeSplit(g *goldenRun) {
	const k = 10
	res := make([]*Resource, k)
	for i := range res {
		res[i] = g.n.NewResource("r", 100+float64(7*i))
		g.start(i, float64(1000*(i+1)), res[i])
	}
	id := k
	for i := 0; i+1 < k; i++ { // two-hop bridges, neighbours merged pairwise
		i, me := i, id
		g.e.At(1+0.1*sim.Time(i), func() { g.start(me, float64(5+3*i), res[i], res[i+1]) })
		id++
	}
	for i := 0; i+2 < k; i += 2 { // three-hop bridges outliving some base flows
		i, me := i, id
		g.e.At(3+0.25*sim.Time(i), func() { g.start(me, float64(900+100*i), res[i+2], res[i], res[i+1]) })
		id++
	}
	// One flow across six resources merges six components at once; a second
	// across the other four joins while it runs, then the two are bridged.
	g.e.At(8, func() { g.start(100, 64, res[0], res[1], res[2], res[3], res[4], res[5]) })
	g.e.At(8.125, func() { g.start(101, 4096, res[9], res[8], res[7], res[6]) })
	g.e.At(8.25, func() { g.start(102, 1, res[5], res[6]) })
	for i := 0; i < 8; i++ {
		g.mark(i, sim.Time(i+1))
	}
}

// goldenSetCapacity changes capacities mid-flight: on a resource three flows
// share (one of them crossing a second resource), on a resource a lone flow
// holds, twice within one instant, at a completion's own instant, and on an
// idle resource.
func goldenSetCapacity(g *goldenRun) {
	shared := g.n.NewResource("shared", 300)
	side := g.n.NewResource("side", 80)
	lone := g.n.NewResource("lone", 100)
	idle := g.n.NewResource("idle", 5)
	g.start(0, 300, shared)
	g.start(1, 450, shared)
	g.start(2, 200, shared, side)
	g.start(3, 60, side)
	g.start(4, 100, lone)
	g.e.At(0.25, func() { g.setCapacity(shared, 75) })
	g.e.At(0.5, func() {
		g.setCapacity(lone, 10)
		g.setCapacity(lone, 400)
		g.setCapacity(idle, 50)
	})
	g.e.At(1.25, func() { g.setCapacity(shared, 2400) })
	g.e.At(1.5, func() { g.setCapacity(side, 1e-3) })
	g.e.At(2, func() {
		g.setCapacity(side, 1e6)
		g.start(5, 10, idle)
	})
	// Flow 6 finishes at t=4 exactly; the capacity under its neighbour
	// changes at that instant, from an event queued before it started.
	g.e.At(4, func() { g.setCapacity(lone, 1) })
	g.e.At(3, func() {
		g.start(6, 200, lone)
		g.start(7, 600, lone)
	})
}

// goldenZeroSize mixes zero- and negative-size flows, which complete inside
// Start without touching a resource, into components that are busy at the
// same instants.
func goldenZeroSize(g *goldenRun) {
	r := g.n.NewResource("r", 100)
	q := g.n.NewResource("q", 50)
	g.start(0, 0, r)
	g.start(1, 100, r)
	g.start(2, -1, r, q)
	g.start(3, 100, r, q)
	g.start(4, 0)
	g.e.At(2, func() {
		g.start(5, 0, q)
		g.start(6, 50, q)
		g.start(7, 0, r)
	})
	g.startWaited(8, 2, 0, r)
	g.startWaited(9, 2, 25, r)
}

// goldenSlotReuse has completion events outlive their flows' use for them.
// Two long flows are armed far in the future, a bridge merges their
// components (one armed event more than the merged component needs), the
// capacities are then raised so both finish early, and new flows take over
// their pool slots while whatever was queued for t=1000 and t=2000 is still
// in the heap; those instants pass with the new flows in flight. Each round
// permutes sizes so a different flow leads the merged component.
func goldenSlotReuse(g *goldenRun) {
	for round := 0; round < 6; round++ {
		round := round
		base := sim.Time(4000 * round)
		r1 := g.n.NewResource("r1", 100)
		r2 := g.n.NewResource("r2", 100)
		r3 := g.n.NewResource("r3", 1)
		sizes := [3]float64{1e5, 2e5, 3e5}
		a, b, c := sizes[round%3], sizes[(round+1)%3], sizes[(round+2)%3]
		if round >= 3 {
			c = 10 // a short bridge: it leads, and its completion splits
		}
		id := 10 * round
		g.e.At(base, func() {
			g.start(id, a, r1)
			g.start(id+1, b, r2)
		})
		g.e.At(base+1, func() { g.start(id+2, c, r1, r2) })
		g.e.At(base+2, func() {
			g.setCapacity(r1, 1e7)
			g.setCapacity(r2, 1e7)
		})
		g.e.At(base+3, func() {
			for i := 0; i < 4; i++ {
				g.start(id+3+i, float64(3000+i), r3)
			}
		})
		g.mark(2*round, base+1000)
		g.mark(2*round+1, base+2000)
	}
}

// goldenChurn is the mixed workload: 12 000 flows over 24 resources, paths
// of one to three hops, same-instant waves and staggered arrivals, one flow
// in sixteen of size zero, one in eight observed by a parked process, and a
// capacity change every 40 flows.
func goldenChurn(g *goldenRun) {
	const (
		nRes   = 24
		nFlows = 12000
		span   = 24000 // seconds the arrivals spread over: the resources run ~20 % busy
	)
	rng := rand.New(rand.NewSource(18))
	res := make([]*Resource, nRes)
	for i := range res {
		res[i] = g.n.NewResource("r", 10+rng.Float64()*1000)
	}
	for i := 0; i < nFlows; i++ {
		i := i
		perm := rng.Perm(nRes)
		path := make([]*Resource, 1+rng.Intn(3))
		for j := range path {
			path[j] = res[perm[j]]
		}
		bytes := 1 + rng.Float64()*5000
		if rng.Intn(16) == 0 {
			bytes = 0
		}
		var at sim.Time
		if rng.Intn(3) == 0 {
			at = sim.Time(rng.Intn(span)) // integer instants collide
		} else {
			at = sim.Time(rng.Float64() * span)
		}
		if i%8 == 0 {
			g.startWaited(i, at, bytes, path...)
		} else {
			g.e.At(at, func() { g.start(i, bytes, path...) })
		}
		if i%40 == 0 {
			r, c := res[rng.Intn(nRes)], 10+rng.Float64()*1000
			g.e.At(sim.Time(rng.Intn(span)), func() { g.setCapacity(r, c) })
		}
	}
	for i := 0; i < span; i += 400 {
		g.mark(i, sim.Time(i))
	}
}

var flowGoldens = []struct {
	name     string
	workload func(g *goldenRun)
	want     goldenBits
}{
	{"sameInstant", goldenSameInstant, goldenBits{0x75237879b6add250, 0x4000000000000000, 131}},
	{"mergeSplit", goldenMergeSplit, goldenBits{0xd2ae841b5de6f409, 0x40588ad12073615a, 34}},
	{"setCapacity", goldenSetCapacity, goldenBits{0x014c10f733147f7b, 0x4079400000000000, 8}},
	{"zeroSize", goldenZeroSize, goldenBits{0x47bcbe3c4eafda1e, 0x4008000000000000, 10}},
	{"slotReuse", goldenSlotReuse, goldenBits{0x87a9b6e9423c4d97, 0x40df424000000000, 54}},
	{"churn", goldenChurn, goldenBits{0x590d0582f6d79b73, 0x40d9fe09a67a23c0, 12060}},
}

func TestGoldenFlowCompletionBits(t *testing.T) {
	for _, row := range flowGoldens {
		for _, alloc := range []Allocator{Incremental, Reference} {
			if got := runGolden(t, alloc, row.workload, nil); got != row.want {
				t.Errorf("%s (allocator %d) changed bits; row is now\n\tgoldenBits{%#016x, %#016x, %d}",
					row.name, alloc, got.stream, got.end, got.n)
			}
		}
	}
}
