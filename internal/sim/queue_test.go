package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file holds the event queue to its definition: dispatch in (t, seq)
// order. The oracle is a slice of the pending events kept sorted by (t, seq);
// the engine is driven through its public timer API and must dispatch, one
// event at a time, exactly what the front of that slice says, while its
// heap of instants, their FIFOs and the newest-instant table stay
// consistent.

// oracleEvent is one queued event as the oracle sees it.
type oracleEvent struct {
	t         Time
	seq       uint64
	id        int
	cancelled bool
	queued    bool
}

// queueModel drives an engine and the oracle side by side.
type queueModel struct {
	tb      testing.TB
	e       *Engine
	pending []*oracleEvent // queued events, sorted by (t, seq)
	seq     uint64         // mirrors the engine's sequence counter
	nextID  int
	fired   int
	shots   []*Timer
	mirror  []*oracleEvent // per shot
	timers  []Timer        // long-lived, rearmed through AtInto
	tmirror []*oracleEvent
	handler []Func
	steps   int
}

func newQueueModel(tb testing.TB, rearmable int) *queueModel {
	m := &queueModel{tb: tb, e: New(), timers: make([]Timer, rearmable), tmirror: make([]*oracleEvent, rearmable)}
	for i := 0; i < rearmable; i++ {
		id := -1 - i // long-lived timers report negative ids
		m.handler = append(m.handler, Func(func() { m.fired = id }))
	}
	return m
}

func (m *queueModel) insert(ev *oracleEvent) {
	ev.seq, ev.queued = m.seq, true
	m.seq++
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.t > ev.t || (p.t == ev.t && p.seq > ev.seq)
	})
	m.pending = append(m.pending, nil)
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = ev
}

func (m *queueModel) remove(ev *oracleEvent) {
	for i, p := range m.pending {
		if p == ev {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			ev.queued = false
			return
		}
	}
	m.tb.Fatalf("oracle lost event %d", ev.id)
}

// at schedules a fresh one-shot.
func (m *queueModel) at(t Time) {
	m.nextID++
	id := m.nextID
	m.shots = append(m.shots, m.e.At(t, func() { m.fired = id }))
	ev := &oracleEvent{t: t, id: id}
	m.mirror = append(m.mirror, ev)
	m.insert(ev)
}

// rearm retargets long-lived timer i: in place if its event is still queued.
func (m *queueModel) rearm(i int, t Time) {
	m.e.AtInto(&m.timers[i], t, m.handler[i], 0)
	if ev := m.tmirror[i]; ev != nil && ev.queued {
		m.remove(ev)
		ev.t, ev.cancelled = t, false
		m.insert(ev)
		return
	}
	m.tmirror[i] = &oracleEvent{t: t, id: -1 - i}
	m.insert(m.tmirror[i])
}

func (m *queueModel) cancelShot(k int) {
	if len(m.shots) == 0 {
		return
	}
	k %= len(m.shots)
	m.shots[k].Cancel()
	m.mirror[k].cancelled = true
	last := len(m.shots) - 1
	m.shots[k], m.mirror[k] = m.shots[last], m.mirror[last]
	m.shots, m.mirror = m.shots[:last], m.mirror[:last]
}

func (m *queueModel) cancelTimer(i int) {
	m.timers[i].Cancel()
	if ev := m.tmirror[i]; ev != nil && ev.queued {
		ev.cancelled = true
	}
}

// dispatch runs exactly one live event on the engine and takes the matching
// one off the front of the oracle, dropping cancelled ones on both. It
// reports false when neither has anything left.
func (m *queueModel) dispatch() bool {
	m.steps++
	var want *oracleEvent
	for len(m.pending) > 0 {
		ev := m.pending[0]
		m.pending = m.pending[1:]
		ev.queued = false
		if !ev.cancelled {
			want = ev
			break
		}
	}
	nt, ok := m.e.NextEventTime()
	if want == nil {
		if ok {
			m.tb.Fatalf("step %d: engine has an event at %v, oracle is empty", m.steps, nt)
		}
		return false
	}
	if !ok || nt != want.t {
		m.tb.Fatalf("step %d: next event time = %v (ok=%v), oracle says %v", m.steps, nt, ok, want.t)
	}
	m.fired = 0
	m.e.MaxEvents = m.e.dispatched + 1
	if err := m.e.Run(); err != nil {
		if _, budget := err.(*ErrEventBudget); !budget {
			m.tb.Fatalf("step %d: Run: %v", m.steps, err)
		}
	}
	if m.fired != want.id || m.e.Now() != want.t {
		m.tb.Fatalf("step %d: dispatched id %d at %v, oracle says id %d at %v", m.steps, m.fired, m.e.Now(), want.id, want.t)
	}
	return true
}

// check asserts the queue's structure: the heap of instants is ordered and
// knows its positions, every instant but the root holds events, each FIFO
// is linked both ways in sequence order at its instant's time, the
// newest-instant table points only at queued instants in their own slots,
// and the queue holds as many events as the oracle.
func (m *queueModel) check() {
	e, queued := m.e, 0
	for i, in := range e.instants {
		if in.idx != i {
			m.tb.Fatalf("step %d: instants[%d].idx = %d", m.steps, i, in.idx)
		}
		if i > 0 && in.before(e.instants[(i-1)/2]) {
			m.tb.Fatalf("step %d: instants[%d] sorts before its parent", m.steps, i)
		}
		if i > 0 && in.head == nil {
			m.tb.Fatalf("step %d: instants[%d] at %v is empty and not the root", m.steps, i, in.t)
		}
		var prev *event
		for ev := in.head; ev != nil; prev, ev = ev, ev.next {
			if ev.in != in || ev.prev != prev || ev.t != in.t || ev.seq < in.seq || (prev != nil && ev.seq <= prev.seq) {
				m.tb.Fatalf("step %d: instant at %v (seq %d) holds a misplaced event at %v (seq %d)", m.steps, in.t, in.seq, ev.t, ev.seq)
			}
			queued++
		}
		if in.tail != prev {
			m.tb.Fatalf("step %d: instant at %v ends at %p, its tail is %p", m.steps, in.t, prev, in.tail)
		}
	}
	for s, in := range e.newest {
		if in == nil {
			continue
		}
		if in.idx >= len(e.instants) || e.instants[in.idx] != in || newestSlot(in.t) != uint(s) {
			m.tb.Fatalf("step %d: newest slot %d points at an instant at %v that is not queued there", m.steps, s, in.t)
		}
	}
	if queued != len(m.pending) {
		m.tb.Fatalf("step %d: the queue holds %d events, the oracle %d", m.steps, queued, len(m.pending))
	}
}

// drain dispatches everything left and checks nothing is.
func (m *queueModel) drain() {
	for m.dispatch() {
	}
	m.check()
	if len(m.e.instants) != 0 {
		m.tb.Fatalf("the engine still holds %d instants after the oracle drained", len(m.e.instants))
	}
}

// collidingTimes returns n grid times, ascending, that all hash to one slot of
// the newest-instant table: pending together, each push of one of them
// finds the slot taken by another and opens a new instant of its time.
func collidingTimes(grid Time, n int) []Time {
	var out []Time
	slot := newestSlot(grid)
	for k := 1; len(out) < n; k++ {
		if t := Time(k) * grid; newestSlot(t) == slot {
			out = append(out, t)
		}
	}
	return out
}

// queueTimes picks target times: the current instant, a few shared grid
// instants just ahead, and times from a set that collide in the newest-instant
// table.
type queueTimes struct {
	grid      Time
	colliding []Time
}

func (q queueTimes) pick(now Time, r int) Time {
	switch r % 3 {
	case 0:
		return now
	case 1:
		return Time(math.Floor(float64(now/q.grid))+float64(1+r/3%16)) * q.grid
	}
	i := sort.Search(len(q.colliding), func(i int) bool { return q.colliding[i] >= now })
	if i += r / 3 % 4; i < len(q.colliding) {
		return q.colliding[i]
	}
	return now
}

// TestEventQueueMatchesSortOracle drives the engine through a long random mix
// of At, AtInto retargets (to earlier, later and current instants), cancels
// and single-event dispatches over few distinct times — the current instant,
// so instants drain and reopen, a shared grid, and times that collide in the
// newest-instant table — and holds every dispatch to the oracle.
func TestEventQueueMatchesSortOracle(t *testing.T) {
	const (
		steps     = 200_000
		rearmable = 256
	)
	rng := rand.New(rand.NewSource(1))
	m := newQueueModel(t, rearmable)
	times := queueTimes{grid: 1e-3, colliding: collidingTimes(1e-3, 64)}
	negZero := Time(math.Copysign(0, -1))
	for i := 0; i < 8; i++ { // -0 and +0 are one instant
		if i%2 == 0 {
			m.at(negZero)
		} else {
			m.at(0)
		}
	}
	for step := 0; step < steps; step++ {
		when := times.pick(m.e.Now(), rng.Intn(1<<20))
		switch r := rng.Intn(100); {
		case r < 32:
			m.at(when)
		case r < 57:
			m.rearm(rng.Intn(rearmable), when)
		case r < 65:
			m.cancelShot(rng.Intn(1 << 20))
		case r < 70:
			m.cancelTimer(rng.Intn(rearmable))
		default:
			m.dispatch()
		}
		if step%1024 == 0 {
			m.check()
		}
	}
	m.drain()
}

// FuzzEventQueue runs the oracle over an arbitrary program: each byte pair
// is one operation and its argument.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 6, 0, 3, 5, 3, 1, 7, 0, 0, 2, 6, 6})
	f.Add([]byte{3, 1, 3, 2, 3, 4, 0, 2, 0, 5, 6, 0, 3, 2, 4, 0, 5, 2, 7, 7})
	// A rearm that empties the root instant, then an earlier instant that
	// opens above it: the emptied instant must not sink into the heap.
	f.Add([]byte("0070702B220"))
	times := queueTimes{grid: 1e-3, colliding: collidingTimes(1e-3, 16)}
	f.Fuzz(func(t *testing.T, prog []byte) {
		const rearmable = 8
		m := newQueueModel(t, rearmable)
		for i := 0; i+1 < len(prog); i += 2 {
			op, arg := prog[i]%8, int(prog[i+1])
			switch op {
			case 0, 1:
				m.at(times.pick(m.e.Now(), arg))
			case 2:
				m.rearm(arg%rearmable, times.pick(m.e.Now(), arg/rearmable))
			case 3:
				m.rearm(arg%rearmable, m.e.Now())
			case 4:
				m.cancelShot(arg)
			case 5:
				m.cancelTimer(arg % rearmable)
			default:
				m.dispatch()
			}
			m.check()
		}
		m.drain()
	})
}
