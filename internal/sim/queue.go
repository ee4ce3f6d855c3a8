package sim

import "math"

// The event queue holds events by instant: a binary min-heap of the distinct
// times that have events queued, each time a FIFO of its events linked
// through the event records. Most pushes land on an instant that already has
// events queued (88 % in a 4096-rank Bcast, where ~1 800 queued events share
// ~180 instants), so they append to a list, and a pop takes the head of
// the top instant without touching the heap until that instant empties.
//
// The dispatch order is (t, seq) by construction. An event joins the newest
// instant opened for its time, found through a direct-mapped table; when the
// table's slot holds another time, or nothing, a new instant opens, keyed by
// its time and the sequence number of the event that opened it. Sequence
// numbers only grow, so each FIFO is in seq order, every event of an older
// instant of the same time precedes every event of a newer one, and the
// heap's key orders equal times by age.

// instant is one distinct time in the queue and the events queued for it,
// oldest first.
type instant struct {
	t Time
	// seq is the sequence number of the first event the instant received:
	// its place among instants of the same time.
	seq        uint64
	head, tail *event
	// idx is the instant's position in the heap; next links a spare record.
	idx  int
	next *instant
}

func (a *instant) before(b *instant) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// newestBits sizes the newest-instant table at 1<<newestBits slots, a few
// times the distinct instants a 4096-rank collective keeps queued.
const newestBits = 10

// newestSlot hashes a time's bits into the newest-instant table (Fibonacci
// hashing: the product's top bits depend on every bit of t). -0 and +0 are
// one time, so they share a slot.
func newestSlot(t Time) uint {
	b := math.Float64bits(float64(t))
	if t == 0 {
		b = 0
	}
	return uint((b * 0x9e3779b97f4a7c15) >> (64 - newestBits))
}

// push queues ev at the next sequence number, at the tail of the newest
// instant of its time.
func (e *Engine) push(ev *event) {
	ev.seq = e.seq
	e.seq++
	slot := &e.newest[newestSlot(ev.t)]
	in := *slot
	if in == nil || in.t != ev.t {
		in = e.open(ev.t, ev.seq)
		*slot = in
	}
	ev.in = in
	if ev.prev = in.tail; ev.prev != nil {
		ev.prev.next = ev
	} else {
		in.head = ev
	}
	in.tail = ev
}

// open puts a new, empty instant on the heap.
func (e *Engine) open(t Time, seq uint64) *instant {
	if e.spare == nil {
		e.carve()
	}
	in := e.spare
	e.spare = in.next
	in.t, in.seq, in.next = t, seq, nil
	in.idx = len(e.instants)
	e.instants = append(e.instants, in)
	e.up(in.idx)
	return in
}

// top returns the earliest queued event without taking it out, or nil if
// none is queued. The only instant that may be empty is the heap's root,
// left there by pop so that events queued at the instant being dispatched
// join it instead of opening another; top closes it.
func (e *Engine) top() *event {
	for len(e.instants) > 0 {
		if ev := e.instants[0].head; ev != nil {
			return ev
		}
		e.close(0)
	}
	return nil
}

// pop takes ev, the event top returned, out of the queue to dispatch or
// discard it. Its instant stays on the heap even if emptied (see top).
func (e *Engine) pop(ev *event) {
	in := ev.in
	if in.head = ev.next; in.head != nil {
		in.head.prev = nil
	} else {
		in.tail = nil
	}
	ev.in, ev.next = nil, nil
}

// unlink takes a queued event out of the queue wherever it sits, for AtInto
// to queue it again, and closes its instant if that leaves it empty.
func (e *Engine) unlink(ev *event) {
	in := ev.in
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		in.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		in.tail = ev.prev
	}
	ev.in, ev.prev, ev.next = nil, nil, nil
	if in.head == nil {
		e.close(in.idx)
	}
}

// close removes the empty instant at heap position i, drops it from the
// newest-instant table if it is there, and keeps its record for reuse.
func (e *Engine) close(i int) {
	h := e.instants
	in := h[i]
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		h[i].idx = i
	}
	h[n] = nil
	e.instants = h[:n]
	if i != n && !e.down(i) {
		e.up(i)
	}
	if slot := &e.newest[newestSlot(in.t)]; *slot == in {
		*slot = nil
	}
	in.next = e.spare
	e.spare = in
}

func (e *Engine) up(i int) {
	h := e.instants
	in := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		pi := h[parent]
		if !in.before(pi) {
			break
		}
		h[i] = pi
		pi.idx = i
		i = parent
	}
	h[i] = in
	in.idx = i
}

// down sifts the instant at i towards the leaves and reports whether it moved.
func (e *Engine) down(i int) bool {
	h := e.instants
	in := h[i]
	start, n := i, len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		ci := h[child]
		if r := child + 1; r < n && h[r].before(ci) {
			child, ci = r, h[r]
		}
		if !ci.before(in) {
			break
		}
		h[i] = ci
		ci.idx = i
		i = child
	}
	h[i] = in
	in.idx = i
	return i > start
}
