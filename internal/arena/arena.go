package arena

import (
	"fmt"
	"os"
)

// Debug enables use-after-free checking: Put quarantines slots instead of
// recycling them, so any stale pointer dereference hits a slot whose
// generation has moved on and whose contents are reset. It defaults to the
// HAN_ARENA_DEBUG environment variable and costs nothing when false.
var Debug = os.Getenv("HAN_ARENA_DEBUG") != ""

// Slot is the embeddable per-object header that makes a pooled type
// generation-checkable. Embedding it is optional; pools whose Options.Slot
// accessor is nil skip the checks.
type Slot struct {
	gen  uint32
	live bool
}

// Gen returns the slot's reuse generation: it increments on every Put, so
// a Handle taken in one lifetime cannot silently alias the next.
func (s *Slot) Gen() uint32 { return s.gen }

// Live reports whether the slot is currently checked out of its pool.
func (s *Slot) Live() bool { return s.live }

// Options configures a Pool.
type Options[T any] struct {
	// Name labels the pool in panics and stats.
	Name string
	// ChunkSize is the largest number of slots carved per slab (default
	// 256). A pool's first slabs are smaller: see grow.
	ChunkSize int
	// Init runs exactly once per slot, when its slab is carved: wire the
	// slot to its owner here.
	Init func(*T)
	// Reset runs on every Put and must clear per-use state in place.
	Reset func(*T)
	// Slot returns the object's embedded Slot header; nil disables
	// generation/double-free checking for this pool.
	Slot func(*T) *Slot
}

// Pool is a typed slab allocator with a freelist. The zero value is not
// usable; create pools with NewPool.
type Pool[T any] struct {
	opt   Options[T]
	free  []*T
	live  int
	total int
}

// NewPool returns an empty pool; no slab is carved until the first Get.
func NewPool[T any](opt Options[T]) *Pool[T] {
	if opt.ChunkSize <= 0 {
		opt.ChunkSize = 256
	}
	return &Pool[T]{opt: opt}
}

// Get checks a slot out of the pool, carving a new slab when the freelist
// is empty. The returned object is either freshly Init-ed or previously
// Reset; either way its per-use state is zero.
func (p *Pool[T]) Get() *T {
	n := len(p.free)
	if n == 0 {
		p.grow()
		n = len(p.free)
	}
	x := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.live++
	if p.opt.Slot != nil {
		p.opt.Slot(x).live = true
	}
	return x
}

// firstChunk is the size of a pool's first slab.
const firstChunk = 16

// grow carves a slab as large as everything carved so far, between
// firstChunk and ChunkSize slots: a pool that stays small — most pools of a
// 32-rank world do — pays Init for the slots it uses, not for a full slab,
// and one that grows large reaches full slabs in a few doublings.
func (p *Pool[T]) grow() {
	chunk := make([]T, min(max(p.total, firstChunk), p.opt.ChunkSize))
	p.total += len(chunk)
	// Push in reverse so Get hands slots out in slab order.
	for i := len(chunk) - 1; i >= 0; i-- {
		x := &chunk[i]
		if p.opt.Init != nil {
			p.opt.Init(x)
		}
		p.free = append(p.free, x)
	}
}

// Put returns a slot to the pool. The caller must hold the only remaining
// reference. Double-Put panics when the pool has a Slot accessor. Under
// Debug the slot is reset and generation-bumped but quarantined — never
// reused — so stale pointers and Handles keep detecting their staleness.
func (p *Pool[T]) Put(x *T) {
	p.Retire(x)
	if !Debug {
		p.free = append(p.free, x)
	}
}

// Retire is Put for a slot somebody may still point to: it is checked in —
// reset, generation-bumped, no longer counted live — and quarantined, as
// every slot is under Debug: the slab keeps it, nothing reuses it.
func (p *Pool[T]) Retire(x *T) {
	if x == nil {
		panic(fmt.Sprintf("arena: %s: Put(nil)", p.opt.Name))
	}
	if p.opt.Slot != nil {
		s := p.opt.Slot(x)
		if !s.live {
			panic(fmt.Sprintf("arena: %s: double free (slot gen %d)", p.opt.Name, s.gen))
		}
		s.live = false
		s.gen++
	}
	if p.opt.Reset != nil {
		p.opt.Reset(x)
	}
	p.live--
}

// Live returns the number of checked-out slots.
func (p *Pool[T]) Live() int { return p.live }

// Total returns the number of slots ever carved (live + free +
// quarantined).
func (p *Pool[T]) Total() int { return p.total }

// Handle is a generation-tagged reference to a pooled object. Deref
// panics once the object has been Put, catching use-after-free at the
// first touch instead of corrupting a reincarnation.
type Handle[T any] struct {
	p   *T
	s   *Slot
	gen uint32
}

// Handle tags x with its current generation. The pool must have a Slot
// accessor.
func (p *Pool[T]) Handle(x *T) Handle[T] {
	if p.opt.Slot == nil {
		panic(fmt.Sprintf("arena: %s: Handle on a pool without a Slot accessor", p.opt.Name))
	}
	s := p.opt.Slot(x)
	return Handle[T]{p: x, s: s, gen: s.gen}
}

// Deref returns the referenced object, panicking if it has been returned
// to the pool since the handle was taken.
func (h Handle[T]) Deref() *T {
	if h.s == nil {
		panic("arena: Deref of zero Handle")
	}
	if h.s.gen != h.gen || !h.s.live {
		panic(fmt.Sprintf("arena: stale handle: object recycled (handle gen %d, slot gen %d, live %v)",
			h.gen, h.s.gen, h.s.live))
	}
	return h.p
}

// Valid reports whether Deref would succeed.
func (h Handle[T]) Valid() bool {
	return h.s != nil && h.s.gen == h.gen && h.s.live
}
