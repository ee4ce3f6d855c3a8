package arena

import (
	"fmt"
	"os"
)

// Debug enables use-after-free checking: Put quarantines slots instead of
// recycling them, so a stale pointer reaches a slot that is reset and checked
// in, never a reincarnation of it. It defaults to the HAN_ARENA_DEBUG
// environment variable and costs nothing when false.
var Debug = os.Getenv("HAN_ARENA_DEBUG") != ""

// Slot is the embeddable per-object header that makes a pooled type
// double-free-checkable: it records whether the object is checked out.
// Embedding it is optional; pools whose Options.Slot accessor is nil skip
// the check.
type Slot struct {
	live bool
}

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
	// double-free checking for this pool.
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
// Debug the slot is reset but quarantined — never reused — so a stale
// pointer cannot alias a reincarnation.
func (p *Pool[T]) Put(x *T) {
	p.Retire(x)
	if !Debug {
		p.free = append(p.free, x)
	}
}

// Retire is Put for a slot somebody may still point to: it is checked in —
// reset, no longer counted live — and quarantined, as
// every slot is under Debug: the slab keeps it, nothing reuses it.
func (p *Pool[T]) Retire(x *T) {
	if x == nil {
		panic(fmt.Sprintf("arena: %s: Put(nil)", p.opt.Name))
	}
	if p.opt.Slot != nil {
		s := p.opt.Slot(x)
		if !s.live {
			panic(fmt.Sprintf("arena: %s: double free", p.opt.Name))
		}
		s.live = false
	}
	if p.opt.Reset != nil {
		p.opt.Reset(x)
	}
	p.live--
}

// Live returns the number of checked-out slots.
func (p *Pool[T]) Live() int { return p.live }

// Total returns the number of slots ever carved (live + free +
// quarantined). No binary reads it: it is the test seam that bounds how
// many slots a recycling pool carves (flow's TestFlowPoolRecycles, coll's
// TestProcStorageIsReusedOnlyAfterTheEngineIsDone and
// TestKilledHelperStorageIsNeverReused).
func (p *Pool[T]) Total() int { return p.total }
