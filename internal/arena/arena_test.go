package arena

import (
	"testing"
)

type obj struct {
	slot  Slot
	id    int   // assigned by Init, must survive reuse
	buf   []int // per-use state, truncated by Reset
	hooks int   // counts Init invocations on this slot
	note  func() int
}

func newObjPool() (*Pool[obj], *int) {
	next := 0
	return NewPool(Options[obj]{
		Name:      "test.obj",
		ChunkSize: 4,
		Init: func(o *obj) {
			o.id = next
			next++
			o.hooks++
			o.note = func() int { return o.id } // persistent closure, stable slot ptr
		},
		Reset: func(o *obj) { o.buf = o.buf[:0] },
		Slot:  func(o *obj) *Slot { return &o.slot },
	}), &next
}

func TestPoolReusesSlotsWithoutReinit(t *testing.T) {
	p, _ := newObjPool()
	a := p.Get()
	a.buf = append(a.buf, 1, 2, 3)
	id, gen := a.id, a.slot.Gen()
	p.Put(a)
	b := p.Get()
	if b != a {
		t.Fatalf("expected LIFO reuse of the slot")
	}
	if b.hooks != 1 {
		t.Fatalf("Init ran %d times on a reused slot, want 1", b.hooks)
	}
	if b.id != id || b.note() != id {
		t.Fatalf("persistent state lost across reuse: id=%d note=%d want %d", b.id, b.note(), id)
	}
	if len(b.buf) != 0 || cap(b.buf) < 3 {
		t.Fatalf("Reset should truncate in place: len=%d cap=%d", len(b.buf), cap(b.buf))
	}
	if b.slot.Gen() != gen+1 {
		t.Fatalf("generation did not advance on Put: %d -> %d", gen, b.slot.Gen())
	}
}

func TestPoolCountsAndGrowth(t *testing.T) {
	p, made := newObjPool()
	var got []*obj
	for i := 0; i < 9; i++ { // forces three 4-slot slabs
		got = append(got, p.Get())
	}
	if p.Live() != 9 || p.Total() != 12 || *made != 12 {
		t.Fatalf("live=%d total=%d inited=%d, want 9/12/12", p.Live(), p.Total(), *made)
	}
	seen := map[int]bool{}
	for _, o := range got {
		if seen[o.id] {
			t.Fatalf("slot %d handed out twice while live", o.id)
		}
		seen[o.id] = true
	}
	for _, o := range got {
		p.Put(o)
	}
	if p.Live() != 0 {
		t.Fatalf("live=%d after returning everything", p.Live())
	}
}

// Slabs double from 16 slots up to ChunkSize, so a pool that stays small
// never pays Init for a full slab.
func TestPoolGrowsGeometrically(t *testing.T) {
	inited := 0
	p := NewPool(Options[obj]{Name: "test.grow", Init: func(*obj) { inited++ }})
	want := []int{16, 32, 64, 128, 256, 512, 768}
	for _, total := range want {
		for p.Live() < total {
			p.Get()
		}
		if p.Total() != total || inited != total {
			t.Fatalf("%d slots out: %d carved, %d inited, want %d", p.Live(), p.Total(), inited, total)
		}
		p.Get() // one more than the slabs hold: the next slab
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p, _ := newObjPool()
	o := p.Get()
	p.Put(o)
	defer func() {
		if recover() == nil {
			t.Fatalf("double Put did not panic")
		}
	}()
	p.Put(o)
}

func TestHandleCatchesUseAfterFree(t *testing.T) {
	p, _ := newObjPool()
	o := p.Get()
	h := p.Handle(o)
	if !h.Valid() || h.Deref() != o {
		t.Fatalf("fresh handle should deref to its object")
	}
	p.Put(o)
	if h.Valid() {
		t.Fatalf("handle still valid after Put")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("stale Deref did not panic")
		}
	}()
	h.Deref()
}

func TestDebugQuarantinesSlots(t *testing.T) {
	old := Debug
	Debug = true
	defer func() { Debug = old }()
	p, _ := newObjPool()
	o := p.Get()
	p.Put(o)
	for i := 0; i < 8; i++ {
		if p.Get() == o {
			t.Fatalf("debug mode reused a quarantined slot")
		}
	}
}

func TestGetPutSteadyStateDoesNotAllocate(t *testing.T) {
	p, _ := newObjPool()
	warm := make([]*obj, 8)
	for i := range warm {
		warm[i] = p.Get()
	}
	for _, o := range warm {
		p.Put(o)
	}
	allocs := testing.AllocsPerRun(200, func() {
		a, b := p.Get(), p.Get()
		p.Put(b)
		p.Put(a)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocated %.1f per run, want 0", allocs)
	}
}
