package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// orderWorkload is a seeded engine program whose every dispatch decides what
// is queued next: each callback and each Step logs its id and the clock, then
// draws from one random stream to burst events onto the current instant,
// schedule one-shots on a coarse grid of shared instants (and now and then
// off it), rearm long-lived timers to the current instant, to an earlier one
// and to a later one, and cancel. Any change to the dispatch order changes
// which draw meets which event, so the log's hash pins the order itself.
type orderWorkload struct {
	e      *Engine
	rng    *rand.Rand
	h      hash.Hash64
	n      int // dispatches logged
	budget int // events the program may still queue
	nextID int
	timers [24]Timer
	shots  []*Timer
}

// orderGrid is the spacing of the shared instants.
const orderGrid = 1e-7

func newOrderWorkload(seed int64, budget int) *orderWorkload {
	return &orderWorkload{e: New(), rng: rand.New(rand.NewSource(seed)), h: fnv.New64a(), budget: budget}
}

func (w *orderWorkload) log(id int) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(id))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(float64(w.e.Now())))
	w.h.Write(b[:])
	w.n++
}

func (w *orderWorkload) id() int {
	w.nextID++
	return w.nextID
}

// gridAfter is the k-th grid instant after now's cell: every caller in the
// same cell computes the same Time for the same k.
func (w *orderWorkload) gridAfter(k int) Time {
	return Time(math.Floor(float64(w.e.Now())/orderGrid)+float64(k)) * orderGrid
}

// when is a target instant: mostly shared grid instants, sometimes the
// current one, sometimes a time no other event is likely to share.
func (w *orderWorkload) when() Time {
	switch r := w.rng.Intn(8); {
	case r == 0:
		return w.e.Now()
	case r == 1:
		return w.e.Now() + Time(w.rng.Float64())*8*orderGrid
	default:
		return w.gridAfter(1 + w.rng.Intn(6))
	}
}

func (w *orderWorkload) Handle(op int) {
	w.log(op)
	w.act()
	w.act()
}

// act queues, rearms or cancels one thing.
func (w *orderWorkload) act() {
	if w.budget <= 0 {
		return
	}
	now := w.e.Now()
	switch r := w.rng.Intn(12); {
	case r < 2: // a burst on the current instant
		for k := 1 + w.rng.Intn(3); k > 0; k-- {
			w.budget--
			w.e.Call(0, w, w.id())
		}
	case r < 4: // a cancellable one-shot
		w.budget--
		id := w.id()
		w.shots = append(w.shots, w.e.At(w.when(), func() { w.Handle(id) }))
	case r < 5: // a plain continuation
		w.budget--
		w.e.Call(w.when()-now, w, w.id())
	case r < 9: // rearm a long-lived timer
		tm := &w.timers[w.rng.Intn(len(w.timers))]
		var at Time
		switch w.rng.Intn(3) {
		case 0: // the current instant
			at = now
		case 1: // earlier than where it sits, if it sits anywhere later than now
			at = now
			if g := w.gridAfter(1); tm.Active() && g < tm.When() {
				at = g
			}
		default: // later
			at = max(tm.When(), now) + Time(1+w.rng.Intn(3))*orderGrid
		}
		w.budget--
		w.e.AtInto(tm, at, w, w.id())
	case r < 11: // cancel a one-shot
		if len(w.shots) > 0 {
			k := w.rng.Intn(len(w.shots))
			w.shots[k].Cancel()
			w.shots[k] = w.shots[len(w.shots)-1]
			w.shots = w.shots[:len(w.shots)-1]
		}
	default: // cancel a long-lived timer
		w.timers[w.rng.Intn(len(w.timers))].Cancel()
	}
}

// orderSleeper is a step-driven process of the workload: its start and
// resume events share the instants the callbacks use.
type orderSleeper struct {
	w    *orderWorkload
	id   int
	left int
}

func (s *orderSleeper) Step(p *Proc) bool {
	s.w.log(-s.id)
	s.w.act()
	if s.left--; s.left < 0 {
		return true
	}
	p.StepSleep(s.w.gridAfter(1+s.w.rng.Intn(4)) - p.Now())
	return false
}

func (s *orderSleeper) Unwind(*Proc) {}

// TestGoldenDispatchOrder runs the workload through a series of RunUntil
// windows, then drains it with Run, and holds the hash of its dispatch log
// — (id, clock bits) per dispatch — to the value recorded before the event
// queue was restructured. The queue may change; the order it dispatches in
// may not.
func TestGoldenDispatchOrder(t *testing.T) {
	const (
		wantHash       = 0x099180866606d7a0
		wantDispatches = 38776
	)
	w := newOrderWorkload(50, 60_000)
	procs := make([]Proc, 8)
	for i := range procs {
		w.e.SpawnStep(&procs[i], &orderSleeper{w: w, id: i + 1, left: 200 + 50*i})
	}
	for i := 0; i < 16; i++ {
		w.budget--
		w.e.Call(w.gridAfter(i%5)-w.e.Now(), w, w.id())
	}
	for limit := Time(40 * orderGrid); ; limit += 40 * orderGrid {
		if err := w.e.RunUntil(limit); err != nil {
			t.Fatal(err)
		}
		if _, ok := w.e.NextEventTime(); !ok {
			break
		}
	}
	if err := w.e.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d dispatches, %d rearms, clock %v", w.n, w.e.Rearms(), w.e.Now())
	if got := w.h.Sum64(); got != wantHash || w.n != wantDispatches {
		t.Errorf("dispatch log hash %#016x over %d dispatches, want %#016x over %d", got, w.n, uint64(wantHash), wantDispatches)
	}
}
