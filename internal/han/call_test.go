package han

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// These tests drive a collective call (Call) from ranks that have no
// goroutine: the call is a phase of the rank's own routine.

// callLoop is a rank routine: left broadcasts back to back, each counted in
// *through when the rank is out of it.
type callLoop struct {
	h       *HAN
	p       *mpi.Proc
	buf     mpi.Buf
	cfg     Config
	left    int
	call    *Call
	through *int
	mark    func() // called after each count
	errs    []error
	unwinds *int
}

func (l *callLoop) Step(sp *sim.Proc) bool {
	for ; l.left > 0; l.left-- {
		if l.call == nil {
			l.call = l.h.Start(l.p, coll.Bcast, mpi.Buf{}, l.buf, mpi.OpSum, mpi.Byte, 0, l.cfg)
		}
		if !l.call.Step(sp) {
			return false
		}
		if l.errs != nil {
			l.errs[l.p.Rank] = l.call.Err()
		}
		if l.call = nil; l.through != nil {
			*l.through++
		}
		if l.mark != nil {
			l.mark()
		}
	}
	return true
}

func (l *callLoop) Unwind(sp *sim.Proc) {
	if l.unwinds != nil {
		*l.unwinds++
	}
	if l.call != nil {
		l.call.Unwind(sp)
	}
}

// A step rank killed in the middle of the pipeline is unwound once, by the
// engine: its span closes at that instant, its slot is free, it never comes
// out of the collective — and the survivors come out with the death
// reported, as they do when the ranks are goroutines.
func TestKillStepRankUnwindsCollective(t *testing.T) {
	const victim, crashAt = 3, 50e-6
	spec := cluster.Mini(2, 2)
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	w.Tracer = trace.New()
	w.AttachFaults(fault.Plan{Crashes: []fault.CrashSpec{{Rank: victim, At: crashAt}}})
	h := New(w)
	errs := make([]error, spec.Ranks())
	unwinds, through := make([]int, spec.Ranks()), make([]int, spec.Ranks())
	w.StartSteps(func(p *mpi.Proc) sim.Stepper {
		// Milliseconds of pipeline: the death lands inside.
		return &callLoop{h: h, p: p, buf: mpi.Phantom(4 << 20), cfg: Config{FS: 256 << 10}, left: 1,
			errs: errs, unwinds: &unwinds[p.Rank], through: &through[p.Rank]}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Goroutines() != 0 {
		t.Errorf("%d goroutines started; the ranks were to have none", eng.Goroutines())
	}
	for r := range errs {
		if r == victim {
			if unwinds[r] != 1 || through[r] != 0 {
				t.Errorf("victim unwound %d times and came out of the collective %d times, want 1 and 0", unwinds[r], through[r])
			}
			continue
		}
		var rf *RankFailedError
		if unwinds[r] != 0 || through[r] != 1 || !errors.As(errs[r], &rf) {
			t.Errorf("rank %d: unwound %d times, through %d times, returned %v; want 0, 1 and a *RankFailedError", r, unwinds[r], through[r], errs[r])
		}
	}
	var begin, end []float64
	for _, e := range w.Tracer.Events() {
		if e.Rank == victim && e.Kind == trace.KindCollBegin {
			begin = append(begin, e.T)
		}
		if e.Rank == victim && e.Kind == trace.KindCollEnd {
			end = append(end, e.T)
		}
	}
	if len(begin) != 1 || len(end) != 1 || end[0] != crashAt {
		t.Errorf("victim's span begins at %v and ends at %v, want one begin and one end, at the crash (%v)", begin, end, crashAt)
	}
	for r := range h.slots {
		if !reflect.DeepEqual(&h.slots[r], &Call{err: errs[r]}) {
			t.Errorf("rank %d's slot still holds its call: %+v", r, h.slots[r])
		}
	}
}

// A clean run of step ranks under an armed watchdog leaves nothing behind:
// every rank's closer counted, so the collective's watchdog entry went (its
// timer, left armed, would have stopped the run), every slot is free and
// every P2P record is back in its pool.
func TestStepRanksLeaveNothingBehind(t *testing.T) {
	spec := cluster.Mini(4, 4)
	for _, root := range []int{0, 5} { // a leader, and a non-leader that feeds its own
		eng := sim.New()
		w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
		w.SetCollTimeout(1)
		h := New(w)
		calls := make([]*Call, spec.Ranks())
		w.StartSteps(func(p *mpi.Proc) sim.Stepper {
			calls[p.Rank] = h.Start(p, coll.Bcast, mpi.Buf{}, mpi.Phantom(1<<20), mpi.OpSum, mpi.Byte, root, stepCfg())
			return calls[p.Rank]
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		if eng.Now() >= 1 {
			t.Errorf("root %d: the run lasted until %v: a watchdog timer was left armed", root, eng.Now())
		}
		for r, c := range calls {
			if err := c.Err(); err != nil {
				t.Errorf("root %d: rank %d: %v", root, r, err)
			}
			if !reflect.DeepEqual(c, &Call{}) {
				t.Errorf("root %d: rank %d's slot still holds its call: %+v", root, r, *c)
			}
		}
		if n := w.LiveRecords(); n != 0 && !arena.Debug {
			t.Errorf("root %d: %d P2P records still checked out", root, n)
		}
		if eng.Goroutines() != 0 || eng.Parks() != 0 {
			t.Errorf("root %d: %d goroutines and %d parks, want none", root, eng.Goroutines(), eng.Parks())
		}
	}
}

// A warm broadcast allocates nothing, on a step rank as on a goroutine rank:
// the call lives in the rank's slot, and each task's helper process in the
// record its program is recycled in. A step rank has no blocking call to hand
// to testing.AllocsPerRun, so rank 0 reads the process's malloc count as it
// comes out of a broadcast, in both forms.
func TestCollectiveRoutineAllocatesNothing(t *testing.T) {
	const segs, warmup, measured = 4, 4, 5
	spec := cluster.Mini(4, 4)
	cfg := stepCfg()
	cfg.IBS = cfg.FS
	buf := mpi.Phantom(segs * cfg.FS)
	allocs := func(steps bool) float64 {
		eng := sim.New()
		w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
		h := New(w)
		through := 0 // rank 0's
		var before, after runtime.MemStats
		mark := func() {
			switch through {
			case warmup:
				runtime.ReadMemStats(&before)
			case warmup + measured:
				runtime.ReadMemStats(&after)
			}
		}
		if steps {
			w.StartSteps(func(p *mpi.Proc) sim.Stepper {
				l := &callLoop{h: h, p: p, buf: buf, cfg: cfg, left: warmup + measured}
				if p.Rank == 0 {
					l.through, l.mark = &through, mark
				}
				return l
			})
		} else {
			w.Start(func(p *mpi.Proc) {
				for i := 0; i < warmup+measured; i++ {
					if err := h.Bcast(p, buf, 0, cfg); err != nil {
						t.Errorf("rank %d: %v", p.Rank, err)
					}
					if p.Rank == 0 {
						through++
						mark()
					}
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(after.Mallocs-before.Mallocs) / measured
	}
	goroutines, routines := allocs(false), allocs(true)
	if arena.Debug {
		return // quarantined slots are never reused: every record is fresh
	}
	// The count is the process's: a stray object or two per broadcast is the
	// runtime's (a sudog for a parking rank's channel) or a list somewhere
	// doubling late. A Bcast starts 80 helper processes; none is allocated.
	if routines >= 8 || goroutines >= 8 {
		t.Errorf("a warm Bcast allocates %v objects on step ranks and %v on goroutine ranks, want next to none", routines, goroutines)
	}
}
