package autotune

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// Every kind of measurement world runs its ranks as routines — no goroutine
// started, no park — and measures, to the bit, what the same measurement
// written as a goroutine rank's straight-line code over the blocking calls
// (World.Start) measures: the form the measurements had, kept here as the
// reference.
func TestSweepRunsRanksWithoutGoroutines(t *testing.T) {
	env := testEnv()
	cfg := goldenTaskConfigs[0]
	nodes := env.Spec.Nodes
	const m, iters = 1 << 20, 2

	leader := func(p *mpi.Proc) bool { return p.W.Mach.IsNodeLeader(p.Rank) }
	timed := func(d sim.Time, err error) sim.Time {
		if err != nil {
			t.Error(err)
		}
		return d
	}

	// Each kind: the routines' start, the goroutine rank's body, and what
	// either leaves behind.
	type world struct {
		start func(h *han.HAN)
		body  func(h *han.HAN, p *mpi.Proc)
		got   func() any
	}
	collective := func(kind coll.Kind) func() world {
		return func() world {
			var loop *mpi.IMBLoop
			maxPerIter := make([]float64, iters+1)
			return world{
				start: func(h *han.HAN) { loop = collectiveLoop(h, kind, m, cfg, iters); loop.StartSteps() },
				body: func(h *han.HAN, p *mpi.Proc) {
					for it := 0; it <= iters; it++ {
						h.W.World().Barrier(p)
						t0 := p.Now()
						switch buf := mpi.Phantom(m); kind {
						case coll.Bcast:
							h.Bcast(p, buf, 0, cfg)
						case coll.Allreduce:
							h.Allreduce(p, buf, buf, mpi.OpSum, mpi.Float64, cfg)
						case coll.Reduce:
							h.Reduce(p, buf, buf, mpi.OpSum, mpi.Float64, 0, cfg)
						}
						maxPerIter[it] = max(maxPerIter[it], float64(p.Now()-t0))
					}
				},
				got: func() any {
					if loop != nil {
						return loop.Mean(0)
					}
					return (maxPerIter[1] + maxPerIter[2]) / iters
				},
			}
		}
	}
	series := func(kind coll.Kind) func() world {
		return func() world {
			tt := &TableTasks{Cfg: cfg}
			return world{func(h *han.HAN) { tt.series(h, kind, nodes) }, func(h *han.HAN, p *mpi.Proc) {
				steps, err := h.Series(p, kind, SBIBSeriesLen, cfg)
				if err != nil {
					t.Error(err)
				}
				if steps != nil && tt.Steps == nil {
					tt.Steps = rows(len(steps), nodes)
				}
				for i := range steps {
					tt.Steps[i][p.Node()] = float64(steps[i])
				}
			}, func() any { return tt }}
		}
	}
	kinds := []struct {
		name string
		mk   func() world
	}{
		{"bcast timers", func() world {
			lone := rows(3, nodes)
			return world{func(h *han.HAN) { timers(h, cfg, lone) }, func(h *han.HAN, p *mpi.Proc) {
				if d := timed(h.TimeTasks(p, mpi.OpSum, mpi.Byte, cfg, han.TaskIB)); d > 0 {
					lone[0][p.Node()] = float64(d)
				}
				if d := timed(h.TimeTasks(p, mpi.OpSum, mpi.Byte, cfg, han.TaskSB)); leader(p) {
					lone[1][p.Node()] = float64(d)
				}
				if d := timed(h.TimeTasks(p, mpi.OpSum, mpi.Byte, cfg, han.TaskIB, han.TaskSB)); leader(p) {
					lone[2][p.Node()] = float64(d)
				}
			}, func() any { return lone }}
		}},
		{"bcast series", series(coll.Bcast)},
		{"allreduce series", series(coll.Allreduce)},
		{"bcast", collective(coll.Bcast)},
		{"allreduce", collective(coll.Allreduce)},
		{"reduce", collective(coll.Reduce)},
	}
	for _, k := range kinds {
		run := func(routines bool) (any, sim.Time, *sim.Engine) {
			wl := k.mk()
			w := env.newWorld()
			h := han.New(w)
			if routines {
				wl.start(h)
			} else {
				w.Start(func(p *mpi.Proc) { wl.body(h, p) })
			}
			if err := w.Eng().Run(); err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
			return wl.got(), w.Eng().Now(), w.Eng()
		}
		want, wantEnd, _ := run(false)
		got, end, eng := run(true)
		if eng.Goroutines() != 0 || eng.Parks() != 0 {
			t.Errorf("%s: the measurement world started %d goroutines and parked %d times, want none", k.name, eng.Goroutines(), eng.Parks())
		}
		if !reflect.DeepEqual(got, want) || end != wantEnd {
			t.Errorf("%s: routines measured %v by %v, goroutine ranks %v by %v", k.name, got, end, want, wantEnd)
		}
		if f, ok := got.(float64); ok && f <= 0 {
			t.Errorf("%s: measured %v", k.name, f)
		}
	}
}

// One end-to-end measurement on the sweep's machine stays under a recorded
// number of objects — a world's first growth: its pools' slabs, its per-pair
// state, the ranks' slots — and the iterations after the first add next to
// nothing to it: no process record per helper, no request, no program.
func TestMeasurementAllocationBudget(t *testing.T) {
	if arena.Debug {
		t.Skip("quarantined slots are never reused: every record is fresh")
	}
	spec := cluster.Tuning64()
	spec.Nodes, spec.PPN = 8, 4
	env := NewEnv(spec, mpi.OpenMPI())
	cfg := goldenTaskConfigs[0]
	mallocs := func(iters int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if d := env.MeasureCollective(coll.Allreduce, 1<<20, cfg, iters, &Meter{}); d <= 0 || math.IsNaN(d) {
			t.Fatalf("measured %v", d)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(1) // whatever the process allocates once
	two, ten := mallocs(2), mallocs(10)
	// Recorded: 1 962 objects; 6 322 when every rank was a goroutine and every
	// helper allocated its process.
	const budget = 2300
	if two > budget {
		t.Errorf("a measurement of 2 iterations allocates %d objects, more than the %d budgeted", two, budget)
	}
	// Recorded: 2 more objects; 10 381 then, most of them helper processes.
	if extra := int64(ten) - int64(two); extra > 100 {
		t.Errorf("8 more iterations allocate %d more objects (%d against %d); a warm iteration is to allocate next to none", extra, ten, two)
	}
}
