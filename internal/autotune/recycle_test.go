package autotune

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
)

// A world recycled from measurement to measurement simulates what a new world
// simulates, bit for bit: a seeded random sequence of task and end-to-end
// measurements of random configurations, on both machines of the goldens,
// each run on the one recycled world of its machine and on a world of its
// own. What is compared: every per-leader task step (and Fig 2's concurrent
// sb+ib), the collective's mean, and the virtual time the measurement's
// worlds ran to.
func TestRecycledWorldMatchesFresh(t *testing.T) {
	type machine struct {
		fresh, recycled Env
		space           Space
	}
	var machines []machine
	for _, name := range []string{"mini", "tuning64"} {
		spec, space := goldenMachine(name)
		pers := mpi.OpenMPI()
		if name == "mini" {
			pers.Jitter = 0.05 // every latency draws from the world's generator, which a reset reseeds
		}
		fresh := NewEnv(spec, pers)
		fresh.Seed = 5
		recycled := fresh
		recycled.worlds = new(worldList)
		machines = append(machines, machine{fresh, recycled, space})
	}
	rng := rand.New(rand.NewSource(29))
	kinds := []coll.Kind{coll.Bcast, coll.Allreduce, coll.Reduce}
	const measurements = 48
	for i := 0; i < measurements; i++ {
		mc := machines[rng.Intn(len(machines))]
		kind := kinds[rng.Intn(len(kinds))]
		m := mc.space.Msgs[rng.Intn(len(mc.space.Msgs))]
		cands := mc.space.Expand(kind, m, false, mc.fresh.Spec.Nodes)
		cfg := cands[rng.Intn(len(cands))].Cfg
		tasks := kind != coll.Reduce && rng.Intn(2) == 0
		iters := 1 + rng.Intn(3)
		measure := func(e Env) string {
			var meter Meter
			if tasks {
				tt := e.MeasureTasks(kind, cfg, &meter)
				return fmt.Sprintf("tasks %#016x in %#016x", hashCosts(append(tt.Steps, tt.SBIBConc)...), math.Float64bits(meter.Virtual))
			}
			mean := e.MeasureCollective(kind, m, cfg, iters, &meter)
			return fmt.Sprintf("mean %#016x in %#016x", math.Float64bits(mean), math.Float64bits(meter.Virtual))
		}
		if want, got := measure(mc.fresh), measure(mc.recycled); got != want {
			t.Errorf("measurement %d (%s, %v of %d bytes, tasks %v, %d iterations, %v): recycled world %s, new world %s",
				i, mc.fresh.Spec.Name, kind, m, tasks, iters, cfg, got, want)
		}
	}
	for _, mc := range machines {
		if l := mc.recycled.worlds; l.built != 1 || len(l.free) != 1 {
			t.Errorf("%s: %d worlds built, %d on the list; want the one", mc.fresh.Spec.Name, l.built, len(l.free))
		}
	}
}

// A sweep builds a world per worker at most, not one per measurement; under a
// fault plan every measurement has one of its own. TestGoldenSweeps holds the
// tables to their recorded bits either way.
func TestRecycledWorldsPerWorker(t *testing.T) {
	kinds := []coll.Kind{coll.Bcast, coll.Allreduce}
	for _, plan := range []string{"none", "drops"} {
		env, space := goldenEnv(t, "mini", plan)
		for _, workers := range []int{1, 2} {
			for _, method := range []Method{Combined, Exhaustive} {
				l := new(worldList)
				env.worlds = l
				runs := RunSearch(env, space, kinds, method, SearchOpts{Workers: workers}).Table.Measurements
				switch {
				case plan != "none" && (l.built != runs || len(l.free) != 0):
					t.Errorf("%v under %s at %d workers: %d worlds built for %d measurements, %d kept; want one each, none kept",
						method, plan, workers, l.built, runs, len(l.free))
				case plan == "none" && (l.built < 1 || l.built > workers || len(l.free) != l.built):
					t.Errorf("%v at %d workers: %d worlds built for %d measurements, %d back on the list; want 1 to %d, all back",
						method, workers, l.built, runs, len(l.free), workers)
				}
			}
		}
	}
}
