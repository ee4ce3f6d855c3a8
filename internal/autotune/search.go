package autotune

import (
	"fmt"
	"sort"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/exec"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/metrics"
)

// Method selects a tuning strategy — the four bars of Fig 8.
type Method int

// Tuning methods.
const (
	// Exhaustive measures every configuration of every input end to end.
	Exhaustive Method = iota
	// ExhaustiveHeuristics is Exhaustive with the paper's pruning rules.
	ExhaustiveHeuristics
	// TaskBased benchmarks tasks once per configuration and reuses their
	// costs across message sizes through the cost model.
	TaskBased
	// Combined is TaskBased plus heuristics — the paper's 4.3% bar.
	Combined
)

// Methods lists every tuning method, in Fig 8 order.
var Methods = []Method{Exhaustive, ExhaustiveHeuristics, TaskBased, Combined}

// String returns the method name used in reports.
func (m Method) String() string {
	switch m {
	case Exhaustive:
		return "exhaustive"
	case ExhaustiveHeuristics:
		return "exhaustive+heur"
	case TaskBased:
		return "task"
	case Combined:
		return "task+heur"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

func (m Method) heuristics() bool { return m == ExhaustiveHeuristics || m == Combined }
func (m Method) taskBased() bool  { return m == TaskBased || m == Combined }

// SearchOpts tunes the searches themselves.
type SearchOpts struct {
	// Iters is the number of timed iterations per end-to-end measurement
	// (exhaustive searches). Defaults to 2.
	Iters int
	// Workers is the number of host workers measuring concurrently.
	// 0 means GOMAXPROCS; 1 forces a serial sweep. The resulting table is
	// byte-identical regardless of the value (DESIGN.md §10).
	Workers int
	// Metrics, when set, receives the executor's exec_* scheduling
	// counters after the sweep.
	Metrics *metrics.Registry
}

// ExhaustiveStats summarises the full measured distribution for one input —
// the best/median/average bars of Fig 9.
type ExhaustiveStats struct {
	Best, Median, Average float64
}

// Result is the output of RunSearch: a lookup table plus, for exhaustive
// methods, the per-input cost distributions.
type Result struct {
	Table *Table
	Stats map[Input]ExhaustiveStats
}

// searchPoint is one input of the sweep with its expanded candidate list —
// the unit the canonical merge walks.
type searchPoint struct {
	in    Input
	kind  coll.Kind
	m     int
	cands []Candidate
}

// taskKey names one task measurement: a configuration of a collective kind.
type taskKey struct {
	kind coll.Kind
	cfg  han.Config
}

// RunSearch tunes the given collective kinds over the space with the given
// method, returning the lookup table (step 1 of section III-C). The tuning
// cost reported in the table is virtual machine time, directly comparable
// across methods as in Fig 8.
//
// The sweep is planned before anything is measured. An exhaustive method
// measures every (input, candidate) pair; a task-based method measures the
// task costs of each distinct (kind, configuration) once and estimates every
// input it serves from them, which is the paper's T×S×N×P×A accounting.
// The measurements fan out across opts.Workers host workers (internal/exec):
// each job measures on a world it holds alone, writes into index-addressed
// slots, and records its benchmark cost in its own Meter. The worlds are the
// sweep's own: a free list, for the length of the call, of worlds a job
// takes and puts back reset, so a sweep builds at most one per worker, not
// one per measurement — except under a fault plan, where every world serves
// one measurement. Everything order-sensitive — meter accumulation,
// best-candidate tie-breaking, table append order — happens after the jobs
// finish, in canonical enumeration order, so the result is byte-identical no
// matter how many workers ran, or which world a job drew. The table comes
// back indexed, as Load's does, so concurrent Decide calls on it are safe.
func RunSearch(env Env, space Space, kinds []coll.Kind, method Method, opts SearchOpts) Result {
	if opts.Iters <= 0 {
		opts.Iters = 2
	}
	if env.worlds == nil { // a test in this package may bring its own, to count
		env.worlds = new(worldList)
	}
	x := exec.New(opts.Workers)

	// Phase 1 — canonical enumeration. The flat job order fixed here is
	// the one the merge phase replays. A kind's task costs under one
	// configuration are shared across message sizes (one of the paper's
	// three sources of savings), so a task-based method numbers the
	// distinct configurations in first-encounter order: job j is estimated
	// from keys[taskOf[j]].
	var points []searchPoint
	var jobPoint, jobCand, taskOf []int
	var keys []taskKey
	keyIndex := make(map[taskKey]int)
	for _, kind := range kinds {
		for _, m := range space.Msgs {
			cands := space.Expand(kind, m, method.heuristics(), env.Spec.Nodes)
			if len(cands) == 0 {
				continue
			}
			pi := len(points)
			points = append(points, searchPoint{
				in:    Input{N: env.Spec.Nodes, P: env.Spec.PPN, M: m, T: kind},
				kind:  kind,
				m:     m,
				cands: cands,
			})
			for ci, c := range cands {
				jobPoint = append(jobPoint, pi)
				jobCand = append(jobCand, ci)
				if method.taskBased() {
					key := taskKey{kind, c.Cfg}
					k, ok := keyIndex[key]
					if !ok {
						k = len(keys)
						keyIndex[key] = k
						keys = append(keys, key)
					}
					taskOf = append(taskOf, k)
				}
			}
		}
	}

	// Phase 2 — parallel measurement into index-addressed slots, one Meter
	// per job: one job per distinct configuration for a task-based method,
	// whose estimates are then made serially, and one job per (input,
	// candidate) pair otherwise.
	costs := make([]float64, len(jobPoint))
	var meters []Meter
	if method.taskBased() {
		meters = make([]Meter, len(keys))
		tasks := make([]TableTasks, len(keys))
		x.Run(len(keys), func(k int) {
			tasks[k] = env.MeasureTasks(keys[k].kind, keys[k].cfg, &meters[k])
		})
		for j, k := range taskOf {
			costs[j] = Estimate(tasks[k], points[jobPoint[j]].m)
		}
	} else {
		meters = make([]Meter, len(jobPoint))
		x.Run(len(jobPoint), func(j int) {
			p := points[jobPoint[j]]
			costs[j] = env.MeasureCollective(p.kind, p.m, p.cands[jobCand[j]].Cfg, opts.Iters, &meters[j])
		})
	}

	// Phase 3 — serial merge in canonical order. Float accumulation is not
	// associative and best-candidate selection is order-sensitive (strict
	// <, first winner kept), so both replay the enumeration order of phase
	// 1 (a task-based method's keys are numbered in it); workers=1 takes
	// the same path, which is why worker count cannot change a byte of the
	// output.
	var meter Meter
	for i := range meters {
		meter.Merge(&meters[i])
	}
	table := &Table{Machine: env.Spec.Name, Method: method.String()}
	stats := make(map[Input]ExhaustiveStats)
	j := 0
	for _, p := range points {
		bestCfg := p.cands[0].Cfg
		bestCost := -1.0
		var all []float64
		for ci := range p.cands {
			cost := costs[j]
			if !method.taskBased() {
				all = append(all, cost)
			}
			if bestCost < 0 || cost < bestCost {
				bestCost, bestCfg = cost, p.cands[ci].Cfg
			}
			j++
		}
		table.Entries = append(table.Entries, Entry{In: p.in, Cfg: bestCfg, EstCost: bestCost})
		if len(all) > 0 {
			sort.Float64s(all)
			sum := 0.0
			for _, v := range all {
				sum += v
			}
			stats[p.in] = ExhaustiveStats{
				Best:    all[0],
				Median:  median(all),
				Average: sum / float64(len(all)),
			}
		}
	}
	table.TuningCost = meter.Virtual
	table.Measurements = meter.Runs
	table.BuildIndex()
	x.Stats().Publish(opts.Metrics, x.Workers())
	return Result{Table: table, Stats: stats}
}

// median of a sorted slice: the middle element, or the mean of the two
// middle elements for even lengths.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
