package autotune

import (
	"sync"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// Meter accumulates the cost of benchmarking: the total virtual machine
// time consumed and the number of individual benchmark runs. It is what
// Fig 8 reports for each tuning method.
//
// Accumulation is safe under concurrent measurement jobs, but note that
// float addition is not associative: a parallel sweep that wants
// byte-identical totals across worker counts must give each job its own
// Meter and Merge them in canonical order afterwards (RunSearch does).
// Always pass Meters by pointer; the mutex makes copies invalid.
type Meter struct {
	mu      sync.Mutex
	Virtual float64 // seconds of simulated machine time
	Runs    int
}

func (m *Meter) add(t sim.Time) {
	if m != nil {
		m.mu.Lock()
		m.Virtual += float64(t)
		m.Runs++
		m.mu.Unlock()
	}
}

// Merge folds another meter's totals into m. RunSearch's serial merge
// phase uses it to combine per-job meters in canonical enumeration order,
// which is what keeps TuningCost byte-identical across worker counts.
func (m *Meter) Merge(d *Meter) {
	if m == nil || d == nil {
		return
	}
	d.mu.Lock()
	v, r := d.Virtual, d.Runs
	d.mu.Unlock()
	m.mu.Lock()
	m.Virtual += v
	m.Runs += r
	m.mu.Unlock()
}

// SBIBSeriesLen is how many pipeline iterations the task benchmark runs to
// observe the sbib stabilisation of Fig 3.
const SBIBSeriesLen = 8

// TableTasks holds the per-leader empirical task costs of one configuration
// of a stage-table collective: the inputs of equations (3) and (4) and the
// data behind Figs 2 and 3.
type TableTasks struct {
	Cfg han.Config
	// Steps[t][l] is the cost of step t on leader l of an SBIBSeriesLen-segment
	// run of the collective's stage table. A table of depth d runs
	// SBIBSeriesLen+d-1 steps, so d = len(Steps)-SBIBSeriesLen+1: d-1 fill
	// steps, the middle steps the pipeline stabilises over, and d-1 drain
	// steps (the last d-1 steps; fill and middle overlap them when d > 2).
	//
	//	Bcast (d = 2):     [ ib(0), sbib(1..7), sb ]
	//	Allreduce (d = 4): [ sr, irsr, ibirsr, sbibirsr(3..7), sbibir, sbib, sb ]
	//
	// A Bcast's fill and drain rows are a lone ib and a lone sb, measured
	// with no task history; its sbib(i) are measured inside the real
	// pipeline, with the staggered leader start times section III-A2 asks
	// for (Fig 2's red bars and the Fig 3 series).
	Steps [][]float64
	// SBIBConc is, for a Bcast, the naive concurrent sb+ib with simultaneous
	// starts (no task history): Fig 2's green bars. Nil for an Allreduce.
	SBIBConc []float64
}

// Stable returns leader l's stabilised middle step (the sbib(s) of equation
// 3, the sbibirsr(s) of equation 4): the mean of the second half of the
// middle steps, past the pipeline warm-up.
func (tt TableTasks) Stable(l int) float64 {
	d := len(tt.Steps) - SBIBSeriesLen + 1
	mid := tt.Steps[d-1 : SBIBSeriesLen]
	sum := 0.0
	for _, row := range mid[len(mid)/2:] {
		sum += row[l]
	}
	return sum / float64(len(mid)-len(mid)/2)
}

// MeasureTasks benchmarks the tasks of kind (coll.Bcast or coll.Allreduce)
// under cfg on the environment's machine. Each task cost is measured once
// (the simulation is noise-free); the series runs inside a real
// SBIBSeriesLen-segment pipeline, so that the staggered leader start times
// and warm-up effects are captured, as section III-A2 prescribes. A Bcast
// takes two worlds: its lone and naive concurrent tasks share one
// (TimeTasks), the series has the other.
func (e Env) MeasureTasks(kind coll.Kind, cfg han.Config, meter *Meter) TableTasks {
	if kind != coll.Bcast && kind != coll.Allreduce {
		panic("autotune: no task model for collective kind " + kind.String())
	}
	tt := TableTasks{Cfg: cfg}
	var lone [][]float64 // Bcast's lone ib, lone sb and concurrent sb+ib
	if kind == coll.Bcast {
		lone = e.TimeTasks(cfg, bcastTimers, meter)
	}
	meter.add(e.runWorld(func(h *han.HAN) { tt.series(h, kind, e.Spec.Nodes) }))
	if lone != nil {
		tt.Steps[0], tt.Steps[len(tt.Steps)-1], tt.SBIBConc = lone[0], lone[1], lone[2]
	}
	return tt
}

// MeasureBcastTasks is MeasureTasks of a Bcast, kept for benchmark/tune.go,
// which times it.
func (e Env) MeasureBcastTasks(cfg han.Config, meter *Meter) TableTasks {
	return e.MeasureTasks(coll.Bcast, cfg, meter)
}

func rows(n, nodes int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, nodes)
	}
	return out
}

// TaskSet is one timer: two-level tasks issued together on one segment of
// the configuration's fs, with no task history, moving values of DT.
type TaskSet struct {
	DT    mpi.Datatype
	Tasks []han.Task
}

// bcastTimers are a Bcast's lone ib, lone sb and naive concurrent sb+ib.
var bcastTimers = []TaskSet{
	{mpi.Byte, []han.Task{han.TaskIB}},
	{mpi.Byte, []han.Task{han.TaskSB}},
	{mpi.Byte, []han.Task{han.TaskIB, han.TaskSB}},
}

// TimeTasks times the task sets under cfg on the environment's machine, one
// after the other on every rank of one world, and returns costs[i][l]: set
// i's duration on the leader of node l.
func (e Env) TimeTasks(cfg han.Config, sets []TaskSet, meter *Meter) [][]float64 {
	costs := rows(len(sets), e.Spec.Nodes)
	meter.add(e.runWorld(func(h *han.HAN) { timers(h, cfg, sets, costs) }))
	return costs
}

// timers puts the task sets on h's world into costs. A set's tasks on the
// inter-node level take only leaders; every set reports on leaders alone.
func timers(h *han.HAN, cfg han.Config, sets []TaskSet, costs [][]float64) {
	startTimed(h, len(sets), func(p *mpi.Proc, i int) *han.Timed {
		return h.StartTasks(p, mpi.OpSum, sets[i].DT, cfg, sets[i].Tasks...)
	}, func(p *mpi.Proc, i int, steps []sim.Time) {
		if steps != nil && p.W.Mach.IsNodeLeader(p.Rank) {
			costs[i][p.Node()] = float64(steps[0])
		}
	})
}

// series puts kind's pipelined series on h's world, one column per node; the
// first leader that reports says how many steps the table runs.
func (tt *TableTasks) series(h *han.HAN, kind coll.Kind, nodes int) {
	startTimed(h, 1, func(p *mpi.Proc, _ int) *han.Timed {
		return h.StartSeries(p, kind, SBIBSeriesLen, tt.Cfg)
	}, func(p *mpi.Proc, _ int, steps []sim.Time) {
		if steps != nil && tt.Steps == nil {
			tt.Steps = rows(len(steps), nodes)
		}
		for i := range steps { // on leaders
			tt.Steps[i][p.Node()] = float64(steps[i])
		}
	})
}

// startTimed starts every rank of h's world on n measurements, one after the
// other: start begins the i-th on a rank, got receives what it reported
// there.
func startTimed(h *han.HAN, n int, start func(p *mpi.Proc, i int) *han.Timed, got func(p *mpi.Proc, i int, steps []sim.Time)) {
	ranks := make([]timedRank, h.W.Size())
	h.W.StartSteps(func(p *mpi.Proc) sim.Stepper {
		r := &ranks[p.Rank]
		*r = timedRank{p: p, n: n, start: start, got: got}
		return r
	})
}

// timedRank is one rank of a task-measurement world: a short sequence of
// timed routines, each a phase. The task benchmarks enumerate configurations
// from the tuner's own search space, so a rejected one is a programming
// error.
type timedRank struct {
	p     *mpi.Proc
	n, i  int
	cur   *han.Timed // the measurement in progress; nil between two
	start func(p *mpi.Proc, i int) *han.Timed
	got   func(p *mpi.Proc, i int, steps []sim.Time)
}

func (r *timedRank) Step(sp *sim.Proc) bool {
	for ; r.i < r.n; r.i++ {
		if r.cur == nil {
			r.cur = r.start(r.p, r.i)
		}
		if !r.cur.Step(sp) {
			return false
		}
		if err := r.cur.Err(); err != nil {
			panic(err)
		}
		r.got(r.p, r.i, r.cur.Steps())
		r.cur = nil
	}
	return true
}

// Unwind passes a kill on to the measurement the rank is in.
func (r *timedRank) Unwind(sp *sim.Proc) {
	if r.cur != nil {
		r.cur.Unwind(sp)
	}
}

// MeasureCollective measures a full collective operation end to end under
// cfg: IMB methodology, `iters` timed iterations after one warm-up, cost =
// mean over iterations of the max duration across ranks.
func (e Env) MeasureCollective(kind coll.Kind, m int, cfg han.Config, iters int, meter *Meter) float64 {
	if iters < 1 {
		iters = 1
	}
	var loop *mpi.IMBLoop
	t := e.runWorld(func(h *han.HAN) {
		loop = collectiveLoop(h, kind, m, cfg, iters)
		loop.StartSteps()
	})
	meter.add(t)
	return loop.Mean(0)
}

// collectiveLoop returns the IMB loop of one collective of m bytes under cfg
// on h's world.
func collectiveLoop(h *han.HAN, kind coll.Kind, m int, cfg han.Config, iters int) *mpi.IMBLoop {
	if kind != coll.Bcast && kind != coll.Allreduce && kind != coll.Reduce {
		panic("autotune: unsupported collective kind " + kind.String())
	}
	buf := mpi.Phantom(m)
	return mpi.NewIMBLoop(h.W.World(), []int{iters}, func(p *mpi.Proc, _ int) sim.Stepper {
		return h.Start(p, kind, buf, buf, mpi.OpSum, mpi.Float64, 0, cfg)
	})
}
