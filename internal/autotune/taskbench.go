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

// BcastTasks holds the per-leader empirical task costs of one MPI_Bcast
// configuration — the data behind Fig 2 and the inputs of equation (3).
type BcastTasks struct {
	Cfg han.Config
	// IB0 is the cost of the first inter-node broadcast, per leader.
	IB0 []float64
	// SB0 is the cost of a lone intra-node broadcast, per leader.
	SB0 []float64
	// SBIBConc is the naive concurrent sb+ib measurement with simultaneous
	// starts (no task history) — Fig 2's green bars.
	SBIBConc []float64
	// SBIB[i][l] is the cost of sbib(i+1) on leader l measured inside the
	// real pipeline (with ib(0)..sbib(i) history) — Fig 2's red bars and
	// the Fig 3 series.
	SBIB [][]float64
}

// StableSBIB returns the stabilised per-leader sbib cost (the sbib(s) of
// equation 3): the mean of the second half of the series, past the pipeline
// warm-up.
func (bt BcastTasks) StableSBIB() []float64 {
	if len(bt.SBIB) == 0 {
		return bt.SBIBConc
	}
	nLeaders := len(bt.SBIB[0])
	out := make([]float64, nLeaders)
	half := len(bt.SBIB) / 2
	cnt := 0
	for i := half; i < len(bt.SBIB); i++ {
		for l := 0; l < nLeaders; l++ {
			out[l] += bt.SBIB[i][l]
		}
		cnt++
	}
	for l := range out {
		out[l] /= float64(cnt)
	}
	return out
}

// MeasureBcastTasks benchmarks the three task types of MPI_Bcast under cfg
// on the environment's machine. Each task cost is measured once (the
// simulation is noise-free); the sbib series is measured inside a real
// SBIBSeriesLen-segment pipeline so that the staggered leader start times
// and warm-up effects are captured, as section III-A2 prescribes.
func (e Env) MeasureBcastTasks(cfg han.Config, meter *Meter) BcastTasks {
	nodes := e.Spec.Nodes
	bt := BcastTasks{
		Cfg:      cfg,
		IB0:      make([]float64, nodes),
		SB0:      make([]float64, nodes),
		SBIBConc: make([]float64, nodes),
	}
	for i := 0; i < SBIBSeriesLen-1; i++ {
		bt.SBIB = append(bt.SBIB, make([]float64, nodes))
	}

	// Lone ib, lone sb, and the naive concurrent measurement share a world;
	// the pipelined sbib series has its own.
	meter.add(e.runWorld(bt.timers))
	meter.add(e.runWorld(bt.series))
	return bt
}

// timers puts the lone ib, the lone sb and the naive concurrent sb+ib on h's
// world, one after the other on every rank. Only leaders take part in the
// first, and all three report on them alone.
func (bt *BcastTasks) timers(h *han.HAN) {
	tasks := [][]han.Task{{han.TaskIB}, {han.TaskSB}, {han.TaskIB, han.TaskSB}}
	costs := [][]float64{bt.IB0, bt.SB0, bt.SBIBConc}
	startTimed(h, len(tasks), func(p *mpi.Proc, i int) *han.Timed {
		return h.StartTasks(p, mpi.OpSum, mpi.Byte, bt.Cfg, tasks[i]...)
	}, func(p *mpi.Proc, i int, steps []sim.Time) {
		if steps != nil && p.W.Mach.IsNodeLeader(p.Rank) {
			costs[i][p.Node()] = float64(steps[0])
		}
	})
}

// series puts the pipelined sbib series on h's world (it includes the ib(0)
// history automatically).
func (bt *BcastTasks) series(h *han.HAN) {
	startTimed(h, 1, func(p *mpi.Proc, _ int) *han.Timed {
		return h.StartBcastSteps(p, SBIBSeriesLen, bt.Cfg)
	}, func(p *mpi.Proc, _ int, steps []sim.Time) {
		// steps = [ib(0), sbib(1..k-1), sb(last)], on leaders
		for i := 1; i < len(steps)-1; i++ {
			bt.SBIB[i-1][p.Node()] = float64(steps[i])
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

// AllreduceTasks holds the per-leader empirical task costs of one
// MPI_Allreduce configuration — the inputs of equation (4).
type AllreduceTasks struct {
	Cfg han.Config
	// Steps[t][l] is the duration of pipeline step t on leader l for a
	// SBIBSeriesLen-segment run: steps 0..2 are sr, irsr, ibirsr; steps
	// 3..u-1 are sbibirsr (stabilising); the last three are the drain
	// tasks sbibir, sbib, sb.
	Steps [][]float64
}

// StableSBIBIRSR returns the stabilised per-leader sbibirsr cost.
func (at AllreduceTasks) StableSBIBIRSR() []float64 {
	u := len(at.Steps) - 3
	nLeaders := len(at.Steps[0])
	out := make([]float64, nLeaders)
	lo := 3 + (u-3)/2
	cnt := 0
	for t := lo; t < u; t++ {
		for l := 0; l < nLeaders; l++ {
			out[l] += at.Steps[t][l]
		}
		cnt++
	}
	if cnt == 0 {
		// Degenerate short series: use the last middle step available.
		for l := 0; l < nLeaders; l++ {
			out[l] = at.Steps[len(at.Steps)-4][l]
		}
		return out
	}
	for l := range out {
		out[l] /= float64(cnt)
	}
	return out
}

// MeasureAllreduceTasks benchmarks the MPI_Allreduce task pipeline under
// cfg (all 8 task types in one instrumented run, as the shared tasks let
// the tuner do).
func (e Env) MeasureAllreduceTasks(cfg han.Config, meter *Meter) AllreduceTasks {
	nodes := e.Spec.Nodes
	u := SBIBSeriesLen
	at := AllreduceTasks{Cfg: cfg}
	for t := 0; t < u+3; t++ {
		at.Steps = append(at.Steps, make([]float64, nodes))
	}
	meter.add(e.runWorld(at.series))
	return at
}

// series puts the instrumented pipeline on h's world.
func (at *AllreduceTasks) series(h *han.HAN) {
	startTimed(h, 1, func(p *mpi.Proc, _ int) *han.Timed {
		return h.StartAllreduceSteps(p, SBIBSeriesLen, mpi.OpSum, mpi.Float64, at.Cfg)
	}, func(p *mpi.Proc, _ int, steps []sim.Time) {
		for i := range steps { // on leaders
			at.Steps[i][p.Node()] = float64(steps[i])
		}
	})
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
