package mpi

import "github.com/hanrepro/han/internal/sim"

// IMBLoop is one IMB-style measurement, shared by the ranks of its world:
// per case, a warm-up and the timed iterations, each a barrier on the
// communicator and then the collective start begins, and of every iteration
// the duration on the slowest rank — IMB's t_max. The harnesses of
// internal/bench and the autotuner's end-to-end measurement both are this
// loop.
type IMBLoop struct {
	comm *Comm
	// start begins case i's collective on rank p, as a routine.
	start func(p *Proc, i int) sim.Stepper
	// max holds, per case, the slowest rank's duration of each iteration;
	// iteration 0 is the warm-up.
	max [][]float64
}

// NewIMBLoop returns a measurement of len(iters) cases on c, case i timed
// iters[i] times after one warm-up.
func NewIMBLoop(c *Comm, iters []int, start func(p *Proc, i int) sim.Stepper) *IMBLoop {
	l := &IMBLoop{comm: c, start: start, max: make([][]float64, len(iters))}
	for i, n := range iters {
		l.max[i] = make([]float64, n+1)
	}
	return l
}

// Iters returns the number of timed iterations of case i.
func (l *IMBLoop) Iters(i int) int { return len(l.max[i]) - 1 }

// Record notes that iteration it of case i took some rank d.
func (l *IMBLoop) Record(i, it int, d sim.Time) {
	if d := float64(d); d > l.max[i][it] {
		l.max[i][it] = d
	}
}

// Mean returns case i's result: the mean over its timed iterations of the
// slowest rank's duration.
func (l *IMBLoop) Mean(i int) float64 {
	sum := 0.0
	for _, d := range l.max[i][1:] { // drop warm-up
		sum += d
	}
	return sum / float64(l.Iters(i))
}

// StartSteps starts every rank of the loop's world on the loop, each a
// routine (World.StartSteps) whose phases are the barriers and the
// collectives.
func (l *IMBLoop) StartSteps() {
	w := l.comm.World()
	ranks := make([]imbRank, w.Size())
	w.StartSteps(func(p *Proc) sim.Stepper {
		r := &ranks[p.Rank]
		r.loop, r.p = l, p
		return r
	})
}

// imbRank is one rank's walk through the loop.
type imbRank struct {
	loop   *IMBLoop
	p      *Proc
	i, it  int         // case and iteration of the phase in progress
	phase  sim.Stepper // nil before the first
	inColl bool        // phase is the collective, not the barrier before it
	t0     sim.Time
}

func (r *imbRank) Step(sp *sim.Proc) bool {
	l := r.loop
	for r.i < len(l.max) {
		if r.phase == nil {
			r.phase = l.comm.BarrierSteps(r.p)
		}
		if !r.phase.Step(sp) {
			return false
		}
		if !r.inColl {
			r.t0, r.inColl = sp.Now(), true
			r.phase = l.start(r.p, r.i)
			continue
		}
		l.Record(r.i, r.it, sp.Now()-r.t0)
		r.phase, r.inColl = nil, false
		if r.it++; r.it > l.Iters(r.i) {
			r.i, r.it = r.i+1, 0
		}
	}
	return true
}

// Unwind passes a kill on to the phase the rank is in.
func (r *imbRank) Unwind(sp *sim.Proc) {
	if r.phase != nil {
		r.phase.Unwind(sp)
	}
}
