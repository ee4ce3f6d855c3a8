package han

import (
	"fmt"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// This file provides the measurements the task-based autotuner feeds its
// cost model with (sections III-A2 and III-B2 of the paper): instrumented
// runs of the Bcast and Allreduce task pipelines that report the duration
// of every step on the calling rank, and timers of lone or concurrent
// tasks. All of them are the two-level world pipeline of pipeline.go over
// phantom segments: a series runs the derived stage table with step timing
// on; a timer is a one-segment table with every offset 0.

// Timed is one measurement on one rank, as a routine (sim.Stepper): a stage
// table run on the two-level world hierarchy over phantom segments, after a
// barrier, with every step timed. Its first Step is the prologue —
// configuration, level list, table, and which communicator the measurement
// synchronises on — then the barrier (mpi.Comm.BarrierSteps) and the table
// are its phases. It is the rank's slot under another name, as a Call is: a
// measurement allocates its step vector and nothing else, a rank that is
// itself a routine (mpi.World.StartSteps) runs it as a phase, and a goroutine
// rank lends it its process (timed), parking once for barrier and table
// together.
type Timed Call

// startTimed puts a measurement into the rank's slot: u phantom segments of
// cfg.FS bytes. A nil table means the derived schedule of kind, synchronised
// on the world and reported on leaders; an explicit table synchronises on the
// communicator its stages span — the level's when they share one, where
// non-members report nil without taking part — else the world.
func (h *HAN) startTimed(p *mpi.Proc, who string, kind coll.Kind, u int, op mpi.Op, dt mpi.Datatype, cfg Config, table []stage) *Timed {
	c := h.slot(p)
	c.cl.span, c.cl.kind, c.cfg = who, kind, cfg
	buf := mpi.Phantom(u * cfg.FS)
	c.pl.init(buf, buf, buf.N, op, dt, cfg.FS)
	c.pl.nst = copy(c.pl.st[:], table)
	return (*Timed)(c)
}

// timed runs a measurement on a goroutine rank, as collective runs a call:
// the body of Series and TimeTasks, so it serves the same tests
// (TestGoldenStepAndTimerBits and the rest).
func (h *HAN) timed(p *mpi.Proc, who string, kind coll.Kind, u int, op mpi.Op, dt mpi.Datatype, cfg Config, table []stage) ([]sim.Time, error) {
	t := h.startTimed(p, who, kind, u, op, dt, cfg, table)
	defer t.Unwind(p.Sim) // finds nothing to do after a measurement that finished
	p.Sim.RunSteps(t)
	return t.Steps(), t.Err()
}

// Steps returns the calling rank's per-step durations, once Step has reported
// done: nil on a rank the measurement does not report on.
func (t *Timed) Steps() []sim.Time { return t.pl.steps }

// Err returns the *ConfigError of a configuration the measurement rejected.
func (t *Timed) Err() error { return t.err }

// Step runs the measurement up to its next wait, or to its end.
func (t *Timed) Step(sp *sim.Proc) bool {
	c, pl := (*Call)(t), &t.pl
	if c.state == callEnter && t.enter() {
		return true
	}
	if c.state == callBarrier {
		if !c.bar.Step(sp) {
			return false
		}
		c.state, pl.t0 = callTable, sp.Now()
	}
	return pl.table(sp) && t.finish(pl.steps, nil)
}

// enter is the prologue. It reports whether the measurement is over already:
// a rejected configuration, or a rank that takes no part.
func (t *Timed) enter() (done bool) {
	c, pl := (*Call)(t), &t.pl
	h, p, who, kind := pl.h, pl.p, c.cl.span, c.cl.kind
	if c.cfg.FS <= 0 {
		return t.finish(nil, &ConfigError{Op: who, Param: "fs",
			Value: fmt.Sprintf("%d (steps need an explicit segment size)", c.cfg.FS)})
	}
	if c.cfg.Levels != "" {
		return t.finish(nil, &ConfigError{Op: who, Param: "levels",
			Value: fmt.Sprintf("%q (measurements run two levels)", c.cfg.Levels)})
	}
	if err := h.resolve(kind, pl.n, &c.cfg); err != nil {
		return t.finish(nil, err)
	}
	bar := h.W.World()
	hr, _ := h.analyze(p, bar, who, false) // a one-node world still has both comms
	h.twoLevels(pl, &hr, kind, &c.cfg)

	reports := true
	if table, n := pl.st, pl.nst; n == 0 {
		pl.settle(p)
		pl.derive(kind, formOf(kind, &c.cfg))
		reports = hr.isLeader // the schedules report the leaders' view
	} else {
		pl.nst = 0
		oneLevel := true
		for _, st := range table[:n] {
			oneLevel = oneLevel && st.lv == table[0].lv
			if pl.lv[st.lv].comm != nil {
				pl.st[pl.nst] = st
				pl.nst++
			}
		}
		if oneLevel {
			if bar = pl.lv[table[0].lv].comm; bar == nil {
				return t.finish(nil, nil)
			}
		}
	}
	if reports {
		pl.steps = make([]sim.Time, pl.segs()+pl.depth)
	}
	c.bar, c.state = bar.BarrierSteps(p), callBarrier
	return false
}

// finish frees the slot and leaves in it what the measurement came to.
func (t *Timed) finish(steps []sim.Time, err error) (done bool) {
	*t = Timed{err: err}
	t.pl.steps = steps
	return true
}

// Unwind frees the slot of a killed rank. A goroutine rank gets here through
// timed's defer, also after a measurement that finished.
func (t *Timed) Unwind(sp *sim.Proc) { (*Call)(t).Unwind(sp) }

// Series runs kind's derived stage table over u phantom segments and returns,
// on leaders, the per-step durations (length u+d-1 for a table of depth d):
//
//	Bcast (Fig 1):     [ ib(0), sbib(1), …, sbib(u-1), sb(u-1) ]
//	Allreduce (Fig 5): [ sr(0), irsr(1), ibirsr(2), sbibirsr(3..u-1), sbibir, sbib, sb ]
//
// Non-leaders take part in the intra-node tasks and return nil. The middle
// steps exhibit the pipeline warm-up and stabilisation of Fig 3. A Bcast
// moves bytes, an Allreduce sums float64s. A configuration without an
// explicit segment size, with an unknown submodule name or with Levels set
// is rejected with a *ConfigError. No binary calls it: it is the
// goroutine-rank reference TestGoldenStepAndTimerBits and
// TestSweepRunsRanksWithoutGoroutines hold the step-rank Timed form to.
func (h *HAN) Series(p *mpi.Proc, kind coll.Kind, u int, cfg Config) ([]sim.Time, error) {
	return h.timed(p, "Series", kind, u, mpi.OpSum, seriesType(kind), cfg, nil)
}

// StartSeries begins Series on rank p and returns it as a routine, for a rank
// that has no goroutine to run as a phase (see Start): Steps and Err hold
// what Series returns.
func (h *HAN) StartSeries(p *mpi.Proc, kind coll.Kind, u int, cfg Config) *Timed {
	return h.startTimed(p, "Series", kind, u, mpi.OpSum, seriesType(kind), cfg, nil)
}

func seriesType(kind coll.Kind) mpi.Datatype {
	if kind == coll.Bcast {
		return mpi.Byte
	}
	return mpi.Float64
}

// Task is one row of a timer's stage table: a two-level task.
type Task = stage

// The two-level tasks a timer can issue.
var (
	TaskSB Task = stage{op: opDown, lv: 0}
	TaskIB Task = stage{op: opDown, lv: 1}
	TaskIR Task = stage{op: opUp, lv: 1}
)

// StartTasks begins a timer on rank p — the given tasks issued together,
// with no preceding task history, on one fs-sized segment — and returns it
// as a routine (see StartSeries). Its Steps are the one duration, or nil
// on a rank that is no member of the level the tasks share.
func (h *HAN) StartTasks(p *mpi.Proc, op mpi.Op, dt mpi.Datatype, cfg Config, tasks ...Task) *Timed {
	return h.startTimed(p, "TimeTasks", coll.Bcast, 1, op, dt, cfg, tasks)
}

// TimeTasks is StartTasks on a goroutine rank: the duration on the calling
// rank, or 0 on a rank that takes no part. With TaskIB alone it is a lone
// ib, with TaskIB and TaskSB the naive concurrent sb+ib of Fig 2, with
// TaskIB and TaskIR the full-duplex overlap of Fig 6. A configuration
// without an explicit segment size, with an unknown submodule name or with
// Levels set is rejected with a *ConfigError. Like Series, it is the
// goroutine-rank reference of TestGoldenStepAndTimerBits and
// TestSweepRunsRanksWithoutGoroutines; no binary calls it.
func (h *HAN) TimeTasks(p *mpi.Proc, op mpi.Op, dt mpi.Datatype, cfg Config, tasks ...Task) (sim.Time, error) {
	steps, err := h.timed(p, "TimeTasks", coll.Bcast, 1, op, dt, cfg, tasks)
	if steps == nil {
		return 0, err
	}
	return steps[0], err
}
