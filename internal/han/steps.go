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
// phantom segments: the step schedules run the derived stage table with
// step timing on; a timer is a one-segment table with every offset 0.

// timed runs a stage table on the two-level world hierarchy over u phantom
// segments of cfg.FS bytes, after a barrier, and returns the calling
// rank's per-step durations. A nil table means the derived schedule of
// kind, synchronised on the world and reported on leaders; an explicit
// table synchronises on the communicator its stages span — the level's
// when they share one, where non-members return nil without taking part —
// else the world.
func (h *HAN) timed(p *mpi.Proc, who string, kind coll.Kind, u int, op mpi.Op, dt mpi.Datatype, cfg Config, table []stage) ([]sim.Time, error) {
	if cfg.FS <= 0 {
		return nil, &ConfigError{Op: who, Param: "fs",
			Value: fmt.Sprintf("%d (steps need an explicit segment size)", cfg.FS)}
	}
	if err := h.resolve(kind, u*cfg.FS, &cfg); err != nil {
		return nil, err
	}
	bar := h.W.World()
	buf := mpi.Phantom(u * cfg.FS)
	pl := &h.slot(p).pl
	defer func() { *pl = pipeline{} }() // free the slot
	pl.init(buf, buf, buf.N, op, dt, cfg.FS)
	hr, _ := h.analyze(p, bar, who, false) // a one-node world still has both comms
	h.twoLevels(pl, &hr, kind, &cfg)

	if table == nil {
		pl.derive(p, kind)
	} else {
		oneLevel := true
		for _, st := range table {
			oneLevel = oneLevel && st.lv == table[0].lv
			if pl.lv[st.lv].comm != nil {
				pl.st[pl.nst] = st
				pl.nst++
			}
		}
		if oneLevel {
			if bar = pl.lv[table[0].lv].comm; bar == nil {
				return nil, nil
			}
		}
	}
	bar.Barrier(p)
	steps := make([]sim.Time, u+pl.depth)
	pl.run(steps)
	if table == nil && !hr.isLeader {
		return nil, nil // the schedules report the leaders' view
	}
	return steps, nil
}

// BcastSteps runs the Fig 1 leader schedule over u phantom segments and
// returns, on leaders, the per-task durations
//
//	[ ib(0), sbib(1), …, sbib(u-1), sb(u-1) ]
//
// (length u+1). Non-leaders participate in the sb tasks and return nil.
// The sbib(i) durations exhibit the pipeline warm-up and stabilisation of
// Fig 3. A configuration without an explicit segment size (or with an
// unknown submodule name) is rejected with a *ConfigError.
func (h *HAN) BcastSteps(p *mpi.Proc, u int, cfg Config) ([]sim.Time, error) {
	return h.timed(p, "BcastSteps", coll.Bcast, u, mpi.OpSum, mpi.Byte, cfg, nil)
}

// AllreduceSteps runs the Fig 5 pipeline over u phantom segments and
// returns, on leaders, the per-step durations
//
//	[ sr(0), irsr(1), ibirsr(2), sbibirsr(3..u-1), sbibir, sbib, sb ]
//
// (length u+3). Non-leaders participate in the sr/sb tasks and return nil.
// A configuration without an explicit segment size (or with an unknown
// submodule name) is rejected with a *ConfigError.
func (h *HAN) AllreduceSteps(p *mpi.Proc, u int, op mpi.Op, dt mpi.Datatype, cfg Config) ([]sim.Time, error) {
	return h.timed(p, "AllreduceSteps", coll.Allreduce, u, op, dt, cfg, nil)
}

// timeTasks measures the given tasks issued together, with no preceding
// task history, on one fs-sized segment. The task benchmarks enumerate
// configurations from the tuner's own search space, so a rejected one is a
// programming error.
func (h *HAN) timeTasks(p *mpi.Proc, op mpi.Op, dt mpi.Datatype, cfg Config, tasks ...stage) sim.Time {
	steps, err := h.timed(p, "timeTasks", coll.Bcast, 1, op, dt, cfg, tasks)
	if err != nil {
		panic(err)
	}
	if steps == nil {
		return 0
	}
	return steps[0]
}

// The two-level tasks, as rows of a timer's stage table.
var (
	taskSB = stage{op: opDown, lv: 0}
	taskIB = stage{op: opDown, lv: 1}
	taskIR = stage{op: opUp, lv: 1}
)

// TimeIB measures a lone ib task (inter-node broadcast of one fs-sized
// segment, leaders only). Non-leaders return 0 immediately.
func (h *HAN) TimeIB(p *mpi.Proc, cfg Config) sim.Time {
	return h.timeTasks(p, mpi.OpSum, mpi.Byte, cfg, taskIB)
}

// TimeSB measures a lone sb task (intra-node broadcast of one fs-sized
// segment). Every rank participates; the returned duration is the cost on
// the calling rank (the leader's value enters equation 3).
func (h *HAN) TimeSB(p *mpi.Proc, cfg Config) sim.Time {
	return h.timeTasks(p, mpi.OpSum, mpi.Byte, cfg, taskSB)
}

// TimeConcurrentSBIB measures an sb and an ib issued simultaneously with no
// preceding task history (the green bars of Fig 2: the naive measurement
// that misses the staggered starting times the real pipeline produces).
func (h *HAN) TimeConcurrentSBIB(p *mpi.Proc, cfg Config) sim.Time {
	return h.timeTasks(p, mpi.OpSum, mpi.Byte, cfg, taskIB, taskSB)
}

// TimeConcurrentIBIR measures an ib and an ir issued simultaneously on
// leaders (Fig 6: the full-duplex overlap between the inter-node broadcast
// and reduction). Non-leaders return 0.
func (h *HAN) TimeConcurrentIBIR(p *mpi.Proc, op mpi.Op, dt mpi.Datatype, cfg Config) sim.Time {
	return h.timeTasks(p, op, dt, cfg, taskIB, taskIR)
}

// TimeIR measures a lone ir task on leaders; non-leaders return 0.
func (h *HAN) TimeIR(p *mpi.Proc, op mpi.Op, dt mpi.Datatype, cfg Config) sim.Time {
	return h.timeTasks(p, op, dt, cfg, taskIR)
}
