package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

var tunedKinds = []coll.Kind{coll.Bcast, coll.Allreduce}

// tuneLoad is the tuning-sweep workload: one op is a Combined sweep then an
// Exhaustive sweep (the cheapest and the dearest bar of Fig 8) over the
// Fig-8 space on Tuning64 at 8x4 — 174 measurements, each on its own small
// world, at nproc host workers.
type tuneLoad struct {
	env   autotune.Env
	space autotune.Space
	// ref is the first op's outcome: both tables' hashes and the summed
	// simulated tuning cost. Every later op must reproduce it exactly.
	ref sweepOut
	c   *runCtx
}

type sweepOut struct {
	combined, exhaustive [sha256.Size]byte
	simSeconds           float64
	measurements         int
	combinedD, exhaustD  time.Duration
}

func tuneSpace() autotune.Space {
	return autotune.Space{
		Msgs:  []int{4 << 10, 256 << 10, 4 << 20},
		FS:    []int{64 << 10, 256 << 10, 1 << 20},
		IMods: han.InterNames(),
		SMods: han.IntraNames(),
		IBS:   []int{64 << 10},
	}
}

func (l tuneLoad) setup(c *runCtx) (instance, error) {
	l.c = c
	spec := cluster.Tuning64()
	spec.Nodes, spec.PPN = 8, 4
	l.env = autotune.NewEnv(spec, mpi.OpenMPI())
	l.env.Seed = int64(c.seed)
	l.space = tuneSpace()
	if c.short {
		l.space.Msgs, l.space.FS = []int{256 << 10}, []int{64 << 10}
	}
	for _, kind := range tunedKinds {
		if err := checkCollective(kind, 1<<20, c.seed); err != nil {
			return nil, err
		}
	}
	var err error
	l.ref, err = l.sweep(c.nproc, nil, nil, 0)
	return &l, err
}

func tableHash(t *autotune.Table) ([sha256.Size]byte, error) {
	b, err := json.Marshal(t)
	return sha256.Sum256(b), err
}

// sweep is one op. rec and reg are nil except in the traced pass.
func (l *tuneLoad) sweep(workers int, rec *recorder, reg *metrics.Registry, op int) (sweepOut, error) {
	var out sweepOut
	root := rec.begin("op", 0, op)
	search := func(name string, method autotune.Method) (*autotune.Table, time.Duration) {
		t0 := time.Now()
		s := rec.begin(name, root, op)
		t := autotune.RunSearch(l.env, l.space, tunedKinds, method, autotune.SearchOpts{Iters: 2, Workers: workers, Metrics: reg}).Table
		rec.end(s)
		return t, time.Since(t0)
	}
	comb, combD := search("autotune.search_combined", autotune.Combined)
	exh, exhD := search("autotune.search_exhaustive", autotune.Exhaustive)
	rec.end(root)
	var err error
	if out.combined, err = tableHash(comb); err != nil {
		return out, err
	}
	if out.exhaustive, err = tableHash(exh); err != nil {
		return out, err
	}
	out.simSeconds = comb.TuningCost + exh.TuningCost
	out.measurements = comb.Measurements + exh.Measurements
	out.combinedD, out.exhaustD = combD, exhD
	return out, nil
}

func (l *tuneLoad) same(o sweepOut) bool {
	return o.combined == l.ref.combined && o.exhaustive == l.ref.exhaustive && o.simSeconds == l.ref.simSeconds
}

func (l *tuneLoad) round(int) (roundOut, error) {
	t0 := time.Now()
	o, err := l.sweep(l.c.nproc, nil, nil, 0)
	out := roundOut{ops: 1, latNs: []float64{float64(time.Since(t0).Nanoseconds())}}
	if !l.same(o) {
		out.failed = 1
	}
	return out, err
}

func (l *tuneLoad) close() {}

func (l *tuneLoad) traced(rec *recorder, layers map[string]float64) (roundOut, error) {
	var out roundOut
	reg := metrics.New()
	t0 := time.Now()
	o, err := l.sweep(l.c.nproc, rec, reg, 1)
	if err != nil {
		return out, err
	}
	wall := time.Since(t0)
	out.ops, out.latNs = 1, []float64{float64(wall.Nanoseconds())}
	if !l.same(o) {
		out.failed++
	}
	layers["autotune.search_combined_ms"] = ms(o.combinedD)
	layers["autotune.search_exhaustive_ms"] = ms(o.exhaustD)
	layers["autotune.measurements"] = float64(o.measurements)
	layers["autotune.tuning_cost_sim_s"] = o.simSeconds
	layers["sim.sim_us_per_op"] = o.simSeconds * 1e6
	counts, err := familySums(reg)
	if err != nil {
		return out, err
	}
	layers["exec.jobs"] = counts["exec_jobs_total"]
	layers["exec.steals"] = counts["exec_steals_total"]
	layers["exec.cache_hits"] = counts["exec_cache_hits_total"]
	layers["exec.cache_misses"] = counts["exec_cache_misses_total"]
	layers["exec.parallel_peak"] = counts["exec_parallel_peak"]

	// The same op on one worker: what the second core bought.
	t0 = time.Now()
	serial, err := l.sweep(1, nil, nil, 0)
	if err != nil {
		return out, err
	}
	if !l.same(serial) {
		out.failed++ // tables must be byte-identical at any worker count
	}
	layers["exec.speedup_workers"] = time.Since(t0).Seconds() / wall.Seconds()
	layers["exec.job_overhead_ns"] = probeJobOverhead(l.c.nproc, l.c.short)

	// One task measurement, and one measurement world built by hand: the
	// sweep builds 174 of these per op behind RunSearch, where no span of
	// ours can reach.
	m := l.space.Msgs[len(l.space.Msgs)-1]
	cfg := l.space.Expand(coll.Bcast, m, false, l.env.Spec.Nodes)[0].Cfg
	s := rec.begin("autotune.measure_tasks", 0, 2)
	l.env.MeasureBcastTasks(cfg, &autotune.Meter{})
	rec.end(s)
	layers["autotune.measure_tasks_ms"] = ms(rec.duration(s))

	root := rec.begin("measurement_world", 0, 3)
	s = rec.begin("cluster.machine_build", root, 3)
	eng := sim.New()
	mach := cluster.NewMachine(eng, l.env.Spec)
	rec.end(s)
	layers["cluster.machine_build_ms"] = ms(rec.duration(s))
	s = rec.begin("mpi.world_build", root, 3)
	w := mpi.NewWorld(mach, l.env.Pers)
	h := han.New(w)
	var rankErr error
	w.Start(func(p *mpi.Proc) {
		if err := h.Bcast(p, mpi.Phantom(m), 0, cfg); err != nil {
			rankErr = err
		}
	})
	rec.end(s)
	layers["mpi.world_build_ms"] = ms(rec.duration(s))
	s = rec.begin("sim.run", root, 3)
	err = eng.Run()
	rec.end(s)
	rec.end(root)
	if err = errors.Join(err, rankErr); err != nil {
		return out, fmt.Errorf("measurement world: %w", err)
	}
	layers["sim.run_ms"] = ms(rec.duration(s))
	return out, nil
}
