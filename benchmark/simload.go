package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/hanrepro/han/internal/bench"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// collectiveLoad is a simulator workload: one op is one IMB measurement of
// one HAN collective at one message size on one machine — exactly the call
// hanbench and BenchmarkFig10Scale4096 make.
type collectiveLoad struct {
	spec cluster.Spec
	kind coll.Kind
	size int
	// parallelProbe adds the sim.Parallel-vs-oracle probe (ROADMAP item 6)
	// to the traced pass; it has this workload's shape, a 4096-rank Bcast.
	parallelProbe bool
	// refBits is the simulated time of the warm-up op; every later op and
	// every traced replica must reproduce it bit for bit.
	refBits uint64
	c       *runCtx
}

// tracedOps is how many traced replicas of the op the traced pass runs.
const tracedOps = 2

func (l collectiveLoad) setup(c *runCtx) (instance, error) {
	l.c = c
	if c.short {
		l.spec.Nodes, l.spec.PPN = 8, 8
	}
	if err := checkCollective(l.kind, min(l.size, 1<<20), c.seed); err != nil {
		return nil, err
	}
	// The warm-up op grows the heap and the goroutine stacks the timed ops
	// reuse; a cold first op is slower than the regression bound.
	l.refBits = math.Float64bits(l.op())
	return &l, nil
}

func (l *collectiveLoad) op() (simSeconds float64) {
	return bench.IMBWith(l.spec, bench.HANSystem(nil), l.kind, []int{l.size}, bench.IMBOpts{Seed: int64(l.c.seed)})[0].Seconds
}

func (l *collectiveLoad) round(int) (roundOut, error) {
	t0 := time.Now()
	bits := math.Float64bits(l.op())
	out := roundOut{ops: 1, latNs: []float64{float64(time.Since(t0).Nanoseconds())}}
	if bits != l.refBits {
		out.failed = 1
	}
	return out, nil
}

func (l *collectiveLoad) close() {}

// replicaMode selects what the ranks of a replica do, for the differential
// attribution of host time inside Engine.Run: every rank runs under one
// Run by baton-passing, so per-rank host spans would overlap meaninglessly.
type replicaMode string

const (
	fullOp      replicaMode = "op"              // barriers and the collective: IMBWith's loop
	barrierOnly replicaMode = "op.barrier_only" // the same loop without the collective
	spawnOnly   replicaMode = "op.spawn_only"   // ranks start and exit
)

type replicaOut struct {
	simSeconds                float64 // IMB t_max: mean over timed iterations of the slowest rank
	barrierSimSeconds         float64 // the same for the barrier before each collective
	total, build, world, runD time.Duration
	counts                    map[string]float64 // metric families summed over labels
	flowsStarted              int
	flowBytes                 float64
}

// replica replays IMBWith's loop from here through the same public calls,
// so that a span can sit at each boundary and the layers' counters can be
// switched on. A full-mode replica must reproduce IMBWith's sim bits.
func (l *collectiveLoad) replica(mode replicaMode, rec *recorder, op int) (replicaOut, error) {
	sys := bench.HANSystem(nil)
	iters := bench.ItersFor(l.size)
	ranks := l.spec.Ranks()
	// Per-iteration, per-rank simulated instants: barrier entry, collective
	// entry, collective exit. Ranks run one at a time, each in its own slot.
	stamps := make([][3]sim.Time, (iters+1)*ranks)

	root := rec.begin(string(mode), 0, op)
	s := rec.begin("cluster.machine_build", root, op)
	eng := sim.New()
	mach := cluster.NewMachine(eng, l.spec)
	rec.end(s)
	build := rec.duration(s)

	s = rec.begin("mpi.world_build", root, op)
	w := mpi.NewWorld(mach, sys.Pers)
	if l.c.seed != 0 {
		w.Seed(int64(l.c.seed))
	}
	reg := metrics.New()
	w.EnableMetrics(reg)
	mon := mach.Net.EnableMonitor()
	ops := sys.Setup(w)
	w.Start(func(p *mpi.Proc) {
		if mode == spawnOnly {
			return
		}
		c := w.World()
		for it := 0; it <= iters; it++ {
			st := &stamps[it*ranks+p.Rank]
			st[0] = p.Now()
			c.Barrier(p)
			st[1] = p.Now()
			if mode == fullOp {
				switch l.kind {
				case coll.Bcast:
					ops.Bcast(p, mpi.Phantom(l.size), 0)
				case coll.Allreduce:
					ops.Allreduce(p, mpi.Phantom(l.size), mpi.Phantom(l.size), mpi.OpSum, mpi.Float64)
				}
			}
			st[2] = p.Now()
		}
	})
	rec.end(s)
	world := rec.duration(s)

	run := rec.begin("sim.run", root, op)
	err := eng.Run()
	rec.end(run)
	rec.end(root)
	if err != nil {
		return replicaOut{}, fmt.Errorf("replica %s: %w", mode, err)
	}

	out := replicaOut{total: rec.duration(root), build: build, world: world, runD: rec.duration(run)}
	// Simulated-time spans: rank 0 and the slowest rank of each timed
	// iteration; the slowest rank's spans are what IMB reports.
	for it := 1; it <= iters && mode != spawnOnly; it++ {
		slow, slowBar := 0, 0
		for r := 0; r < ranks; r++ {
			st, cur, curBar := stamps[it*ranks+r], stamps[it*ranks+slow], stamps[it*ranks+slowBar]
			if st[2]-st[1] > cur[2]-cur[1] {
				slow = r
			}
			if st[1]-st[0] > curBar[1]-curBar[0] {
				slowBar = r
			}
		}
		for _, r := range []int{0, slowBar, slow} {
			st := stamps[it*ranks+r]
			rec.add(fmt.Sprintf("mpi.barrier rank=%d", r), "sim", run, op, simNs(st[0]), simNs(st[1]))
			rec.add(fmt.Sprintf("han.collective rank=%d", r), "sim", run, op, simNs(st[1]), simNs(st[2]))
		}
		st, stBar := stamps[it*ranks+slow], stamps[it*ranks+slowBar]
		out.simSeconds += float64(st[2] - st[1])
		out.barrierSimSeconds += float64(stBar[1] - stBar[0])
	}
	// Sum, then divide: IMBWith's order, so the bits can match.
	out.simSeconds /= float64(iters)
	out.barrierSimSeconds /= float64(iters)
	if out.counts, err = familySums(reg); err != nil {
		return replicaOut{}, err
	}
	totals := mon.Totals()
	out.flowsStarted, out.flowBytes = totals.Started, totals.Bytes
	return out, nil
}

func simNs(t sim.Time) int64 { return int64(math.Round(float64(t) * 1e9)) }

// familySums reads a registry through its public export and sums every
// metric family over its label sets.
func familySums(reg *metrics.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteOpenMetrics(&buf, 0); err != nil {
		return nil, err
	}
	sums := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if i := strings.LastIndexByte(rest, '}'); i >= 0 {
			rest = rest[i+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics export line %q: %w", line, err)
		}
		sums[name] += v
	}
	return sums, sc.Err()
}

func (l *collectiveLoad) traced(rec *recorder, layers map[string]float64) (roundOut, error) {
	var out roundOut
	var runMs, buildMs, worldMs []float64
	var full replicaOut
	for i := 0; i < tracedOps; i++ {
		r, err := l.replica(fullOp, rec, i+1)
		if err != nil {
			return out, err
		}
		out.ops++
		if math.Float64bits(r.simSeconds) != l.refBits {
			out.failed++
		}
		out.latNs = append(out.latNs, float64(r.total.Nanoseconds()))
		runMs, buildMs, worldMs = append(runMs, ms(r.runD)), append(buildMs, ms(r.build)), append(worldMs, ms(r.world))
		full = r
	}
	bar, err := l.replica(barrierOnly, rec, tracedOps+1)
	if err != nil {
		return out, err
	}
	spawn, err := l.replica(spawnOnly, rec, tracedOps+2)
	if err != nil {
		return out, err
	}
	layers["sim.run_ms"] = median(runMs)
	layers["cluster.machine_build_ms"] = median(buildMs)
	layers["mpi.world_build_ms"] = median(worldMs)
	layers["mpi.barrier_run_ms"] = ms(bar.runD - spawn.runD)
	layers["han.collective_run_ms"] = median(runMs) - ms(bar.runD)
	layers["sim.sim_us_per_op"] = full.simSeconds * 1e6
	layers["han.sim_us"] = full.simSeconds * 1e6
	layers["mpi.barrier_sim_us"] = full.barrierSimSeconds * 1e6
	layers["mpi.messages"] = full.counts["mpi_messages_total"]
	layers["mpi.sent_bytes"] = full.counts["mpi_sent_bytes_total"]
	layers["mpi.unexpected_messages"] = full.counts["mpi_unexpected_messages_total"]
	layers["mpi.rendezvous_stalls"] = full.counts["mpi_rendezvous_stalls_total"]
	layers["mpi.retransmits"] = full.counts["mpi_retransmits_total"]
	layers["han.tasks"] = full.counts["han_tasks_total"]
	layers["han.fallbacks"] = full.counts["han_fallbacks_total"]
	if n := full.counts["han_segments_per_collective_count"]; n > 0 {
		layers["han.segments_per_collective"] = full.counts["han_segments_per_collective_sum"] / n
	}
	layers["flow.flows_started"] = float64(full.flowsStarted)
	layers["flow.flow_bytes"] = full.flowBytes
	if full.counts["mpi_retransmits_total"] != 0 || full.counts["han_fallbacks_total"] != 0 {
		out.failed++ // a clean plan neither retransmits nor falls back
	}

	ranks := l.spec.Ranks()
	layers["sim.timer_event_ns"] = probeTimerEvent(ranks, l.c.short)
	layers["sim.proc_switch_ns"] = probeProcSwitch(ranks, l.c.short)
	layers["mpi.p2p_eager_msg_ns"] = probePingPong(1<<10, l.c.short)
	layers["mpi.p2p_rndv_msg_ns"] = probePingPong(1<<20, l.c.short)
	layers["flow.fanin128_flow_ns"] = probeFlowFanIn(l.c.short)
	layers["flow.chain_flow_ns"] = probeFlowChain(l.c.short)
	if l.parallelProbe {
		ok, err := probeParallel(l.spec, l.size, l.c, layers)
		if err != nil {
			return out, err
		}
		if !ok {
			out.failed++
		}
	}
	return out, nil
}
