package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/hanrepro/han/internal/bench"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/exec"
	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// checkCollective is correctness before speed: the collective runs on
// cluster.Mini(4,4) with real payloads made from the seed, and every
// rank's result is checked byte for byte (Bcast: the root's buffer;
// Allreduce: the float64 sum, exact because contributions are small
// integers).
func checkCollective(kind coll.Kind, size int, seed uint64) error {
	spec := cluster.Mini(4, 4)
	ranks, elems := spec.Ranks(), size/8
	contribution := func(rank int) []float64 {
		v := make([]float64, elems)
		for i := range v {
			v[i] = float64(mix64(seed^uint64(rank)<<40^uint64(i)) % 1024)
		}
		return v
	}
	var want []byte
	switch kind {
	case coll.Bcast:
		want = mpi.EncodeFloat64s(contribution(0))
	case coll.Allreduce:
		sum := make([]float64, elems)
		for r := 0; r < ranks; r++ {
			for i, v := range contribution(r) {
				sum[i] += v
			}
		}
		want = mpi.EncodeFloat64s(sum)
	default:
		return fmt.Errorf("no payload check for %s", kind)
	}

	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	ops := bench.HANSystem(nil).Setup(w)
	wrong := make([]bool, ranks)
	w.Start(func(p *mpi.Proc) {
		var got []byte
		switch kind {
		case coll.Bcast:
			got = make([]byte, len(want))
			if p.Rank == 0 {
				copy(got, want)
			}
			ops.Bcast(p, mpi.Bytes(got), 0)
		case coll.Allreduce:
			got = make([]byte, len(want))
			ops.Allreduce(p, mpi.Bytes(mpi.EncodeFloat64s(contribution(p.Rank))), mpi.Bytes(got), mpi.OpSum, mpi.Float64)
		}
		wrong[p.Rank] = !bytes.Equal(got, want)
	})
	if err := eng.Run(); err != nil {
		return fmt.Errorf("payload check %s: %w", kind, err)
	}
	for r, bad := range wrong {
		if bad {
			return fmt.Errorf("payload check %s: rank %d holds the wrong %d bytes", kind, r, len(want))
		}
	}
	return nil
}

// The probes below each drive one layer's public API alone, with the shape
// the workload gives it, and return host nanoseconds per unit of that
// layer's work. They are the per-layer numbers an optimisation of that
// layer should move first.

// probeTimerEvent times the bare event heap: depth callbacks stay pending,
// each rearming itself at a pseudo-random later time, for about a million
// pops at constant depth.
func probeTimerEvent(depth int, short bool) float64 {
	events := 1_000_000
	if short {
		events = 20_000
	}
	eng := sim.New()
	fired := 0
	for i := 0; i < depth; i++ {
		state := uint64(i)
		var self func()
		self = func() {
			fired++
			if fired+depth <= events {
				state = mix64(state)
				eng.Schedule(sim.Time(1+state%1024)*1e-9, self)
			}
		}
		eng.Schedule(sim.Time(i+1)*1e-9, self)
	}
	t0 := time.Now()
	if err := eng.Run(); err != nil {
		panic(err) // callbacks only: nothing can deadlock
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(fired)
}

// probeProcSwitch times the goroutine baton: procs processes each sleep in
// a loop, so every event parks one process and wakes another.
func probeProcSwitch(procs int, short bool) float64 {
	switches := 400_000
	if short {
		switches = 10_000
	}
	loops := max(1, switches/procs)
	eng := sim.New()
	for i := 0; i < procs; i++ {
		step := sim.Time(1+i%7) * 1e-9
		eng.Spawn("sleeper", func(p *sim.Proc) {
			for k := 0; k < loops; k++ {
				p.Sleep(step)
			}
		})
	}
	t0 := time.Now()
	if err := eng.Run(); err != nil {
		panic(err) // sleepers cannot deadlock
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(loops*procs)
}

// probePingPong times point-to-point matching and the protocol state
// machine: two ranks on two nodes bounce one message (1 KiB is eager,
// 1 MiB is rendezvous) and the result is host ns per message.
func probePingPong(size int, short bool) float64 {
	reps := 20_000
	if short {
		reps = 500
	}
	t0 := time.Now()
	_, err := mpi.Run(cluster.Mini(2, 1), mpi.OpenMPI(), func(p *mpi.Proc) {
		c := p.W.World()
		for r := 0; r < reps; r++ {
			if p.Rank == 0 {
				c.Send(p, mpi.Phantom(size), 1, 0)
				c.Recv(p, mpi.Phantom(size), 1, 0)
			} else {
				c.Recv(p, mpi.Phantom(size), 0, 0)
				c.Send(p, mpi.Phantom(size), 0, 0)
			}
		}
	})
	if err != nil {
		panic(err) // a fault-free two-rank ping-pong cannot fail
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(2*reps)
}

// probeFlowFanIn times max-min rebalancing where it is most expensive per
// flow: 128 flows sharing one resource (a NIC under an inter-node fan-in),
// ns per flow started and completed.
func probeFlowFanIn(short bool) float64 {
	return probeFlows(short, 128, func(n *flow.Network) func(j int) []*flow.Resource {
		link := n.NewResource("link", 1e9)
		return func(int) []*flow.Resource { return []*flow.Resource{link} }
	})
}

// probeFlowChain is the HAN data-path shape: flows over three chained
// resources (nicOut, nicIn, bus) whose neighbours overlap, so components
// couple transitively like a pipelined collective.
func probeFlowChain(short bool) float64 {
	const segs = 64
	return probeFlows(short, segs, func(n *flow.Network) func(j int) []*flow.Resource {
		hops := make([]*flow.Resource, segs+2)
		for j := range hops {
			hops[j] = n.NewResource("hop", 1e9)
		}
		return func(j int) []*flow.Resource { return hops[j : j+3] }
	})
}

func probeFlows(short bool, flows int, build func(*flow.Network) func(j int) []*flow.Resource) float64 {
	reps := 200
	if short {
		reps = 5
	}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		eng := sim.New()
		net := flow.NewNetwork(eng)
		path := build(net)
		for j := 0; j < flows; j++ {
			eng.SpawnAt(sim.Time(j)*1e-6, "f", func(p *sim.Proc) {
				p.Wait(net.StartOn(1e6, path(j)).Done())
			})
		}
		if err := eng.Run(); err != nil {
			panic(err) // every flow completes: capacities are positive
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps*flows)
}

// probeJobOverhead times the work-stealing executor on empty jobs: what
// exec adds to each measurement of a sweep.
func probeJobOverhead(workers int, short bool) float64 {
	jobs := 100_000
	if short {
		jobs = 5_000
	}
	slots := make([]byte, jobs)
	t0 := time.Now()
	exec.New(workers).Run(jobs, func(i int) { slots[i] = 1 })
	return float64(time.Since(t0).Nanoseconds()) / float64(jobs)
}

// probeParallel is the evidence ROADMAP item 6 asks for: the partitioned
// 4096-rank broadcast on the windowed engine at nproc workers against the
// serial oracle. It reports whether the two agreed on every rank's bits.
func probeParallel(spec cluster.Spec, size int, c *runCtx, layers map[string]float64) (bool, error) {
	groups := min(16, spec.Nodes)
	opts := bench.ParallelOpts{Groups: groups, Workers: c.nproc, Seed: int64(c.seed)}
	t0 := time.Now()
	par, err := bench.ParallelScaleBcast(spec, size, opts)
	if err != nil {
		return false, err
	}
	parWall := time.Since(t0)
	opts.Oracle = true
	t0 = time.Now()
	oracle, err := bench.ParallelScaleBcast(spec, size, opts)
	if err != nil {
		return false, err
	}
	oracleWall := time.Since(t0)
	layers["sim.parallel_wall_ms"] = ms(parWall)
	layers["sim.oracle_wall_ms"] = ms(oracleWall)
	layers["sim.parallel_speedup"] = oracleWall.Seconds() / parWall.Seconds()
	return par.Hash == oracle.Hash, nil
}
