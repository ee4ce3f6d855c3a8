package main

import (
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
)

// workload is a named configuration with its parameters as constants
// beside the harness. Ranks, message sizes and mixes are fixed here; only
// the number of rounds follows -seconds.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	// roundSeconds is the host time one timed round takes on the reference
	// host (2 cores at 2.1 GHz); a run holds seconds/roundSeconds rounds.
	roundSeconds float64
	// setupReps is how many times set-up runs for the median setup_s. The
	// 4096-rank set-up is one 5 s warm-up op, so it runs once.
	setupReps int
	setup     func(c *runCtx) (instance, error)
}

func shaheen(nodes int) cluster.Spec {
	s := cluster.ShaheenII()
	s.Nodes = nodes
	return s
}

var workloads = []*workload{
	{
		name:         "bcast4096_256k",
		why:          "ROADMAP headline: one 4096-rank HAN Bcast (ShaheenII 128x32, 256 KiB); 4096 parked procs, so sim and mpi do the work",
		roundSeconds: 4.0,
		setupReps:    1,
		setup: collectiveLoad{
			spec: shaheen(128), kind: coll.Bcast, size: 256 << 10, parallelProbe: true,
		}.setup,
	},
	{
		name:         "allreduce1024_16m",
		why:          "same layers used differently: 1024-rank Allreduce of 16 MiB; rendezvous, 16+ segments, long flows, so han, coll and flow do the work",
		roundSeconds: 0.9,
		setupReps:    3,
		setup: collectiveLoad{
			spec: shaheen(32), kind: coll.Allreduce, size: 16 << 20,
		}.setup,
	},
	{
		name:         "tune_sweep",
		why:          "ROADMAP per tuning sweep: Combined + Exhaustive search, 174 small worlds per op at nproc workers; world build/teardown and exec dominate",
		roundSeconds: 3.1,
		setupReps:    1,
		setup:        tuneLoad{}.setup,
	},
	{
		name:         "serve_wire",
		why:          "ROADMAP per hand decision over the real socket: closed loop over loopback TCP, all LRU hits; framing and syscalls dominate, lookup does not",
		roundSeconds: 0.75,
		setupReps:    3,
		setup: serveLoad{
			wire: true, clusters: 1, sizeMix: loadgenSizes(), opsPerRound: 50_000, sampleEvery: 1,
		}.setup,
	},
	{
		name:         "serve_local_churn",
		why:          "no syscalls, ~98% LRU misses, republish beside reads: snapshot load, index walk, LRU evict and stale handling do the work; bypasses the wire",
		roundSeconds: 0.65,
		setupReps:    3,
		setup: serveLoad{
			clusters: 4, sizeMix: churnSizes(16384), opsPerRound: 500_000, publishEvery: 50_000, sampleEvery: 16,
		}.setup,
	},
}
