// GPU example: the paper's future-work scenario — HAN combining its
// inter-node submodules with an intra-node GPU collective submodule. Runs a
// verified GPU-aware broadcast and allreduce on a simulated multi-GPU
// cluster, then shows why the GPU level belongs *inside* the task pipeline.
//
//	go run ./examples/gpu
package main

import (
	"fmt"
	"log"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

func main() {
	spec := cluster.ShaheenII()
	spec.Nodes, spec.PPN = 4, 8
	spec.GPUsPerNode = 4
	spec.GPUMemBandwidth = 700e9
	spec.NVLinkBandwidth = 50e9
	spec.PCIeBandwidth = 12e9

	// 1. Verified GPU-aware allreduce with real data.
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	h := han.New(w)
	ranks := spec.Ranks()
	w.Start(func(p *mpi.Proc) {
		vals := []float64{float64(p.Rank), 1}
		sbuf := mpi.Bytes(mpi.EncodeFloat64s(vals))
		rbuf := mpi.Bytes(make([]byte, sbuf.N))
		h.Allreduce(p, sbuf, rbuf, mpi.OpSum, mpi.Float64, han.Config{FS: 8, Levels: han.LevelsGPU})
		got := mpi.DecodeFloat64s(rbuf.B)
		if got[0] != float64(ranks*(ranks-1))/2 || got[1] != float64(ranks) {
			log.Fatalf("rank %d: wrong allreduce result %v", p.Rank, got)
		}
	})
	if err := eng.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GPU allreduce verified on %d ranks x %d GPUs/node\n\n", ranks, spec.GPUsPerNode)

	// 2. Pipelined vs naive staging for gradient-sized broadcasts.
	fmt.Printf("%-8s%18s%20s%8s\n", "size", "HAN BcastGPU µs", "naive staging µs", "gain")
	for _, m := range []int{1 << 20, 16 << 20, 64 << 20} {
		cfg := han.DefaultDecision(coll.Bcast, m)
		gpu := cfg
		gpu.Levels = han.LevelsGPU
		piped := timeRun(spec, func(h *han.HAN, p *mpi.Proc) {
			h.Bcast(p, mpi.Phantom(m), 0, gpu)
		})
		naive := timeRun(spec, func(h *han.HAN, p *mpi.Proc) {
			cuda := h.Mods.CUDA
			if p.Rank == 0 {
				p.Wait(cuda.D2H(p, m))
			}
			h.Bcast(p, mpi.Phantom(m), 0, cfg)
			if h.W.Mach.IsNodeLeader(p.Rank) {
				p.Wait(cuda.H2D(p, m))
			}
			p.Wait(cuda.Ibcast(p, h.W.NodeComm(p.Node()), mpi.Phantom(m), 0, coll.Params{}))
		})
		fmt.Printf("%-8s%18.1f%20.1f%7.2fx\n", han.SizeString(m), piped*1e6, naive*1e6, naive/piped)
	}
	fmt.Println("\nPipelining the PCIe stagings against the inter-node transfers (HAN's")
	fmt.Println("task-based design) hides most of the host round trip.")
}

func timeRun(spec cluster.Spec, fn func(h *han.HAN, p *mpi.Proc)) float64 {
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	h := han.New(w)
	var end sim.Time
	w.Start(func(p *mpi.Proc) {
		fn(h, p)
		if p.Now() > end {
			end = p.Now()
		}
	})
	if err := eng.Run(); err != nil {
		log.Fatal(err)
	}
	return float64(end)
}
