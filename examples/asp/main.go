// ASP example: solve a real all-pairs-shortest-path instance with the
// distributed Floyd–Warshall of the paper's Table III workload, verify it
// against a sequential solve, then time the communication skeleton at a
// larger scale to compare HAN with default Open MPI.
//
//	go run ./examples/asp
package main

import (
	"fmt"
	"math"

	"github.com/hanrepro/han/internal/apps"
	"github.com/hanrepro/han/internal/bench"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/rivals"
)

func main() {
	// Part 1: correctness on a real 16-city instance.
	const n = 16
	weights := make([][]float64, n)
	for i := range weights {
		weights[i] = make([]float64, n)
		for j := range weights[i] {
			switch u := hash01(i, j); {
			case i == j:
				weights[i][j] = 0
			case u < 0.4:
				weights[i][j] = math.Inf(1) // no direct road
			default:
				weights[i][j] = 1 + (u-0.4)/0.6*9
			}
		}
	}
	want := make([][]float64, n)
	for i := range want {
		want[i] = append([]float64(nil), weights[i]...)
	}
	apps.FloydWarshall(want)

	spec := cluster.Mini(2, 4)
	got := apps.DistributedASP(spec, bench.HANSystem(nil), weights)
	maxErr := 0.0
	for i := range got {
		for j := range got[i] {
			if d := math.Abs(got[i][j] - want[i][j]); d > maxErr {
				maxErr = d
			}
		}
	}
	fmt.Printf("distributed ASP over %d ranks: max deviation from sequential solve = %g\n",
		spec.Ranks(), maxErr)

	// Part 2: the Table III timing shape at reduced scale.
	big := cluster.Stampede2()
	big.Nodes, big.PPN = 4, 24
	prm := apps.DefaultASPParams(big.Ranks())
	prm.Iters = 16
	fmt.Printf("\nASP skeleton on %d processes (%d iterations of 4MB row broadcasts):\n",
		big.Ranks(), prm.Iters)
	fmt.Printf("%-18s%12s%12s%10s\n", "system", "total (s)", "comm (s)", "comm %")
	for _, sys := range []bench.System{
		bench.HANSystem(nil),
		bench.RivalSystem(rivals.OpenMPIDefault),
	} {
		r := apps.RunASP(big, sys, prm)
		fmt.Printf("%-18s%12.3f%12.3f%9.1f%%\n", r.System, r.Total, r.Comm, 100*r.CommRatio)
	}
}

// hash01 maps the city pair (i, j) to a fixed value in [0, 1) with one
// splitmix64 step, so the instance is the same on every run without an
// RNG of its own. About 40 % of the pairs come out below 0.4.
func hash01(i, j int) float64 {
	h := (uint64(i)<<32 | uint64(j)) + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}
