// Tuning example: run the task-based autotuner on a small machine, inspect
// the lookup table it produces, and measure how much the tuned decisions
// improve over the static default — the end-to-end workflow of section
// III-C.
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
)

func main() {
	spec := cluster.Tuning64()
	spec.Nodes, spec.PPN = 8, 8
	env := autotune.NewEnv(spec, mpi.OpenMPI())
	space := autotune.Space{
		Msgs:  []int{4 << 10, 256 << 10, 4 << 20},
		FS:    []int{64 << 10, 256 << 10, 1 << 20},
		IMods: han.InterNames(),
		SMods: han.IntraNames(),
		IBS:   []int{64 << 10},
	}

	// 1. Tune with the combined (task-based + heuristics) method.
	res := autotune.RunSearch(env, space, []coll.Kind{coll.Bcast}, autotune.Combined, autotune.SearchOpts{})
	table := res.Table
	fmt.Printf("tuned %d inputs with %d benchmark runs (%.2f s of virtual machine time)\n\n",
		len(table.Entries), table.Measurements, table.TuningCost)
	for _, e := range table.Entries {
		fmt.Printf("  %-26s -> %s\n", e.In, e.Cfg)
	}

	// 2. Persist and reload the lookup table, as an MPI installation would.
	path := filepath.Join(os.TempDir(), "han-tuning-example.json")
	if err := table.Save(path); err != nil {
		log.Fatal(err)
	}
	loaded, err := autotune.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlookup table round-tripped through %s\n", path)

	// 3. Compare tuned vs untuned decisions end to end.
	fmt.Printf("\n%-10s%14s%14s%10s\n", "size", "default µs", "tuned µs", "gain")
	for _, m := range []int{4 << 10, 256 << 10, 4 << 20, 16 << 20} {
		def := env.MeasureCollective(coll.Bcast, m, han.DefaultDecision(coll.Bcast, m), 2, nil)
		tuned := env.MeasureCollective(coll.Bcast, m, loaded.Decide(coll.Bcast, m), 2, nil)
		fmt.Printf("%-10s%14.1f%14.1f%9.2fx\n", han.SizeString(m), def*1e6, tuned*1e6, def/tuned)
	}
}
