package autotune

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
)

// fixtureTables builds a spread of tables that exercise the decision
// rule's corners: sorted and unsorted entry orders, duplicate bit-length
// classes, multiple kinds interleaved, degenerate M <= 0 entries, and a
// table produced by a real (tiny) search.
func fixtureTables(t *testing.T) map[string]*Table {
	t.Helper()
	// IRS tells entries apart where Decide clamps FS to the query size.
	cfgAt := func(i int) han.Config {
		return han.Config{FS: (i + 1) << 10, IRS: i + 1, IMod: "libnbc", SMod: "sm", IBAlg: coll.AlgBinomial, IRAlg: coll.AlgBinomial}
	}
	entry := func(kind coll.Kind, m, i int) Entry {
		return Entry{In: Input{N: 4, P: 4, M: m, T: kind}, Cfg: cfgAt(i), EstCost: float64(i)}
	}

	tables := map[string]*Table{}

	sortedT := &Table{Machine: "fixture", Method: "task"}
	for i, m := range []int{4, 64, 1 << 10, 16 << 10, 256 << 10, 1 << 20, 4 << 20} {
		sortedT.Entries = append(sortedT.Entries, entry(coll.Bcast, m, i))
	}
	tables["sorted-bcast"] = sortedT

	// Interleaved kinds in load order (stable sort by M mixes kinds).
	mixed := &Table{Machine: "fixture", Method: "task"}
	i := 0
	for _, m := range []int{4, 4, 64, 1 << 10, 1 << 10, 64 << 10, 1 << 20} {
		mixed.Entries = append(mixed.Entries, entry(coll.Bcast, m, i))
		i++
		mixed.Entries = append(mixed.Entries, entry(coll.Allreduce, m, i))
		i++
	}
	tables["mixed-kinds"] = mixed

	// Unsorted entry order with same-class duplicates: ties must resolve
	// to the earliest slice index, whatever the order.
	unsorted := &Table{Machine: "fixture", Method: "exhaustive"}
	for j, m := range []int{1 << 20, 4, 1000, 1023, 64 << 10, 4, 512, 1 << 20} {
		unsorted.Entries = append(unsorted.Entries, entry(coll.Bcast, m, j))
	}
	tables["unsorted-dups"] = unsorted

	// Degenerate sizes: M = 0 entries have infinite distance to every
	// query and only win when nothing else can.
	degenerate := &Table{Machine: "fixture", Method: "task"}
	degenerate.Entries = append(degenerate.Entries,
		entry(coll.Bcast, 0, 0),
		entry(coll.Bcast, 1<<10, 1),
		entry(coll.Allreduce, 0, 2),
	)
	tables["degenerate"] = degenerate

	// Equidistant classes: a query of bit length 6 lies two classes from
	// 16 and from 256. The scan keeps whichever came first in entry order,
	// so one kind lists the higher class first and the other the lower.
	equidistant := &Table{Machine: "fixture", Method: "task"}
	equidistant.Entries = append(equidistant.Entries,
		entry(coll.Bcast, 256, 0),
		entry(coll.Bcast, 16, 1),
		entry(coll.Allreduce, 16, 2),
		entry(coll.Allreduce, 256, 3),
	)
	tables["equidistant"] = equidistant

	// A kind whose every entry has M <= 0 answers with its first entry
	// at every size; another kind beside it is indexed as usual.
	nonPositive := &Table{Machine: "fixture", Method: "task"}
	nonPositive.Entries = append(nonPositive.Entries,
		entry(coll.Gather, 4<<10, 0),
		entry(coll.Scatter, -5, 1),
		entry(coll.Scatter, 0, 2),
		entry(coll.Scatter, math.MinInt, 3),
	)
	tables["non-positive"] = nonPositive

	// Kinds outside coll's six have no slot in the index.
	foreign := &Table{Machine: "fixture", Method: "task"}
	foreign.Entries = append(foreign.Entries,
		entry(coll.Kind(99), 1<<10, 0),
		entry(coll.Kind(-1), 1<<20, 1),
		entry(coll.Bcast, 64, 2),
	)
	tables["foreign-kinds"] = foreign

	empty := &Table{Machine: "fixture", Method: "task"}
	tables["empty"] = empty

	// A real search output on the mini machine, both tuned kinds.
	env := NewEnv(cluster.Mini(2, 2), mpi.OpenMPI())
	space := Space{
		Msgs:  []int{1 << 10, 64 << 10},
		FS:    []int{32 << 10},
		IMods: []string{"libnbc"},
		SMods: []string{"sm"},
		IBS:   []int{32 << 10},
	}
	res := RunSearch(env, space, []coll.Kind{coll.Bcast, coll.Allreduce}, Combined, SearchOpts{Workers: 1})
	tables["searched"] = res.Table

	return tables
}

// TestDecideMatchesScan is the differential gate for the tabulated
// decision index: across every fixture table and every kind, for sizes at
// and around every bit length 0..62, non-positive sizes and random sizes,
// Decide must return exactly what the reference linear scan returns.
func TestDecideMatchesScan(t *testing.T) {
	queries := []int{math.MinInt, -1 << 20, -1, 0, 1000, 1023, 1025, math.MaxInt}
	for b := 0; b <= 62; b++ {
		m := 1 << b
		queries = append(queries, m-1, m, m+1, m+m/2, 2*m-1)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		queries = append(queries, rng.Intn(16<<20), int(rng.Int63()))
	}

	kinds := []coll.Kind{coll.Bcast, coll.Reduce, coll.Allreduce, coll.Gather, coll.Allgather, coll.Scatter, coll.Kind(99), coll.Kind(-1)}
	for name, table := range fixtureTables(t) {
		for _, kind := range kinds {
			for _, m := range queries {
				got := table.Decide(kind, m)
				want := table.decideScan(kind, m)
				if got != want {
					t.Fatalf("table %q: Decide(%v, %d) = %+v, scan says %+v", name, kind, m, got, want)
				}
			}
		}
	}
}

// TestDecideIndexRebuild pins the lazy-rebuild contract: appending entries
// after a Decide invalidates the index, and the next Decide sees them.
func TestDecideIndexRebuild(t *testing.T) {
	table := &Table{Machine: "fixture", Method: "task"}
	table.Entries = append(table.Entries, Entry{
		In:  Input{N: 2, P: 2, M: 1 << 10, T: coll.Bcast},
		Cfg: han.Config{FS: 1 << 10, IMod: "libnbc", SMod: "sm"},
	})
	if got := table.Decide(coll.Bcast, 1<<20); got.FS != 1<<10 {
		t.Fatalf("pre-append decision FS = %d, want %d", got.FS, 1<<10)
	}
	table.Entries = append(table.Entries, Entry{
		In:  Input{N: 2, P: 2, M: 1 << 20, T: coll.Bcast},
		Cfg: han.Config{FS: 512 << 10, IMod: "adapt", SMod: "solo"},
	})
	if got := table.Decide(coll.Bcast, 1<<20); got.FS != 512<<10 {
		t.Fatalf("post-append decision FS = %d, want %d (index did not rebuild)", got.FS, 512<<10)
	}
	if got, want := table.Decide(coll.Bcast, 1<<20), table.decideScan(coll.Bcast, 1<<20); got != want {
		t.Fatalf("post-append Decide = %+v, scan says %+v", got, want)
	}
}

// TestDecideZeroAlloc pins the hot-path allocation contract the serving
// layer relies on: once the index is built, Decide allocates nothing.
func TestDecideZeroAlloc(t *testing.T) {
	table := decideBenchTable()
	table.BuildIndex()
	allocs := testing.AllocsPerRun(1000, func() {
		_ = table.Decide(coll.Bcast, 300<<10)
		_ = table.Decide(coll.Allreduce, 5)
	})
	if allocs != 0 {
		t.Fatalf("Decide allocated %.1f allocs/op on the hot path, want 0", allocs)
	}
}

func decideBenchTable() *Table {
	table := &Table{Machine: "bench", Method: "task"}
	i := 0
	for _, kind := range []coll.Kind{coll.Bcast, coll.Allreduce} {
		for m := 4; m <= 4<<20; m <<= 2 {
			table.Entries = append(table.Entries, Entry{
				In:      Input{N: 8, P: 8, M: m, T: kind},
				Cfg:     han.Config{FS: m, IMod: "libnbc", SMod: "sm", IBAlg: coll.AlgBinomial, IRAlg: coll.AlgBinomial},
				EstCost: float64(i),
			})
			i++
		}
	}
	return table
}

// BenchmarkDecide measures the indexed lookup the serving hot path calls;
// run with -benchmem — the allocation column must stay at 0.
func BenchmarkDecide(b *testing.B) {
	table := decideBenchTable()
	table.BuildIndex()
	sizes := []int{4, 777, 64 << 10, 300 << 10, 1 << 20, 7 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = table.Decide(coll.Bcast, sizes[i%len(sizes)])
	}
}

// BenchmarkDecideScan is the reference scan, kept for the
// comparison with BenchmarkDecide.
func BenchmarkDecideScan(b *testing.B) {
	table := decideBenchTable()
	sizes := []int{4, 777, 64 << 10, 300 << 10, 1 << 20, 7 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = table.decideScan(coll.Bcast, sizes[i%len(sizes)])
	}
}
