package autotune

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
)

// FuzzLoadTable feeds arbitrary bytes to Load as a table file. Load must
// never panic: it returns a wrapped error, or a table whose indexed Decide
// agrees with the reference scan for every kind at sizes from empty to 1 TiB.
func FuzzLoadTable(f *testing.F) {
	space := Space{Msgs: []int{4 << 10, 1 << 20}, FS: []int{64 << 10, 256 << 10},
		IMods: han.InterNames(), SMods: han.IntraNames(), IBS: []int{32 << 10}}
	swept := RunSearch(testEnv(), space, []coll.Kind{coll.Bcast, coll.Allreduce}, Combined, SearchOpts{Workers: 1}).Table
	seed := filepath.Join(f.TempDir(), "sweep.json")
	if err := swept.Save(seed); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte(`{"Entries":[{"In":{"M":0,"T":2}},{"In":{"M":-5,"T":99}},{"In":{"M":3,"T":2},"Cfg":{"FS":9}}]}`))
	f.Add([]byte(`{"Entries":null}`))
	f.Add([]byte(`[`))

	kinds := []coll.Kind{coll.Bcast, coll.Reduce, coll.Allreduce, coll.Gather, coll.Allgather, coll.Scatter}
	sizes := []int{0, 1, 4 << 10, 1 << 20, 1 << 40}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "table.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		table, err := Load(path)
		if err != nil {
			if errors.Unwrap(err) == nil {
				t.Fatalf("Load returned an unwrapped error: %v", err)
			}
			return
		}
		for _, kind := range kinds {
			for _, m := range sizes {
				if got, want := table.Decide(kind, m), table.decideScan(kind, m); got != want {
					t.Fatalf("Decide(%v, %d) = %+v, the scan says %+v", kind, m, got, want)
				}
			}
		}
	})
}
