package bench

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenScenarios are the replay-determinism fixtures: three seeds, one
// with a fault plan, as the observability contract requires, and a block
// collective, whose critical path runs gather, allgather, broadcast.
func goldenScenarios(t *testing.T) map[string]Scenario {
	t.Helper()
	drops, err := fault.Builtin("drops")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Scenario{
		"bcast-2x2-1mb-s7": {
			Spec: cluster.Mini(2, 2), Kind: coll.Bcast, Size: 1 << 20, Seed: 7,
			Cfg: han.Config{FS: 256 << 10},
		},
		"allreduce-2x4-512k-s3": {
			Spec: cluster.Mini(2, 4), Kind: coll.Allreduce, Size: 512 << 10, Seed: 3,
			Cfg: han.Config{FS: 128 << 10},
		},
		"bcast-2x2-drops-s5": {
			Spec: cluster.Mini(2, 2), Kind: coll.Bcast, Size: 256 << 10, Seed: 5,
			Cfg: han.Config{FS: 64 << 10}, Faults: &drops,
		},
		"allgather-2x2-64k-s2": {
			Spec: cluster.Mini(2, 2), Kind: coll.Allgather, Size: 64 << 10, Seed: 2,
		},
	}
}

// renderAll runs every exporter over one observation.
func renderAll(t *testing.T, o *Observation) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for ext, f := range map[string]func(*Observation, *bytes.Buffer) error{
		"stats":    func(o *Observation, b *bytes.Buffer) error { return o.WriteStats(b) },
		"critpath": func(o *Observation, b *bytes.Buffer) error { return o.WriteCritPath(b) },
		"metrics":  func(o *Observation, b *bytes.Buffer) error { return o.WriteMetrics(b) },
		"chrome":   func(o *Observation, b *bytes.Buffer) error { return o.WriteChrome(b) },
	} {
		var b bytes.Buffer
		if err := f(o, &b); err != nil {
			t.Fatalf("%s: %v", ext, err)
		}
		out[ext] = b.Bytes()
	}
	return out
}

// TestObserveGoldens checks that every exporter is byte-identical across
// two replays of each scenario and matches the checked-in golden files
// (regenerate with `go test ./internal/bench -run Goldens -update`).
func TestObserveGoldens(t *testing.T) {
	for name, sc := range goldenScenarios(t) {
		t.Run(name, func(t *testing.T) {
			first, err := Observe(sc)
			if err != nil {
				t.Fatal(err)
			}
			second, err := Observe(sc)
			if err != nil {
				t.Fatal(err)
			}
			a, b := renderAll(t, first), renderAll(t, second)
			for _, ext := range []string{"stats", "critpath", "metrics", "chrome"} {
				if !bytes.Equal(a[ext], b[ext]) {
					t.Errorf("%s export diverged across replays: %s", ext, firstDiff(a[ext], b[ext]))
				}
				if ext == "chrome" {
					continue // replay-checked but too bulky for a golden
				}
				path := filepath.Join("testdata", name+"."+ext+".golden")
				if *update {
					if err := os.WriteFile(path, a[ext], 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with -update): %v", err)
				}
				if !bytes.Equal(a[ext], want) {
					t.Errorf("%s export differs from golden %s: %s", ext, path, firstDiff(a[ext], want))
				}
			}
		})
	}
}

// TestCritPathOverlapMatchesCompletion is the observability acceptance
// check: on a two-node pipelined HAN Bcast the critical path must (a)
// span exactly the simulated completion time and (b) contain slices where
// the inter-node and intra-node broadcast tasks overlap.
func TestCritPathOverlapMatchesCompletion(t *testing.T) {
	sc := Scenario{
		Spec: cluster.Mini(2, 2), Kind: coll.Bcast, Size: 1 << 20, Seed: 1,
		Cfg: han.Config{FS: 128 << 10}, // 8 pipelined segments
	}
	o, err := Observe(sc)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := trace.CriticalPath(o.Trace.Events(), sc.Spec.PPN)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cp.Len(), float64(o.End); math.Abs(got-want) > 1e-9*want {
		t.Errorf("critical path length %v != completion time %v", got, want)
	}
	if ov := cp.OverlapSeconds("ib", "sb"); ov <= 0 {
		t.Errorf("no ib/sb overlap on the critical path:\n%+v", cp.Steps)
	}
	// Steps must tile [Start, End] with no gaps.
	prev := cp.Start
	for _, s := range cp.Steps {
		if s.From != prev {
			t.Fatalf("gap in path at %v (step %+v)", prev, s)
		}
		prev = s.To
	}
	if prev != cp.End {
		t.Fatalf("path ends at %v, want %v", prev, cp.End)
	}
}

// TestObservabilityDocCoverage enforces the documentation contract: every
// event kind, every metric family and every task name observable from a run
// must appear in docs/OBSERVABILITY.md.
func TestObservabilityDocCoverage(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatalf("observability contract missing: %v", err)
	}
	for _, k := range trace.AllKinds() {
		if !bytes.Contains(doc, []byte("`"+string(k)+"`")) {
			t.Errorf("docs/OBSERVABILITY.md does not document event kind %q", k)
		}
	}
	// The union of families from a regular run and a degraded (fallback)
	// run covers every registered metric, including the on-demand ones; the
	// other kinds add their tasks.
	families := map[string]bool{}
	scenarios := []Scenario{{Spec: cluster.Mini(1, 2), Kind: coll.Bcast, Size: 4 << 10, Seed: 1}} // single node: fallback
	for kind := coll.Bcast; kind <= coll.Scatter; kind++ {
		scenarios = append(scenarios, Scenario{Spec: cluster.Mini(2, 2), Kind: kind, Size: 64 << 10, Seed: 1})
	}
	for _, sc := range scenarios {
		o, err := Observe(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range o.Metrics.Families() {
			families[f] = true
		}
		for _, e := range o.Trace.Filter(trace.KindTaskBegin) {
			if !bytes.Contains(doc, []byte("`"+e.Name+"`")) {
				t.Errorf("docs/OBSERVABILITY.md does not document task %q", e.Name)
			}
		}
	}
	names := make([]string, 0, len(families))
	for f := range families {
		names = append(names, f)
	}
	sort.Strings(names)
	if len(names) < 10 {
		t.Fatalf("suspiciously few metric families observed: %v", names)
	}
	for _, f := range names {
		if !bytes.Contains(doc, []byte("`"+f+"`")) {
			t.Errorf("docs/OBSERVABILITY.md does not document metric family %q", f)
		}
	}
}
