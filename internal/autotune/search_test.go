package autotune

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/metrics"
)

// renderResult serialises a Result canonically: the table as indented JSON
// plus the exhaustive stats sorted by input. Byte equality of two renders
// means the results are identical to the last bit — floats marshal via Go's
// shortest-round-trip formatting, so a single ULP of drift shows up.
func renderResult(t *testing.T, res Result) string {
	t.Helper()
	b, err := json.MarshalIndent(res.Table, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	ins := make([]Input, 0, len(res.Stats))
	for in := range res.Stats {
		ins = append(ins, in)
	}
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].T != ins[j].T {
			return ins[i].T < ins[j].T
		}
		return ins[i].M < ins[j].M
	})
	var sb strings.Builder
	sb.Write(b)
	for _, in := range ins {
		st := res.Stats[in]
		fmt.Fprintf(&sb, "\n%v: best=%v median=%v avg=%v", in, st.Best, st.Median, st.Average)
	}
	return sb.String()
}

// tinySpace keeps the determinism matrix fast: two message sizes, both
// submodule families, enough candidates that workers 2 and 8 schedule very
// differently.
func tinySpace() Space {
	return Space{
		Msgs:  []int{256 << 10, 1 << 20},
		FS:    []int{64 << 10, 256 << 10},
		IMods: []string{"libnbc", "adapt"},
		SMods: []string{"sm", "solo"},
		IBS:   []int{32 << 10},
	}
}

// TestRunSearchDeterministicAcrossWorkers is the tentpole's acceptance
// criterion: for every Method, the rendered output at workers=2 and
// workers=8 is byte-identical to the serial (workers=1) run.
func TestRunSearchDeterministicAcrossWorkers(t *testing.T) {
	env := testEnv()
	env.Seed = 3
	space := tinySpace()
	kinds := []coll.Kind{coll.Bcast, coll.Allreduce}
	for _, method := range Methods {
		base := renderResult(t, RunSearch(env, space, kinds, method, SearchOpts{Iters: 2, Workers: 1}))
		for _, workers := range []int{2, 8} {
			got := renderResult(t, RunSearch(env, space, kinds, method, SearchOpts{Iters: 2, Workers: workers}))
			if got != base {
				t.Errorf("%v: workers=%d output differs from workers=1:\n--- workers=1\n%s\n--- workers=%d\n%s",
					method, workers, base, workers, got)
			}
		}
	}
}

// TestRunSearchDeterministicReplay replays three seeds twice each at
// workers=8: the (env, space, seed) triple fully determines the output.
func TestRunSearchDeterministicReplay(t *testing.T) {
	space := tinySpace()
	kinds := []coll.Kind{coll.Bcast}
	for _, seed := range []int64{1, 7, 42} {
		env := testEnv()
		env.Seed = seed
		opts := SearchOpts{Iters: 2, Workers: 8}
		r1 := renderResult(t, RunSearch(env, space, kinds, Combined, opts))
		r2 := renderResult(t, RunSearch(env, space, kinds, Combined, opts))
		if r1 != r2 {
			t.Errorf("seed %d: two replays differ:\n--- first\n%s\n--- second\n%s", seed, r1, r2)
		}
	}
}

// TestRunSearchDeterministicWithFaults runs the matrix's fault leg: tuning
// a degraded machine (drop plan active in every measurement world) is
// still byte-identical across worker counts and replays.
func TestRunSearchDeterministicWithFaults(t *testing.T) {
	plan, err := fault.Builtin("drops")
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv()
	env.Seed = 5
	env.Faults = &plan
	space := tinySpace()
	kinds := []coll.Kind{coll.Bcast}
	base := renderResult(t, RunSearch(env, space, kinds, ExhaustiveHeuristics, SearchOpts{Iters: 2, Workers: 1}))
	for i := 0; i < 2; i++ {
		got := renderResult(t, RunSearch(env, space, kinds, ExhaustiveHeuristics, SearchOpts{Iters: 2, Workers: 8}))
		if got != base {
			t.Errorf("faulted replay %d at workers=8 differs from workers=1:\n--- workers=1\n%s\n--- workers=8\n%s",
				i, base, got)
		}
	}
}

// TestTaskSweepMeasuresEachConfigOnce pins the paper's T×S×N×P×A
// accounting under concurrency: a task-based search runs one executor job
// per distinct configuration, and at workers=8 performs exactly the same
// benchmark runs as the serial one — two per distinct configuration (a
// Bcast's MeasureTasks runs two worlds), however many message sizes share
// the configuration.
func TestTaskSweepMeasuresEachConfigOnce(t *testing.T) {
	env := testEnv()
	space := tinySpace()
	kinds := []coll.Kind{coll.Bcast}

	distinct := make(map[han.Config]bool)
	for _, m := range space.Msgs {
		for _, c := range space.Expand(coll.Bcast, m, false, env.Spec.Nodes) {
			distinct[c.Cfg] = true
		}
	}
	if len(distinct) >= len(space.Msgs)*len(space.Expand(coll.Bcast, 1<<20, false, env.Spec.Nodes)) {
		t.Fatal("space has no config sharing across message sizes; the test would not exercise the sharing")
	}
	want := 2 * len(distinct)

	search := func(workers int) Result {
		reg := metrics.New()
		res := RunSearch(env, space, kinds, TaskBased, SearchOpts{Workers: workers, Metrics: reg})
		if jobs := reg.Counter(metrics.Opts{Name: "exec_jobs"}).Value(); jobs != float64(len(distinct)) {
			t.Errorf("workers=%d: %v executor jobs, want %d (one per distinct config)", workers, jobs, len(distinct))
		}
		return res
	}
	serial, parallel := search(1), search(8)
	if serial.Table.Measurements != want {
		t.Errorf("serial search ran %d measurements, want %d (2 per distinct config)", serial.Table.Measurements, want)
	}
	if parallel.Table.Measurements != want {
		t.Errorf("parallel search ran %d measurements, want %d — a config was measured twice",
			parallel.Table.Measurements, want)
	}
	if serial.Table.TuningCost != parallel.Table.TuningCost {
		t.Errorf("tuning cost differs: serial %v, parallel %v", serial.Table.TuningCost, parallel.Table.TuningCost)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{1, 3}, 2},
		{[]float64{1, 2, 4}, 2},
		{[]float64{1, 2, 4, 10}, 3},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestMeterMerge checks the canonical-merge primitive.
func TestMeterMerge(t *testing.T) {
	a := &Meter{Virtual: 1.5, Runs: 2}
	b := &Meter{Virtual: 0.25, Runs: 1}
	a.Merge(b)
	if a.Virtual != 1.75 || a.Runs != 3 {
		t.Errorf("merge result %+v", a)
	}
	a.Merge(nil)
	var nilM *Meter
	nilM.Merge(a) // must not panic
	if a.Virtual != 1.75 || a.Runs != 3 {
		t.Errorf("nil merges changed the meter: %+v", a)
	}
}
