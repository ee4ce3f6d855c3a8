package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestShortRunReportsEveryMetric runs every workload at the -short sizing
// (64 ranks, 1 round, 2000 decisions), untraced and traced, and checks the
// last line of output: correct, and exactly the metrics BENCHMARK.json
// promises for that pass.
func TestShortRunReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			c := &runCtx{seed: 7, seconds: runSeconds, short: true, nproc: 2, outDir: t.TempDir()}
			var out bytes.Buffer
			if err := runWorkload(&out, w, c, trace); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var final struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result object: %v", w.name, trace, err)
			}
			if !final.Correct || final.Attempted < 1 || final.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, final.Correct, final.Attempted, final.Failed)
			}
			want := map[string]string{}
			if trace == 0 {
				for _, d := range endToEnd {
					want[d.Name] = d.Unit
				}
			} else {
				for _, d := range perLayer {
					want[d.Name] = d.Unit
				}
			}
			for name, unit := range want {
				got, ok := final.Metrics[name]
				if !ok || got.Value == nil || got.Unit != unit {
					t.Errorf("%s trace=%d: metric %s missing or in the wrong unit: %+v", w.name, trace, name, got)
				}
				if trace == 0 && ok && got.Value != nil && *got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0; a bound on it would mean nothing", w.name, name)
				}
				if !strings.Contains(out.String(), "\n"+name+" ") {
					t.Errorf("%s trace=%d: %s is not printed by name", w.name, trace, name)
				}
			}
			if len(final.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics reported, want %d", w.name, trace, len(final.Metrics), len(want))
			}
			if trace == 1 {
				if _, err := os.Stat(c.outDir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: traced pass left no trace file: %v", w.name, err)
				}
			}
		}
	}
}

func TestSelfTimeNestedAndSiblingSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Clock: "host", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "build", Clock: "host", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "run", Clock: "host", Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "inner", Clock: "host", Start: 40, End: 60},
		{ID: 5, Parent: 3, Name: "overlap", Clock: "host", Start: 50, End: 70},  // overlaps its sibling by 10
		{ID: 6, Parent: 3, Name: "rank0", Clock: "sim", Start: 0, End: 1 << 40}, // another clock: not subtracted
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 20, 3: 30, 4: 20, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byName := selfByName(spans)
	if byName["run"] != 30 || byName["rank0"] != 0 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

// synthetic builds a results file in which every metric of every workload
// is `factor` times worse than 100.
func synthetic(factor float64) *results {
	r := &results{Runs: 10, Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		wr := &workloadResult{Attempted: 100, EndToEnd: map[string]stat{}}
		for _, d := range endToEnd {
			v := 100 * factor
			if d.Better == "higher" {
				v = 100 / factor
			}
			wr.EndToEnd[d.Name] = stat{Value: v, Unit: d.Unit, Q1: v * 0.995, Q3: v * 1.005, N: 10}
		}
		r.Workloads[w.name] = wr
	}
	return r
}

func TestCompareFlagsSlowdownBeyondTheBound(t *testing.T) {
	base := synthetic(1)
	var out bytes.Buffer
	if err := compareResults(&out, base, synthetic(1.01)); err != nil {
		t.Errorf("a 1%% slowdown is inside every bound, got: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), string(worse)) || strings.Contains(out.String(), string(unresolved)) {
		t.Errorf("1%% slowdown produced a worse or unresolved row:\n%s", out.String())
	}
	out.Reset()
	if err := compareResults(&out, base, synthetic(1.40)); err == nil {
		t.Errorf("a 40%% slowdown is outside every bound but -compare passed:\n%s", out.String())
	}
	for _, d := range endToEnd {
		a := stat{Value: 100, Q1: 99.5, Q3: 100.5}
		slower, faster := 100*(1+1.5*d.Bound), 100*(1-1.5*d.Bound)
		if d.Better == "higher" {
			slower, faster = faster, slower
		}
		if v := judge(d, a, stat{Value: slower}); v != worse {
			t.Errorf("%s: 1.5x the bound worse judged %s", d.Name, v)
		}
		if v := judge(d, a, stat{Value: 100 * (1 + 0.5*d.Bound)}); v != same {
			t.Errorf("%s: half the bound judged %s", d.Name, v)
		}
		if v := judge(d, a, stat{Value: faster}); v != better {
			t.Errorf("%s: 1.5x the bound better judged %s", d.Name, v)
		}
		noisy := stat{Value: 100, Q1: 100 * (1 - d.Bound), Q3: 100 * (1 + d.Bound)}
		if v := judge(d, noisy, stat{Value: slower}); v != unresolved {
			t.Errorf("%s: a base noisier than the bound judged %s", d.Name, v)
		}
	}
	more := synthetic(1)
	more.Workloads[workloads[0].name].Failed = 1
	if err := compareResults(&out, base, more); err == nil {
		t.Error("a higher failed share must fail the comparison")
	}
}

// TestManifestMatchesBenchmarkJSON keeps the file the driver reads equal to
// the tables the program reports from.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with: go run -C benchmark . -manifest > BENCHMARK.json")
	}
}
