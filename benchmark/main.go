// Command benchmark is the repository's one performance yardstick: five
// named workloads, four end-to-end metrics with regression bounds, per-layer
// probes, and a traced pass. BENCHMARK.md beside this file explains each
// workload and metric; BENCHMARK.json at the repository root is generated
// from the tables in metrics.go and workloads.go.
//
//	go run -C benchmark . -workload bcast4096_256k -seed 1 -seconds 12 -trace 0
//	go run -C benchmark . -runs 10            # every workload, spread table, out/results.json
//	go run -C benchmark . -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// hostRecord is written into every result and trace file, so a number is
// never separated from the machine and commit it was taken on.
type hostRecord struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// hostInfo reads the host record once per process.
var hostInfo = sync.OnceValue(func() hostRecord {
	h := hostRecord{
		Commit:     "unknown", // the driver's checkout is not a git repository
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
})

// runCtx carries one run's flags to the workloads.
type runCtx struct {
	seed    uint64
	seconds float64
	short   bool // the self-tests' sizing: 64 ranks, 1 round, 2000 decisions
	nproc   int  // load never uses more goroutines or connections than this
	outDir  string
}

// rounds is how many timed rounds a run of the given length holds. Run
// length cuts rounds, never ranks, message sizes or mixes, and the count
// is a pure function of the flags so that counts repeat exactly.
func (c *runCtx) rounds(w *workload) int {
	if c.short {
		return 1
	}
	return max(2, int(math.Round(c.seconds/w.roundSeconds)))
}

// roundOut is what one round of ops produced.
type roundOut struct {
	ops, failed int64
	latNs       []float64 // host nanoseconds per op (every op, or a fixed sample of them)
}

// instance is a workload after set-up: inputs generated, tables tuned,
// server started, caches warm.
type instance interface {
	// round runs one timed round with tracing off.
	round(r int) (roundOut, error)
	// traced runs the traced pass — spans around the benchmark's own calls
	// into each layer, counters switched on, then the isolated probes —
	// filling layers, and returns the traced ops for the overhead figure.
	traced(rec *recorder, layers map[string]float64) (roundOut, error)
	close()
}

// runRecord is the per-run result file and the source of the final line.
type runRecord struct {
	Host      hostRecord      `json:"host"`
	Workload  string          `json:"workload"`
	Seed      uint64          `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Trace     int             `json:"trace"`
	Correct   bool            `json:"correct"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
}

// setUp runs the workload's set-up w.setupReps times and returns the last
// instance with the median set-up time; one expensive set-up is a noisy
// sample, several give a steady one.
func setUp(w *workload, c *runCtx) (instance, stat, error) {
	reps := w.setupReps
	if c.short {
		reps = 1
	}
	var inst instance
	var secs []float64
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(c); err != nil {
			return nil, stat{}, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return inst, medianStat("s", secs), nil
}

// measured is one round with the resource counters around it.
type measured struct {
	roundOut
	before, after usage
}

func measureRound(inst instance, r int) (measured, error) {
	runtime.GC() // every round starts from a collected heap, so GC debt does not leak between rounds
	m := measured{before: snapshot()}
	out, err := inst.round(r)
	m.after = snapshot()
	m.roundOut = out
	return m, err
}

// runEndToEnd is the untraced run: set-up, then timed rounds; every value
// is the median over rounds.
func runEndToEnd(w *workload, c *runCtx) (*runRecord, error) {
	inst, setup, err := setUp(w, c)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	rec := &runRecord{Metrics: map[string]stat{"setup_s": setup}}
	var opsPerS, allocs []float64
	for r := 0; r < c.rounds(w); r++ {
		m, err := measureRound(inst, r)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rec.Attempted += m.ops
		rec.Failed += m.failed
		ops := float64(m.ops)
		opsPerS = append(opsPerS, ops/m.after.wall.Sub(m.before.wall).Seconds())
		allocs = append(allocs, float64(m.after.mallocs-m.before.mallocs)/ops)
	}
	rec.Metrics["ops_per_s"] = medianStat("1/s", opsPerS)
	rec.Metrics["allocs_per_op"] = medianStat("count", allocs)
	rec.Metrics["peak_rss_mb"] = medianStat("MB", []float64{peakRSSMB()})
	return rec, nil
}

// runTraced is the traced pass: one untraced round as the base, then the
// workload's traced ops and probes. It reports every per-layer metric; one
// the workload never enters reads 0.
func runTraced(w *workload, c *runCtx) (*runRecord, error) {
	inst, _, err := setUp(w, c)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	base, err := measureRound(inst, 0)
	if err != nil {
		return nil, fmt.Errorf("base round: %w", err)
	}
	layers := make(map[string]float64)
	spans := newRecorder()
	traced, err := inst.traced(spans, layers)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	ops := float64(base.ops)
	layers["go.bytes_per_op"] = float64(base.after.bytes-base.before.bytes) / ops
	layers["go.gc_cycles_per_op"] = float64(base.after.gcs-base.before.gcs) / ops
	layers["go.gc_pause_ms_per_op"] = ms(base.after.pause-base.before.pause) / ops
	baseP50 := median(base.latNs)
	layers["benchmark.op_p50_ms"] = baseP50 / 1e6
	layers["benchmark.cpu_ms_per_op"] = ms(base.after.cpu-base.before.cpu) / ops
	layers["benchmark.trace_overhead_pct"] = (median(traced.latNs)/baseP50 - 1) * 100
	if err := writeTrace(c.outDir, w.name, c.seed, spans); err != nil {
		return nil, err
	}
	rec := &runRecord{
		Attempted: base.ops + traced.ops,
		Failed:    base.failed + traced.failed,
		Metrics:   make(map[string]stat),
	}
	for _, d := range perLayer {
		rec.Metrics[d.Name] = medianStat(d.Unit, []float64{layers[d.Name]})
		delete(layers, d.Name)
	}
	for name := range layers {
		return nil, fmt.Errorf("workload reported %q, which metrics.go does not list", name)
	}
	return rec, nil
}

// runWorkload runs one workload in this process and prints the result; the
// last line of standard output is the JSON object the driver reads.
func runWorkload(out io.Writer, w *workload, c *runCtx, trace int) error {
	var rec *runRecord
	var err error
	if trace != 0 {
		rec, err = runTraced(w, c)
	} else {
		rec, err = runEndToEnd(w, c)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	rec.Host, rec.Workload, rec.Seed, rec.Seconds, rec.Trace = hostInfo(), w.name, c.seed, c.seconds, trace
	rec.Correct = rec.Failed == 0

	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, make(map[string]reading)}
	fmt.Fprintf(out, "# %s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d %s %s\n",
		w.name, c.seed, c.seconds, trace, rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.CPU)
	for _, name := range names {
		s := rec.Metrics[name]
		fmt.Fprintf(out, "%-32s %18.6f %-6s q1=%.6g q3=%.6g n=%d\n", name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
		final.Metrics[name] = reading{s.Value, s.Unit}
	}
	if err := writeJSON(filepath.Join(c.outDir, fmt.Sprintf("run-%s-trace%d.json", w.name, trace)), rec); err != nil {
		return err
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d ops failed their correctness check", w.name, rec.Failed, rec.Attempted)
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// workloadResult is one workload's row set in results.json: the median
// over -runs runs of each metric, with the quartiles across those runs
// (or, for a single run, across its rounds).
type workloadResult struct {
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
}

type results struct {
	Host      hostRecord                 `json:"host"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadResult `json:"workloads"`
	// Claim is always null: the change that defines the benchmark claims
	// no gain, and later claims are made by -compare, not by a run.
	Claim *string `json:"claim"`
}

// runAll runs every workload, each run in its own child process so that
// peak RSS, allocation counts and GC state belong to one workload alone.
func runAll(c *runCtx, runs, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := results{Host: hostInfo(), Seed: c.seed, Seconds: c.seconds, Runs: runs, Workloads: make(map[string]*workloadResult)}
	child := func(w *workload, seed uint64, trace int) (*runRecord, error) {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(c.seconds),
			"-trace", fmt.Sprint(trace), "-out", c.outDir}
		if c.short {
			args = append(args, "-short")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, err)
		}
		var rec runRecord
		b, err := os.ReadFile(filepath.Join(c.outDir, fmt.Sprintf("run-%s-trace%d.json", w.name, trace)))
		if err != nil {
			return nil, err
		}
		return &rec, json.Unmarshal(b, &rec)
	}
	collect := func(recs []*runRecord) map[string]stat {
		out := make(map[string]stat)
		for name, first := range recs[0].Metrics {
			if len(recs) == 1 {
				out[name] = first
				continue
			}
			var vals []float64
			for _, r := range recs {
				vals = append(vals, r.Metrics[name].Value)
			}
			out[name] = medianStat(first.Unit, vals)
		}
		return out
	}
	for _, w := range workloads {
		wr := &workloadResult{}
		res.Workloads[w.name] = wr
		var recs []*runRecord
		for i := 0; i < runs; i++ {
			rec, err := child(w, c.seed+uint64(i), 0)
			if err != nil {
				return err
			}
			recs = append(recs, rec)
			wr.Attempted += rec.Attempted
			wr.Failed += rec.Failed
		}
		wr.EndToEnd = collect(recs)
		if trace != 0 {
			rec, err := child(w, c.seed, 1)
			if err != nil {
				return err
			}
			wr.PerLayer = collect([]*runRecord{rec})
			wr.Failed += rec.Failed
		}
	}
	if err := writeJSON(filepath.Join(c.outDir, "results.json"), res); err != nil {
		return err
	}

	fmt.Printf("\n# spread = (q3-q1)/median over %d run(s); a steady metric stays under a third of its bound\n", runs)
	fmt.Printf("%-20s %-14s %16s %-6s %8s %8s  %s\n", "workload", "metric", "median", "unit", "spread", "bound", "")
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			verdict := "steady"
			switch {
			case s.spread() > d.Bound:
				verdict = "UNSTEADY (over the bound)"
			case s.spread() > d.Bound/3:
				verdict = "loose (over a third of the bound)"
			}
			fmt.Printf("%-20s %-14s %16.6f %-6s %7.2f%% %7.0f%%  %s\n", w.name, d.Name, s.Value, s.Unit, 100*s.spread(), 100*d.Bound, verdict)
		}
	}
	b, err := json.Marshal(struct {
		Results string  `json:"results"`
		Claim   *string `json:"claim"`
	}{filepath.Join(c.outDir, "results.json"), nil})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

type options struct {
	workload          string
	seed              uint64
	seconds           float64
	trace, runs       int
	short             bool
	outDir            string
	compare, manifest bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process; empty runs every workload, each in a child process")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input; the only source of variation")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed phase; it sets the number of rounds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.short, "short", false, "self-test sizing: 64 ranks, 1 round, 2000 decisions")
	flag.IntVar(&o.runs, "runs", 1, "with no -workload: runs per workload, seeds seed..seed+runs-1, reported as median and quartiles")
	flag.StringVar(&o.outDir, "out", "out", "directory for result and trace files")
	flag.BoolVar(&o.compare, "compare", false, "compare two results.json files: -compare A.json B.json")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as generated from the metric and workload tables")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	switch {
	case o.manifest:
		_, err := os.Stdout.Write(manifest())
		return err
	case o.compare:
		if len(args) != 2 {
			return errors.New("-compare needs two results.json files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this host; timings would measure oversubscription", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if o.seconds <= 0 || o.runs < 1 {
		return errors.New("-seconds must be positive and -runs at least 1")
	}
	c := &runCtx{seed: o.seed, seconds: o.seconds, short: o.short, nproc: runtime.GOMAXPROCS(0), outDir: o.outDir}
	if o.workload == "" {
		return runAll(c, o.runs, o.trace)
	}
	for _, w := range workloads {
		if w.name == o.workload {
			return runWorkload(os.Stdout, w, c, o.trace)
		}
	}
	return fmt.Errorf("unknown workload %q", o.workload)
}
