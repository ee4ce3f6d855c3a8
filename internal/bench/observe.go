package bench

import (
	"errors"
	"fmt"
	"io"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// This file implements the observed-run harness behind `hantrace
// stats|critpath|metrics`: one HAN collective executed with every
// observability layer on — event tracing, runtime and framework metrics,
// and flow-level resource monitoring — plus deterministic text renderers
// over the result. Renderer output is part of the golden-tested replay
// contract: same (scenario, seed, fault plan) ⇒ byte-identical text.

// Scenario describes one observed collective run.
type Scenario struct {
	Spec cluster.Spec
	Kind coll.Kind
	Size int
	// Seed reseeds the world RNG when non-zero.
	Seed int64
	// Faults, when non-nil and non-zero, is attached before ranks start.
	Faults *fault.Plan
	// Cfg overrides HAN's per-call configuration; the zero Config lets
	// the decision function pick (note DefaultDecision uses a single
	// segment for broadcasts under 8 MB — pass an explicit FS to see
	// multi-segment pipelining on small scenarios).
	Cfg han.Config
}

// String renders the scenario compactly for report headers.
func (sc Scenario) String() string {
	s := fmt.Sprintf("%s %s on %s (%d nodes x %d ppn), seed %d",
		sc.Kind, han.SizeString(sc.Size), sc.Spec.Name, sc.Spec.Nodes, sc.Spec.PPN, sc.Seed)
	if sc.Faults != nil && !sc.Faults.IsZero() {
		s += ", faults on"
	}
	return s
}

// Observation is everything recorded from one observed run.
type Observation struct {
	Scenario Scenario
	Trace    *trace.Recorder
	Metrics  *metrics.Registry
	Net      *flow.Monitor
	End      sim.Time
}

// Observe runs one HAN collective on a fresh world with tracing, metrics,
// and resource monitoring enabled, and returns the full observation. The
// run is deterministic: two calls with the same scenario return
// observations whose every export is byte-identical.
func Observe(sc Scenario) (*Observation, error) {
	eng := sim.New()
	mach := cluster.NewMachine(eng, sc.Spec)
	mon := mach.Net.EnableMonitor()
	w := mpi.NewWorld(mach, mpi.OpenMPI())
	if sc.Seed != 0 {
		w.Seed(sc.Seed)
	}
	if sc.Faults != nil && !sc.Faults.IsZero() {
		w.AttachFaults(*sc.Faults)
	}
	rec := trace.New()
	w.Tracer = rec
	reg := metrics.New()
	w.EnableMetrics(reg)
	h := han.New(w) // registers HAN's families with the same registry
	w.StartE(func(p *mpi.Proc) (err error) {
		hanOps(h, sc.Cfg, func(e error) {
			// A fallback is a recorded degradation note, not a failure.
			var fb *han.FallbackError
			if !errors.As(e, &fb) {
				err = e
			}
		}).run(p, sc.Kind, sc.Size)
		return err
	})
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("bench: observed run failed: %w", err)
	}
	end := eng.Now()
	mon.Finish(end)
	// Flush the monitor's utilization series into the trace recorder as
	// counter tracks ("util <resource>"), so the Chrome export shows them
	// under the rank timelines. Only resources that ever carried traffic
	// get a track; fully idle ones would be flat zero lines.
	for _, rs := range mon.Resources() {
		if rs.Bytes == 0 {
			continue
		}
		for _, s := range rs.Samples {
			rec.RecordCounter(float64(s.T), "util "+rs.Res.Name, s.Util)
		}
	}
	return &Observation{Scenario: sc, Trace: rec, Metrics: reg, Net: mon, End: end}, nil
}

// WriteStats renders the aggregate view: event counts, per-task and
// per-collective span totals, message statistics, flow totals, and the
// per-resource utilization summary.
func (o *Observation) WriteStats(w io.Writer) error {
	st := trace.ComputeStats(o.Trace.Events())
	bw := &errWriter{w: w}
	bw.printf("# %s\n", o.Scenario)
	bw.printf("completion: %s\n", usec(float64(o.End)))
	bw.printf("events: %d over %d ranks\n", st.Events, st.Ranks)
	for _, kc := range st.Kinds {
		bw.printf("  %-11s %d\n", kc.Kind, kc.N)
	}
	if len(st.Colls) > 0 {
		bw.printf("collectives:\n")
		for _, c := range st.Colls {
			bw.printf("  %-12s x%-4d total %s\n", c.Name, c.Count, usec(c.Seconds))
		}
	}
	if len(st.Tasks) > 0 {
		bw.printf("tasks:\n")
		for _, ts := range st.Tasks {
			bw.printf("  %-12s x%-4d total %s\n", ts.Name, ts.Count, usec(ts.Seconds))
		}
	}
	m := st.Msg
	bw.printf("messages: %d sent / %d delivered / %d dropped, %d bytes\n",
		m.Sends, m.Delivers, m.Drops, m.Bytes)
	if m.Matched > 0 {
		bw.printf("  latency min/mean/max: %s / %s / %s\n",
			usec(m.MinLat), usec(m.TotalLat/float64(m.Matched)), usec(m.MaxLat))
	}
	for _, n := range st.Notes {
		bw.printf("note: %s\n", n)
	}
	ft := o.Net.Totals()
	bw.printf("flows: %d started, %d completed, %.0f bytes\n", ft.Started, ft.Completed, ft.Bytes)
	bw.printf("resources (busy/peak):\n")
	for _, rs := range o.Net.Resources() {
		if rs.Bytes == 0 {
			continue
		}
		bw.printf("  %-16s %s busy, peak %3.0f%%, %.0f bytes\n",
			rs.Res.Name, usec(rs.BusySeconds), rs.Peak*100, rs.Bytes)
	}
	return bw.err
}

// WriteCritPath renders the critical path of the observed collective:
// the chain of dependencies ending at the last rank to finish, each slice
// attributed to the tasks active on it (overlap shows as "ib+sb") or to
// the network hop that carried it.
func (o *Observation) WriteCritPath(w io.Writer) error {
	cp, err := trace.CriticalPath(o.Trace.Events(), o.Scenario.Spec.PPN)
	if err != nil {
		return err
	}
	bw := &errWriter{w: w}
	bw.printf("# %s\n", o.Scenario)
	bw.printf("critical path of %s: %s (completion %s)\n", cp.Op, usec(cp.Len()), usec(float64(o.End)))
	for _, s := range cp.Steps {
		bw.printf("  [%12s %12s] rank %-3d %-9s %s\n",
			usec(s.From), usec(s.To), s.Rank, s.Class, s.Label)
	}
	bw.printf("breakdown:\n")
	for _, b := range cp.Breakdown {
		bw.printf("  %-16s %12s  (%4.1f%%)\n", b.Name, usec(b.Seconds), 100*b.Seconds/cp.Len())
	}
	if ov := cp.OverlapSeconds("ib", "sb"); ov > 0 {
		bw.printf("ib/sb overlap on path: %s (%.1f%% of path)\n", usec(ov), 100*ov/cp.Len())
	}
	return bw.err
}

// WriteMetrics renders the OpenMetrics export, timestamped with the
// run's virtual completion time.
func (o *Observation) WriteMetrics(w io.Writer) error {
	return o.Metrics.WriteOpenMetrics(w, float64(o.End))
}

// WriteChrome renders the Chrome trace-event export, including the
// per-resource utilization counter tracks.
func (o *Observation) WriteChrome(w io.Writer) error {
	return o.Trace.WriteChromeTrace(w)
}

// usec renders a duration in seconds as fixed-point microseconds —
// stable, locale-free formatting for golden files.
func usec(sec float64) string {
	return fmt.Sprintf("%.3fus", sec*1e6)
}

// errWriter folds the error handling of sequential fmt.Fprintf calls.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...interface{}) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}
