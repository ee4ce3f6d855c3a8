package han

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// metricsBcast runs one 64 KB Bcast on Mini(2,2) with metrics enabled and
// returns the OpenMetrics export.
func metricsBcast(t *testing.T) string {
	t.Helper()
	out, _ := observed(t, cluster.Mini(2, 2), func(h *HAN, p *mpi.Proc) {
		buf := make([]byte, 64<<10)
		if err := h.Bcast(p, mpi.Bytes(buf), 0, Config{}); err != nil {
			t.Errorf("rank %d: %v", p.Rank, err)
		}
	})
	return out
}

func TestMetricsCountBcastActivity(t *testing.T) {
	out := metricsBcast(t)
	// Both layers must have counted: HAN issued ib on leaders and sb
	// everywhere, the runtime moved messages under it.
	for _, want := range []string{
		`han_tasks_total{level="inter",task="ib"} 2 `,
		`han_tasks_total{level="intra",task="sb"} 4 `,
		`han_collectives_total{op="han.Bcast"} 4 `,
		"han_segments_per_collective_count 4 ",
		"mpi_recvs_posted_total",
		"mpi_delivered_messages_total",
		"# EOF",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "mpi_retransmits_total 0") {
		t.Errorf("fault-free run should export zero retransmits:\n%s", out)
	}
}

func TestMetricsExportDeterministic(t *testing.T) {
	if a, b := metricsBcast(t), metricsBcast(t); a != b {
		t.Fatalf("OpenMetrics export differs across replays:\n%s\nvs\n%s", a, b)
	}
}

func TestMetricsDisabledIsFree(t *testing.T) {
	// A world without EnableMetrics must run identically (zero-value
	// handles no-op).
	run := func(enable bool) sim.Time {
		eng := sim.New()
		w := mpi.NewWorld(cluster.NewMachine(eng, cluster.Mini(2, 2)), mpi.OpenMPI())
		h := New(w)
		if enable {
			reg := metrics.New()
			w.EnableMetrics(reg)
			h.EnableMetrics(reg)
		}
		w.Start(func(p *mpi.Proc) {
			buf := make([]byte, 32<<10)
			h.Bcast(p, mpi.Bytes(buf), 0, Config{})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("metrics changed the simulation: %v vs %v", a, b)
	}
}

// The per-operation hooks run once per rank per collective. With metrics
// off they must not build a label set before finding the registry nil, and
// with metrics on a series is looked up once and then counted through the
// cached handle.
func TestPerOperationHooksDoNotAllocate(t *testing.T) {
	hooks := func(m *hanMetrics) func() {
		return func() {
			m.collEntered("han.Bcast")
			m.fallbackTaken("han.Bcast")
			m.recovery("shrink")
		}
	}
	if n := testing.AllocsPerRun(100, hooks(&hanMetrics{})); n != 0 {
		t.Errorf("metrics off: %v allocations per collective entry, want 0", n)
	}
	reg := metrics.New()
	h := &HAN{}
	h.EnableMetrics(reg)
	if n := testing.AllocsPerRun(100, hooks(h.m)); n != 0 {
		t.Errorf("metrics on: %v allocations per collective entry once the series exist, want 0", n)
	}
	// AllocsPerRun calls the function once to warm up, then 100 times.
	for name, c := range map[string]*metrics.Counter{
		"han_collectives": h.m.colls["han.Bcast"], "han_fallbacks": h.m.fallbacks["han.Bcast"], "han_recovery": h.m.recoveries["shrink"],
	} {
		if c == nil || c.Value() != 101 {
			t.Errorf("%s: cached series counted %v, want 101", name, c.Value())
		}
	}
}

// observed runs body on every rank of a world on spec with metrics and a
// tracer attached and returns the OpenMetrics export and the recorder.
func observed(t *testing.T, spec cluster.Spec, body func(h *HAN, p *mpi.Proc)) (string, *trace.Recorder) {
	t.Helper()
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	reg := metrics.New()
	w.EnableMetrics(reg)
	w.Tracer = trace.New()
	h := New(w)
	w.Start(func(p *mpi.Proc) { body(h, p) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := reg.WriteOpenMetrics(&out, float64(eng.Now())); err != nil {
		t.Fatal(err)
	}
	return out.String(), w.Tracer
}

// Every task of the three-level and GPU pipelines is counted and traced,
// not only the four of the two-level design: nb/nr used to bypass the
// traced issue point, and gb, gr and the PCIe stagings had no counter.
func TestMetricsCountEveryLevelsTasks(t *testing.T) {
	const n, fs = 4 << 10, 2 << 10 // 2 segments
	cases := []struct {
		name string
		spec cluster.Spec
		body func(h *HAN, p *mpi.Proc) error
		want map[string]int // `level,task` -> count
	}{
		// 2 nodes x 2 sockets x 2 ranks.
		{"Allreduce3", numaSpec(2, 4), func(h *HAN, p *mpi.Proc) error {
			return h.Allreduce3(p, mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, Config{FS: fs})
		}, map[string]int{"socket,sr": 16, "node,nr": 8, "inter,ir": 4, "inter,ib": 4, "node,nb": 8, "socket,sb": 16}},
		{"AllreduceGPU", gpuSpec(2, 4), func(h *HAN, p *mpi.Proc) error {
			return h.AllreduceGPU(p, mpi.Phantom(n), mpi.Phantom(n), mpi.OpSum, mpi.Float64, Config{FS: fs})
		}, map[string]int{"gpu,gr": 16, "pcie,d2h": 4, "inter,ir": 4, "inter,ib": 4, "pcie,h2d": 4, "gpu,gb": 16}},
		// Only the root stages down; the other leader's upload is the
		// first half of its gb.
		{"BcastGPU", gpuSpec(2, 4), func(h *HAN, p *mpi.Proc) error {
			return h.BcastGPU(p, mpi.Phantom(n), 0, Config{FS: fs})
		}, map[string]int{"pcie,d2h": 2, "inter,ib": 4, "gpu,gb": 16}},
		// The block collectives on 2 nodes x 2 ranks: one task per stage per
		// member rank, whatever the root.
		{"Gather", cluster.Mini(2, 2), func(h *HAN, p *mpi.Proc) error {
			return h.Gather(p, mpi.Phantom(n), mpi.Phantom(4*n), 3, Config{})
		}, map[string]int{"intra,sg": 4, "inter,ig": 2}},
		{"Scatter", cluster.Mini(2, 2), func(h *HAN, p *mpi.Proc) error {
			return h.Scatter(p, mpi.Phantom(4*n), mpi.Phantom(n), 3, Config{})
		}, map[string]int{"inter,is": 2, "intra,ss": 4}},
		{"Allgather", cluster.Mini(2, 2), func(h *HAN, p *mpi.Proc) error {
			return h.Allgather(p, mpi.Phantom(n), mpi.Phantom(4*n), Config{})
		}, map[string]int{"intra,sg": 4, "inter,iag": 2, "intra,sb": 4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, rec := observed(t, c.spec, func(h *HAN, p *mpi.Proc) {
				if err := c.body(h, p); err != nil {
					t.Errorf("rank %d: %v", p.Rank, err)
				}
			})
			begun := map[string]int{}
			for _, e := range rec.Filter(trace.KindTaskBegin) {
				begun[e.Name]++
			}
			total := 0
			for key, want := range c.want {
				level, task, _ := strings.Cut(key, ",")
				series := fmt.Sprintf("han_tasks_total{level=%q,task=%q} %d ", level, task, want)
				if !strings.Contains(out, series) {
					t.Errorf("export missing %q", series)
				}
				if begun[task] != want {
					t.Errorf("%d task-begin events for %s, want %d", begun[task], task, want)
				}
				total += want
			}
			if hist := fmt.Sprintf("han_task_seconds_count %d ", total); !strings.Contains(out, hist) {
				t.Errorf("export missing %q", hist)
			}
			if t.Failed() {
				t.Log(out)
			}
		})
	}
}

// A two-level run exports the four two-level task series and no other:
// the wider hierarchies' series appear on first use, so the observability
// goldens of two-level runs do not grow rows.
func TestMetricsTwoLevelRunExportsFourTaskSeries(t *testing.T) {
	if got := strings.Count(metricsBcast(t), "han_tasks_total{"); got != 4 {
		t.Errorf("%d han_tasks series in a two-level export, want 4", got)
	}
}
