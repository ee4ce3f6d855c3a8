package han

import (
	"errors"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

func stepCfg() Config {
	return Config{FS: 64 << 10, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgBinary, IRAlg: coll.AlgBinary, IBS: 16 << 10, IRS: 16 << 10}
}

func TestBcastStepsShape(t *testing.T) {
	spec := cluster.Mini(4, 3)
	const u = 6
	perLeader := make(map[int][]sim.Time)
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		steps, err := h.Series(p, coll.Bcast, u, stepCfg())
		if err != nil {
			t.Errorf("rank %d: Bcast series: %v", p.Rank, err)
		}
		if h.W.Mach.IsNodeLeader(p.Rank) {
			perLeader[p.Node()] = steps
		} else if steps != nil {
			t.Errorf("non-leader %d returned steps", p.Rank)
		}
	})
	if len(perLeader) != spec.Nodes {
		t.Fatalf("got steps from %d leaders, want %d", len(perLeader), spec.Nodes)
	}
	for node, steps := range perLeader {
		if len(steps) != u+1 {
			t.Fatalf("leader %d: %d steps, want %d", node, len(steps), u+1)
		}
		for i, s := range steps[:u] {
			if s <= 0 {
				t.Errorf("leader %d step %d non-positive: %v", node, i, s)
			}
		}
	}
	// ib(0) on the root's own node must be among the fastest (Fig 2's
	// staggered finish times).
	if perLeader[0][0] > perLeader[spec.Nodes-1][0] {
		t.Errorf("root leader ib(0)=%v slower than last leader's %v", perLeader[0][0], perLeader[spec.Nodes-1][0])
	}
}

func TestAllreduceStepsShape(t *testing.T) {
	spec := cluster.Mini(3, 3)
	const u = 6
	var steps []sim.Time
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		s, err := h.Series(p, coll.Allreduce, u, stepCfg())
		if err != nil {
			t.Errorf("rank %d: Allreduce series: %v", p.Rank, err)
		}
		if p.Rank == 0 {
			steps = s
		}
	})
	if len(steps) != u+3 {
		t.Fatalf("%d steps, want %d", len(steps), u+3)
	}
	// Middle steps (full sbibirsr) must be the heaviest ones; the pure-sb
	// drain step the lightest of the busy ones.
	mid := steps[u/2+1]
	first := steps[0] // sr only
	if mid <= first {
		t.Errorf("full pipeline step (%v) should cost more than the sr-only step (%v)", mid, first)
	}
}

func TestStepsRequireSegmentSize(t *testing.T) {
	spec := cluster.Mini(2, 2)
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		_, err := h.Series(p, coll.Bcast, 4, Config{})
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("rank %d: Bcast series without FS: err = %v, want *ConfigError", p.Rank, err)
		} else if ce.Param != "fs" {
			t.Errorf("rank %d: ConfigError.Param = %q, want \"fs\"", p.Rank, ce.Param)
		}
		_, err = h.Series(p, coll.Allreduce, 4, Config{})
		if !errors.As(err, &ce) {
			t.Errorf("rank %d: Allreduce series without FS: err = %v, want *ConfigError", p.Rank, err)
		}
	})
}

// TestBadSubmoduleNameRejected pins the resolve-time validation: a tuning
// table with a typo in a submodule name must surface as a *ConfigError
// from the public entry points, not as a panic deep inside the pipeline.
func TestBadSubmoduleNameRejected(t *testing.T) {
	spec := cluster.Mini(2, 2)
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		cfg := stepCfg()
		cfg.SMod = "shm" // typo for "sm"
		err := h.Bcast(p, mpi.Phantom(1<<10), 0, cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("rank %d: Bcast with bad smod: err = %v, want *ConfigError", p.Rank, err)
		} else if ce.Param != "smod" {
			t.Errorf("rank %d: ConfigError.Param = %q, want \"smod\"", p.Rank, ce.Param)
		}
		cfg = stepCfg()
		cfg.IMod = "nccl" // not a HAN inter-node submodule
		err = h.Allreduce(p, mpi.Phantom(1<<10), mpi.Phantom(1<<10), mpi.OpSum, mpi.Float64, cfg)
		if !errors.As(err, &ce) {
			t.Errorf("rank %d: Allreduce with bad imod: err = %v, want *ConfigError", p.Rank, err)
		}
		cfg = stepCfg()
		cfg.Top = "split" // the default is spelled ""
		err = h.Allreduce(p, mpi.Phantom(1<<10), mpi.Phantom(1<<10), mpi.OpSum, mpi.Float64, cfg)
		if !errors.As(err, &ce) || ce.Param != "top" {
			t.Errorf("rank %d: Allreduce with bad top: err = %v, want *ConfigError on top", p.Rank, err)
		}
		cfg = stepCfg()
		cfg.SBMod = "shm"
		err = h.Allreduce(p, mpi.Phantom(1<<10), mpi.Phantom(1<<10), mpi.OpSum, mpi.Float64, cfg)
		if !errors.As(err, &ce) || ce.Param != "sbmod" {
			t.Errorf("rank %d: Allreduce with bad sbmod: err = %v, want *ConfigError on sbmod", p.Rank, err)
		}
		// Levels: a value that names no hierarchy, and the paths that run
		// two levels only, which must say so rather than run them.
		buf := mpi.Phantom(1 << 10)
		for _, c := range []struct {
			name string
			run  func() error
		}{
			{"Bcast with unknown levels", func() error { return h.Bcast(p, buf, 0, Config{FS: 1 << 10, Levels: "numa"}) }},
			{"Reduce with levels", func() error {
				return h.Reduce(p, buf, buf, mpi.OpSum, mpi.Float64, 0, Config{FS: 1 << 10, Levels: LevelsSocket})
			}},
			{"Gather with levels", func() error {
				return h.Gather(p, buf, mpi.Phantom(buf.N*h.W.Size()), 0, Config{Levels: LevelsGPU})
			}},
			{"Series with levels", func() error {
				_, err := h.Series(p, coll.Bcast, 2, Config{FS: 1 << 10, Levels: LevelsSocket})
				return err
			}},
		} {
			if err := c.run(); !errors.As(err, &ce) || ce.Param != "levels" {
				t.Errorf("rank %d: %s: err = %v, want *ConfigError on levels", p.Rank, c.name, err)
			}
		}
	})
}

func TestConfigStringNamesTopAndSBMod(t *testing.T) {
	cfg := stepCfg()
	plain := cfg.String()
	if strings.Contains(plain, "top=") || strings.Contains(plain, "sbmod=") || strings.Contains(plain, "levels=") {
		t.Errorf("split config prints %q, want no top, sbmod or levels", plain)
	}
	cfg.Top, cfg.SBMod, cfg.Levels = TopFused, "sm", LevelsSocket
	if got, want := cfg.String(), plain+" top=fused sbmod=sm levels=socket"; got != want {
		t.Errorf("fused config prints %q, want %q", got, want)
	}
}

// timed passes a timer's duration on and fails t on its error.
func timed(t *testing.T) func(sim.Time, error) sim.Time {
	return func(d sim.Time, err error) sim.Time {
		if err != nil {
			t.Error(err)
		}
		return d
	}
}

func TestTimeIBAndSBPositiveOnLeaders(t *testing.T) {
	spec := cluster.Mini(3, 2)
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		ib := timed(t)(h.TimeTasks(p, mpi.OpSum, mpi.Byte, stepCfg(), TaskIB))
		sb := timed(t)(h.TimeTasks(p, mpi.OpSum, mpi.Byte, stepCfg(), TaskSB))
		if h.W.Mach.IsNodeLeader(p.Rank) {
			if ib <= 0 {
				t.Errorf("leader %d: ib %v", p.Rank, ib)
			}
		} else if ib != 0 {
			t.Errorf("non-leader %d: ib %v, want 0", p.Rank, ib)
		}
		if sb <= 0 {
			t.Errorf("rank %d: sb %v", p.Rank, sb)
		}
	})
}

// The concurrent ib+ir measurement (Fig 6) must show real overlap on the
// duplex fabric: conc < ib + ir.
func TestIbIrOverlapOnDuplexFabric(t *testing.T) {
	spec := cluster.Mini(4, 2)
	cfg := Config{FS: 512 << 10, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgChain, IRAlg: coll.AlgChain, IBS: 128 << 10, IRS: 128 << 10}
	var ib, ir, conc sim.Time
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		if d := timed(t)(h.TimeTasks(p, mpi.OpSum, mpi.Byte, cfg, TaskIB)); p.Rank == 0 {
			ib = d
		}
		if d := timed(t)(h.TimeTasks(p, mpi.OpSum, mpi.Float64, cfg, TaskIR)); p.Rank == 0 {
			ir = d
		}
		if d := timed(t)(h.TimeTasks(p, mpi.OpSum, mpi.Float64, cfg, TaskIB, TaskIR)); p.Rank == 0 {
			conc = d
		}
	})
	if conc >= ib+ir {
		t.Errorf("no ib/ir overlap: conc=%v, ib+ir=%v", conc, ib+ir)
	}
	if conc < ib && conc < ir {
		t.Errorf("conc (%v) below both parts (%v, %v): impossible", conc, ib, ir)
	}
}

// A HAN collective's host cost is one park per rank and no goroutine: every
// task of every submodule is a step-driven helper — the GPU level's and the
// PCIe stagings, and a single-node world's composed allreduce, too — and
// the segment pipeline is a routine the rank lends its process to, as the
// barrier is.
func TestCollectivesParkOncePerRankAndStartNoGoroutine(t *testing.T) {
	const segs = 4
	type call func(h *HAN, p *mpi.Proc, buf mpi.Buf, cfg Config) error
	barrier := func(h *HAN, p *mpi.Proc, _ mpi.Buf, _ Config) error { h.W.World().Barrier(p); return nil }
	bcast := func(h *HAN, p *mpi.Proc, buf mpi.Buf, cfg Config) error { return h.Bcast(p, buf, 0, cfg) }
	allreduce := func(h *HAN, p *mpi.Proc, buf mpi.Buf, cfg Config) error {
		return h.Allreduce(p, buf, buf, mpi.OpSum, mpi.Float64, cfg)
	}
	type row struct {
		name  string
		spec  cluster.Spec
		cfg   Config
		calls []call // a rank parks once in each
		// fallback: the world has one node, so every call takes the
		// intra-node degradation and returns its *FallbackError.
		fallback bool
	}
	levels := func(l string) Config {
		cfg := stepCfg()
		cfg.Levels = l
		return cfg
	}
	var rows []row
	for _, imod := range InterNames() {
		for _, smod := range IntraNames() {
			cfg := stepCfg()
			cfg.IMod, cfg.SMod, cfg.IBAlg, cfg.IRAlg = imod, smod, coll.AlgBinomial, coll.AlgBinomial
			rows = append(rows, row{imod + "/" + smod, cluster.Mini(4, 4), cfg, []call{barrier, bcast, barrier, allreduce}, false})
		}
	}
	rows = append(rows,
		row{"BcastGPU", gpuSpec(4, 8), levels(LevelsGPU), []call{bcast}, false},
		row{"AllreduceGPU", gpuSpec(4, 8), levels(LevelsGPU), []call{allreduce}, false},
		row{"Allreduce3", numaSpec(4, 8), levels(LevelsSocket), []call{allreduce}, false},
	)
	for _, smod := range IntraNames() {
		cfg := stepCfg()
		cfg.SMod = smod
		rows = append(rows, row{"single-node/" + smod, cluster.Mini(1, 8), cfg, []call{allreduce}, true})
	}
	for _, r := range rows {
		eng := sim.New()
		w := mpi.NewWorld(cluster.NewMachine(eng, r.spec), mpi.OpenMPI())
		h := New(w)
		w.Start(func(p *mpi.Proc) {
			buf := mpi.Phantom(segs * r.cfg.FS)
			for _, c := range r.calls {
				var fb *FallbackError
				if err := c(h, p, buf, r.cfg); err != nil && !(r.fallback && errors.As(err, &fb)) {
					t.Errorf("%s: rank %d: %v", r.name, p.Rank, err)
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		ranks := uint64(r.spec.Ranks())
		if got := eng.Goroutines(); got != ranks {
			t.Errorf("%s: %d goroutines started, want the %d ranks'", r.name, got, ranks)
		}
		if got, want := eng.Parks(), uint64(len(r.calls))*ranks; got != want {
			t.Errorf("%s: %d parks, want %d: one per rank per barrier and per collective", r.name, got, want)
		}
	}
}

// Once a world is warm a collective allocates nothing in this package: the
// pipeline lives in the rank's slot. What is left is one sim.Proc per helper
// process (each task's, which package coll accounts for), so the count is
// the tasks issued: per Bcast an sb on every rank and an ib on every leader,
// per segment. (One internal segment per ib: a helper that ends up waiting
// for more than two sends also grows its process's arm list.)
func TestSecondCollectiveAllocatesOnlyItsHelperProcs(t *testing.T) {
	const segs, warmup, measured = 4, 3, 5
	spec := cluster.Mini(4, 4)
	cfg := stepCfg()
	cfg.IBS = cfg.FS
	allocs := -1.0
	runWorld(t, spec, func(h *HAN, p *mpi.Proc) {
		round := func() {
			if err := h.Bcast(p, mpi.Phantom(segs*cfg.FS), 0, cfg); err != nil {
				t.Errorf("rank %d: %v", p.Rank, err)
			}
		}
		if p.Rank != 0 {
			for i := 0; i < warmup+1+measured; i++ {
				round()
			}
			return
		}
		for i := 0; i < warmup; i++ {
			round()
		}
		// AllocsPerRun calls round once more to warm up; the count is
		// process-wide, so it covers every rank and the engine goroutine.
		allocs = testing.AllocsPerRun(measured, round)
	})
	if helpers := float64(segs * (spec.Ranks() + spec.Nodes)); !arena.Debug && allocs > helpers {
		t.Errorf("a warm Bcast allocates %v objects, want at most its %v helper processes", allocs, helpers)
	}
}

// The flow layer arms one completion per connected component, so a
// rebalance retargets at most one pending event. Every positive-size flow
// start is one rebalance (completions with neighbours left are more), so the
// engine's in-place re-arms stay below the flows started. With a timer per
// flow they were a multiple of the rebalances wherever components hold more
// than a couple of flows: sixteen ranks on a node bus, not four.
func TestBcastRearmsAtMostOncePerRebalance(t *testing.T) {
	const segs = 4
	for _, spec := range []cluster.Spec{cluster.Mini(4, 4), cluster.Mini(4, 16)} {
		cfg := stepCfg()
		eng := sim.New()
		m := cluster.NewMachine(eng, spec)
		mon := m.Net.EnableMonitor()
		w := mpi.NewWorld(m, mpi.OpenMPI())
		h := New(w)
		w.Start(func(p *mpi.Proc) {
			if err := h.Bcast(p, mpi.Phantom(segs*cfg.FS), 0, cfg); err != nil {
				t.Errorf("rank %d: %v", p.Rank, err)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		started := uint64(mon.Totals().Started)
		if got := eng.Rearms(); got == 0 || got > started {
			t.Errorf("%dx%d: Bcast re-armed %d pending timers over %d flow starts, want between 1 and the starts",
				spec.Nodes, spec.PPN, got, started)
		}
	}
}
