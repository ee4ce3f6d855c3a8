package main

import (
	"fmt"

	"github.com/hanrepro/han/internal/apps"
	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/bench"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/exec"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/rivals"
	"github.com/hanrepro/han/internal/sim"
)

// expWorkers is the -workers flag: how many host workers the measurement
// fan-outs use (0 = GOMAXPROCS).
var expWorkers int

// fanOut runs job(0..n-1) on the experiment executor. Jobs build private
// worlds and write into index-addressed slots; callers print serially
// afterwards, so every figure is identical for any worker count.
func fanOut(n int, job func(i int)) {
	exec.New(expWorkers).Run(n, job)
}

// Scale is a size preset: the paper's machines, or the same hardware ratios
// at reduced node counts.
type Scale struct {
	Name     string
	Shaheen  cluster.Spec // figs 10, 11, 13 (+ 2, 3, 6 at TaskNodes nodes)
	Stampede cluster.Spec // figs 12, 14, 15; table III
	Tuning   cluster.Spec // figs 4, 7, 8, 9
	// TaskNodes is the node count of the task microbenchmarks (the paper
	// uses 6 nodes for figs 2 and 6).
	TaskNodes int
	Small     []int // IMB small-message sweep
	Large     []int // IMB large-message sweep
	Space     autotune.Space
	ASPIters  int
	Horovod   []int // node counts of the Fig 15 sweep
}

func derive(base cluster.Spec, nodes, ppn int) cluster.Spec {
	base.Nodes, base.PPN = nodes, ppn
	return base
}

var scales = map[string]Scale{
	"small": {
		Name:      "small",
		Shaheen:   derive(cluster.ShaheenII(), 8, 8),
		Stampede:  derive(cluster.Stampede2(), 8, 12),
		Tuning:    derive(cluster.Tuning64(), 8, 4),
		TaskNodes: 6,
		Small:     []int{4, 64, 1 << 10, 16 << 10, 128 << 10},
		Large:     []int{1 << 20, 4 << 20, 16 << 20, 64 << 20},
		Space: autotune.Space{
			Msgs:  []int{4 << 10, 256 << 10, 1 << 20, 4 << 20},
			FS:    []int{64 << 10, 256 << 10, 1 << 20},
			IMods: han.InterNames(),
			SMods: han.IntraNames(),
			IBS:   []int{64 << 10},
		},
		ASPIters: 32,
		Horovod:  []int{2, 4, 8},
	},
	"mid": {
		Name:      "mid",
		Shaheen:   derive(cluster.ShaheenII(), 16, 16),
		Stampede:  derive(cluster.Stampede2(), 16, 24),
		Tuning:    derive(cluster.Tuning64(), 12, 8),
		TaskNodes: 6,
		Small:     bench.SmallSizes(),
		Large:     bench.LargeSizes(),
		Space: autotune.Space{
			Msgs:  []int{4 << 10, 256 << 10, 1 << 20, 4 << 20},
			FS:    []int{64 << 10, 256 << 10, 512 << 10, 1 << 20},
			IMods: han.InterNames(),
			SMods: han.IntraNames(),
			IBS:   []int{64 << 10},
		},
		ASPIters: 64,
		Horovod:  []int{2, 4, 8, 16},
	},
	"paper": {
		Name:      "paper",
		Shaheen:   cluster.ShaheenII(),
		Stampede:  cluster.Stampede2(),
		Tuning:    cluster.Tuning64(),
		TaskNodes: 6,
		Small:     bench.SmallSizes(),
		Large:     bench.LargeSizes(),
		Space:     autotune.DefaultSpace(),
		ASPIters:  1536,
		Horovod:   []int{4, 8, 16, 32},
	},
}

// taskSpec is the machine for the Fig 2/3/6 task microbenchmarks.
func (sc Scale) taskSpec() cluster.Spec {
	return derive(sc.Shaheen, sc.TaskNodes, sc.Shaheen.PPN)
}

func header(sc Scale, title string) {
	fmt.Printf("\n## %s  [scale=%s]\n\n", title, sc.Name)
}

// taskConfigs are the submodule x algorithm combinations shown in the task
// microbenchmarks.
func taskConfigs(fs int) []han.Config {
	return []han.Config{
		{FS: fs, IMod: "libnbc", SMod: "sm", IBAlg: coll.AlgBinomial, IRAlg: coll.AlgBinomial},
		{FS: fs, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgBinomial, IRAlg: coll.AlgBinomial, IBS: 32 << 10, IRS: 32 << 10},
		{FS: fs, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgBinary, IRAlg: coll.AlgBinary, IBS: 32 << 10, IRS: 32 << 10},
		{FS: fs, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgChain, IRAlg: coll.AlgChain, IBS: 32 << 10, IRS: 32 << 10},
	}
}

func cfgLabel(c han.Config) string {
	return fmt.Sprintf("%s/%v", c.IMod, c.IBAlg)
}

// bcastTasks measures the Bcast task tables of the task configurations at
// 64KB segments on the task machine: the data of Figs 2 and 3.
func bcastTasks(sc Scale) ([]han.Config, []autotune.TableTasks) {
	env := autotune.NewEnv(sc.taskSpec(), mpi.OpenMPI())
	configs := taskConfigs(64 << 10)
	bts := make([]autotune.TableTasks, len(configs))
	fanOut(len(configs), func(i int) {
		bts[i] = env.MeasureTasks(coll.Bcast, configs[i], nil)
	})
	return configs, bts
}

// Fig2 reproduces the task-cost bars: per node leader, the cost of ib(0),
// sb(0), concurrent sb+ib with simultaneous starts, and sbib(1) measured
// inside the real pipeline (delayed starts included).
func Fig2(sc Scale) {
	header(sc, "Fig 2 — cost of tasks ib, sb and sbib per node leader (64KB segments, rank 0 root)")
	configs, bts := bcastTasks(sc)
	for i, cfg := range configs {
		s := bts[i].Steps // [ib(0), sbib(1..7), sb]
		fmt.Printf("config %s:\n", cfgLabel(cfg))
		fmt.Printf("  %-8s%12s%12s%16s%14s\n", "leader", "ib(0) µs", "sb(0) µs", "conc sb+ib µs", "sbib(1) µs")
		for l := range s[0] {
			fmt.Printf("  %-8d%12.1f%12.1f%16.1f%14.1f\n",
				l, s[0][l]*1e6, s[len(s)-1][l]*1e6, bts[i].SBIBConc[l]*1e6, s[1][l]*1e6)
		}
	}
	fmt.Println("\nExpected shape: leaders finish ib(0) at different times; conc < ib+sb but")
	fmt.Println("conc > max(ib, sb) (overlap significant yet imperfect); sbib(1) differs from conc.")
}

// Fig3 reproduces the sbib(i) stabilisation series on one node leader.
func Fig3(sc Scale) {
	header(sc, "Fig 3 — cost of sbib(i) on one node leader, i = 1..8")
	configs, bts := bcastTasks(sc)
	leader := sc.TaskNodes / 2 // "node leader 2" in the paper
	fmt.Printf("%-6s", "i")
	for _, cfg := range configs {
		fmt.Printf("%18s", cfgLabel(cfg))
	}
	fmt.Println(" (µs)")
	for i := 0; i < autotune.SBIBSeriesLen-1; i++ {
		fmt.Printf("%-6d", i+1)
		for c := range configs {
			fmt.Printf("%18.1f", bts[c].Steps[i+1][leader]*1e6)
		}
		fmt.Println()
	}
	fmt.Println("\nExpected shape: the first iterations pay pipeline warm-up; the cost stabilises.")
}

// modelValidation drives Figs 4 and 7: estimated (cost model) vs actual
// (measured) time over submodule/algorithm/segment-size combinations.
func modelValidation(sc Scale, kind coll.Kind, m int) {
	env := autotune.NewEnv(sc.Tuning, mpi.OpenMPI())
	meter := &autotune.Meter{}
	cands := sc.Space.Expand(kind, m, false, sc.Tuning.Nodes)
	ests := make([]float64, len(cands))
	acts := make([]float64, len(cands))
	fanOut(len(cands), func(i int) {
		ests[i] = autotune.Estimate(env.MeasureTasks(kind, cands[i].Cfg, meter), m)
		acts[i] = env.MeasureCollective(kind, m, cands[i].Cfg, 2, meter)
	})
	fmt.Printf("%-52s%14s%14s\n", "configuration", "estimated µs", "actual µs")
	bestEst, bestAct := -1.0, -1.0
	var cfgEst, cfgAct han.Config
	for i, cand := range cands {
		est, act := ests[i], acts[i]
		fmt.Printf("%-52s%14.1f%14.1f\n", cand.Cfg.String(), est*1e6, act*1e6)
		if bestEst < 0 || est < bestEst {
			bestEst, cfgEst = est, cand.Cfg
		}
		if bestAct < 0 || act < bestAct {
			bestAct, cfgAct = act, cand.Cfg
		}
	}
	fmt.Printf("\nmodel-chosen optimum:    %s\n", cfgEst)
	fmt.Printf("measured optimum:        %s\n", cfgAct)
	if cfgEst == cfgAct {
		fmt.Println("=> identical (the paper finds the same at 4MB)")
	} else {
		chosen := env.MeasureCollective(kind, m, cfgEst, 2, meter)
		fmt.Printf("=> different; model pick measures %.1fµs vs optimum %.1fµs (%.1f%% off)\n",
			chosen*1e6, bestAct*1e6, 100*(chosen-bestAct)/bestAct)
	}
}

// Fig4 validates the Bcast cost model (equation 3) on a 4MB message.
func Fig4(sc Scale) {
	header(sc, "Fig 4 — MPI_Bcast cost model validation, 4MB message")
	modelValidation(sc, coll.Bcast, 4<<20)
}

// overlapTimers are Fig 6's lone ib, lone ir and concurrent ib+ir.
var overlapTimers = []autotune.TaskSet{
	{DT: mpi.Byte, Tasks: []han.Task{han.TaskIB}},
	{DT: mpi.Float64, Tasks: []han.Task{han.TaskIR}},
	{DT: mpi.Float64, Tasks: []han.Task{han.TaskIB, han.TaskIR}},
}

// Fig6 reproduces the ib/ir full-duplex overlap measurement.
func Fig6(sc Scale) {
	header(sc, "Fig 6 — overlap between ib and ir (64KB segments, rank 0 root)")
	env := autotune.NewEnv(sc.taskSpec(), mpi.OpenMPI())
	configs := taskConfigs(64 << 10)
	costs := make([][][]float64, len(configs)) // [config][ib, ir, conc][leader]
	fanOut(len(configs), func(i int) {
		costs[i] = env.TimeTasks(configs[i], overlapTimers, nil)
	})
	for i, cfg := range configs {
		fmt.Printf("config %s:\n", cfgLabel(cfg))
		fmt.Printf("  %-8s%12s%12s%18s\n", "leader", "ib µs", "ir µs", "conc ib+ir µs")
		for l := range costs[i][0] {
			fmt.Printf("  %-8d%12.1f%12.1f%18.1f\n", l, costs[i][0][l]*1e6, costs[i][1][l]*1e6, costs[i][2][l]*1e6)
		}
	}
	fmt.Println("\nExpected shape: conc well below ib+ir (high overlap on the full-duplex fabric).")
}

// Fig7 validates the Allreduce cost model (equation 4) on a 4MB message.
func Fig7(sc Scale) {
	header(sc, "Fig 7 — MPI_Allreduce cost model validation, 4MB message")
	modelValidation(sc, coll.Allreduce, 4<<20)
}

// Fig8and9 runs the four tuning methods and prints the Fig 8 cost bars and
// the Fig 9 accuracy comparison from the same searches.
func Fig8and9(sc Scale, costOnly bool) {
	header(sc, "Figs 8 & 9 — autotuning cost and accuracy (Bcast + Allreduce)")
	env := autotune.NewEnv(sc.Tuning, mpi.OpenMPI())
	kinds := []coll.Kind{coll.Bcast, coll.Allreduce}
	methods := []autotune.Method{
		autotune.Exhaustive, autotune.ExhaustiveHeuristics,
		autotune.TaskBased, autotune.Combined,
	}
	results := make(map[autotune.Method]autotune.Result)
	for _, m := range methods {
		results[m] = autotune.RunSearch(env, sc.Space, kinds, m, autotune.SearchOpts{Iters: 2, Workers: expWorkers})
	}

	exCost := results[autotune.Exhaustive].Table.TuningCost
	fmt.Println("Fig 8 — total search time per tuning method:")
	fmt.Printf("%-18s%16s%12s%12s\n", "method", "bench runs", "time (s)", "% of exh.")
	for _, m := range methods {
		t := results[m].Table
		fmt.Printf("%-18s%16d%12.2f%12.1f\n", t.Method, t.Measurements, t.TuningCost, 100*t.TuningCost/exCost)
	}
	if costOnly {
		fmt.Println("\n(paper: heuristics 26.8%, task-based large cut, combined 4.3% of exhaustive)")
	}

	fmt.Println("\nFig 9 — time-to-completion of the selected configurations (µs):")
	fmt.Printf("%-28s%12s%12s%12s%12s%12s%12s%12s\n",
		"input", "exh.best", "exh.median", "exh.avg", "exh+heur", "task", "task+heur", "")
	meter := &autotune.Meter{}
	entries := results[autotune.Exhaustive].Table.Entries
	picksFor := []autotune.Method{autotune.ExhaustiveHeuristics, autotune.TaskBased, autotune.Combined}
	picks := make([]float64, len(entries)*len(picksFor))
	fanOut(len(picks), func(j int) {
		in := entries[j/len(picksFor)].In
		cfg := results[picksFor[j%len(picksFor)]].Table.Decide(in.T, in.M)
		picks[j] = env.MeasureCollective(in.T, in.M, cfg, 2, meter)
	})
	for i, e := range entries {
		in := e.In
		st := results[autotune.Exhaustive].Stats[in]
		row := []float64{st.Best, st.Median, st.Average}
		row = append(row, picks[i*len(picksFor):(i+1)*len(picksFor)]...)
		fmt.Printf("%-28s", in.String())
		for _, v := range row {
			fmt.Printf("%12.1f", v*1e6)
		}
		fmt.Println()
	}
	fmt.Println("\nExpected shape: task-based ~= exhaustive best; heuristics slightly less accurate;")
	fmt.Println("median and average far above best (tuning matters).")
}

// The systems Figs 10 and 13 compare on Shaheen II, and Figs 12 and 14 on
// Stampede2.
var (
	shaheenSystems  = []bench.System{bench.HANSystem(nil), bench.RivalSystem(rivals.OpenMPIDefault), bench.RivalSystem(rivals.CrayMPI)}
	stampedeSystems = []bench.System{bench.HANSystem(nil), bench.RivalSystem(rivals.OpenMPIDefault), bench.RivalSystem(rivals.IntelMPI), bench.RivalSystem(rivals.MVAPICH2)}
)

// imbFigure prints one of Figs 10/12/13/14: the benchmark comparison over the
// small sizes (part a), then over the large ones (part b).
func imbFigure(fig string, sc Scale, spec cluster.Spec, kind coll.Kind, systems []bench.System) {
	imbComparison(fig+"a — small messages", spec, kind, systems, sc.Small)
	imbComparison(fig+"b — large messages", spec, kind, systems, sc.Large)
}

// imbComparison prints one part of an IMB figure and HAN's speedups.
func imbComparison(title string, spec cluster.Spec, kind coll.Kind, systems []bench.System, sizes []int) {
	names := make([]string, len(systems))
	for i, sys := range systems {
		names[i] = sys.Name
	}
	points := bench.IMBAll(spec, systems, kind, sizes, bench.IMBOpts{}, expWorkers)
	fmt.Print(bench.FormatTable(title+" (µs)", sizes, names, points))
	// Speedup rows: HAN vs each rival.
	fmt.Printf("%-10s", "speedup")
	for _, n := range names {
		if n == "HAN" {
			fmt.Printf("%16s", "-")
			continue
		}
		best := 0.0
		for i := range sizes {
			s := points[n][i].Seconds / points["HAN"][i].Seconds
			if s > best {
				best = s
			}
		}
		fmt.Printf("%15.2fx", best)
	}
	fmt.Println("   (max over sizes, HAN vs column)")
}

// Fig10 compares MPI_Bcast on the Shaheen II machine.
func Fig10(sc Scale) {
	header(sc, fmt.Sprintf("Fig 10 — MPI_Bcast on Shaheen II (%d processes)", sc.Shaheen.Ranks()))
	imbFigure("Fig 10", sc, sc.Shaheen, coll.Bcast, shaheenSystems)
	fmt.Println("\nExpected shape: HAN >> default OMPI everywhere; Cray slightly ahead for small,")
	fmt.Println("HAN ahead for large (up to ~2x) thanks to ib/sb overlap.")
}

// Fig11 compares Netpipe P2P bandwidth between Open MPI and Cray MPI.
func Fig11(sc Scale) {
	header(sc, "Fig 11 — P2P performance on Shaheen II (Netpipe)")
	spec := derive(sc.Shaheen, 2, sc.Shaheen.PPN)
	sizes := []int{64, 512, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 512 << 10, 2 << 20, 8 << 20, 32 << 20, 128 << 20}
	ompi := bench.Netpipe(spec, mpi.OpenMPI(), sizes)
	cray := bench.Netpipe(spec, rivals.CrayMPI.Personality(), sizes)
	fmt.Printf("%-10s%16s%16s\n", "size", "OpenMPI MB/s", "CrayMPI MB/s")
	for i, s := range sizes {
		fmt.Printf("%-10s%16.0f%16.0f\n", han.SizeString(s), ompi[i].MBps, cray[i].MBps)
	}
	fmt.Println("\nExpected shape: Cray ahead between 512B and 2MB (worst gap 16KB-512KB);")
	fmt.Println("identical peak for large messages.")
}

// Fig12 compares MPI_Bcast on the Stampede2 machine.
func Fig12(sc Scale) {
	header(sc, fmt.Sprintf("Fig 12 — MPI_Bcast on Stampede2 (%d processes)", sc.Stampede.Ranks()))
	imbFigure("Fig 12", sc, sc.Stampede, coll.Bcast, stampedeSystems)
	fmt.Println("\nExpected shape: HAN fastest on both ranges (paper: up to 1.15x/2.28x/5.35x small,")
	fmt.Println("1.39x/3.83x/1.73x large vs Intel/MVAPICH2/default OMPI).")
}

// Fig13 compares MPI_Allreduce on the Shaheen II machine.
func Fig13(sc Scale) {
	header(sc, fmt.Sprintf("Fig 13 — MPI_Allreduce on Shaheen II (%d processes)", sc.Shaheen.Ranks()))
	imbFigure("Fig 13", sc, sc.Shaheen, coll.Allreduce, shaheenSystems)
	fmt.Println("\nExpected shape: Cray ahead for small (HAN's SM/libnbc lack AVX reductions);")
	fmt.Println("HAN ahead beyond ~2MB (paper: up to 1.12x); default OMPI far behind.")
}

// Fig14 compares MPI_Allreduce on the Stampede2 machine.
func Fig14(sc Scale) {
	header(sc, fmt.Sprintf("Fig 14 — MPI_Allreduce on Stampede2 (%d processes)", sc.Stampede.Ranks()))
	imbFigure("Fig 14", sc, sc.Stampede, coll.Allreduce, stampedeSystems)
	fmt.Println("\nExpected shape: HAN fastest 4-64MB; MVAPICH2 (multi-leader ring) converges with")
	fmt.Println("HAN at the largest sizes, both well ahead of Intel and default OMPI.")
}

// Tab3 reproduces the ASP application comparison.
func Tab3(sc Scale) {
	header(sc, fmt.Sprintf("Table III — ASP, %d processes, 1M matrix rows", sc.Stampede.Ranks()))
	prm := apps.DefaultASPParams(sc.Stampede.Ranks())
	prm.Iters = sc.ASPIters
	systems := []bench.System{
		bench.HANSystem(nil),
		bench.RivalSystem(rivals.IntelMPI),
		bench.RivalSystem(rivals.MVAPICH2),
		bench.RivalSystem(rivals.OpenMPIDefault),
	}
	var hanTotal float64
	fmt.Printf("%-18s%12s%12s%12s%14s\n", "system", "total (s)", "comm (s)", "comm %", "HAN speedup")
	rows := make([]apps.ASPResult, len(systems))
	for i, sys := range systems {
		rows[i] = apps.RunASP(sc.Stampede, sys, prm)
		if sys.Name == "HAN" {
			hanTotal = rows[i].Total
		}
	}
	for _, r := range rows {
		fmt.Printf("%-18s%12.3f%12.3f%12.2f%13.2fx\n",
			r.System, r.Total, r.Comm, 100*r.CommRatio, r.Total/hanTotal)
	}
	fmt.Println("\nExpected shape: HAN lowest comm ratio (paper: 46.41% vs 50.24/69.29/81.77)")
	fmt.Println("and overall speedups ~1.08x/1.8x/2.43x vs Intel/MVAPICH2/default OMPI.")
}

// Fig15 reproduces the Horovod scaling study.
func Fig15(sc Scale) {
	header(sc, "Fig 15 — Horovod/AlexNet on Stampede2 (images/s, higher is better)")
	prm := apps.DefaultHorovodParams()
	systems := []bench.System{
		bench.HANSystem(nil),
		bench.RivalSystem(rivals.OpenMPIDefault),
		bench.RivalSystem(rivals.IntelMPI),
	}
	fmt.Printf("%-10s", "procs")
	for _, sys := range systems {
		fmt.Printf("%18s", sys.Name)
	}
	fmt.Println()
	for _, nodes := range sc.Horovod {
		spec := derive(sc.Stampede, nodes, sc.Stampede.PPN)
		fmt.Printf("%-10d", spec.Ranks())
		for _, sys := range systems {
			r := apps.RunHorovod(spec, sys, prm)
			fmt.Printf("%18.0f", r.ImagesSec)
		}
		fmt.Println()
	}
	fmt.Println("\nExpected shape: gains for HAN grow with process count (paper: 24.3% over")
	fmt.Println("default OMPI, 9.05% over Intel MPI at 1536 processes).")
}

// AblatePipeline quantifies segmentation: HAN Bcast with the tuned fs
// versus a single segment (fs = m). The achievable gain is bounded by the
// balance between the inter-node (ib) and intra-node (sb) stage costs —
// pipelining turns ib+sb into ~max(ib, sb) — so the ablation sweeps the
// processes-per-node axis, which controls that balance.
func AblatePipeline(sc Scale) {
	header(sc, "Ablation — pipelining (fs = tuned vs fs = m), across ppn")
	for _, ppn := range []int{4, 8, 32} {
		spec := derive(sc.Shaheen, sc.Shaheen.Nodes, ppn)
		fmt.Printf("ppn=%d:\n", ppn)
		fmt.Printf("  %-10s%16s%16s%10s\n", "size", "pipelined µs", "monolithic µs", "gain")
		for _, m := range sc.Large {
			piped := bench.Once(spec, coll.Bcast, m, han.Config{})
			cfg := han.DefaultDecision(coll.Bcast, m)
			cfg.FS = m
			mono := bench.Once(spec, coll.Bcast, m, cfg)
			fmt.Printf("  %-10s%16.1f%16.1f%9.2fx\n", han.SizeString(m), piped*1e6, mono*1e6, mono/piped)
		}
	}
	fmt.Println("\nExpected shape: the gain peaks where ib and sb costs balance (overlap turns")
	fmt.Println("ib+sb into ~max(ib, sb)) and shrinks when either stage dominates. Known model")
	fmt.Println("deviation: our intra-node reads all cross one DRAM bus, which the inbound NIC")
	fmt.Println("DMA also uses, so the bus caps the bcast overlap benefit; on real nodes LLC")
	fmt.Println("serves concurrent readers and the paper's bcast pipelining gains are larger.")
	fmt.Println("Allreduce, whose four stages spread across more resources, shows the pipeline")
	fmt.Println("benefit clearly (see the split ablation).")
}

// AblateSplit compares HAN's split ir+ib inter-node stage against a fused
// inter-node allreduce (the design of SALaR and the multi-leader work the
// paper argues against in section III-B1): the same decision with a fused
// top, whose table is sr, ia, sb — no ir/ib split, so no duplex overlap
// between reduction and broadcast traffic.
func AblateSplit(sc Scale) {
	header(sc, "Ablation — split ir+ib vs fused inter-node allreduce")
	spec := sc.Shaheen
	fmt.Printf("%-10s%16s%16s%10s\n", "size", "split µs", "fused µs", "gain")
	for _, m := range sc.Large {
		split := bench.Once(spec, coll.Allreduce, m, han.Config{})
		cfg := han.DefaultDecision(coll.Allreduce, m)
		cfg.Top = han.TopFused
		fused := bench.Once(spec, coll.Allreduce, m, cfg)
		fmt.Printf("%-10s%16.1f%16.1f%9.2fx\n", han.SizeString(m), split*1e6, fused*1e6, fused/split)
	}
	fmt.Println("\nExpected shape: splitting the inter-node allreduce into explicit ir + ib")
	fmt.Println("pipelines better and wins for large messages.")
}

// AblateOverlap compares the cost model's measured-task estimate against
// the perfect-overlap and no-overlap assumptions of prior models.
func AblateOverlap(sc Scale) {
	header(sc, "Ablation — cost model overlap assumptions (Bcast, 4MB)")
	env := autotune.NewEnv(sc.Tuning, mpi.OpenMPI())
	meter := &autotune.Meter{}
	m := 4 << 20
	configs := taskConfigs(512 << 10)
	overlapTTs := make([]autotune.TableTasks, len(configs))
	overlapActs := make([]float64, len(configs))
	fanOut(len(configs), func(i int) {
		overlapTTs[i] = env.MeasureTasks(coll.Bcast, configs[i], meter)
		overlapActs[i] = env.MeasureCollective(coll.Bcast, m, configs[i], 2, meter)
	})
	fmt.Printf("%-36s%12s%12s%12s%12s\n", "configuration", "actual µs", "HAN est", "perfect", "no-overlap")
	for i, cfg := range configs {
		tt, act := overlapTTs[i], overlapActs[i]
		est := autotune.Estimate(tt, m)
		u := autotune.SegmentsOf(cfg, m)
		perfect, noOverlap := 0.0, 0.0
		for l := range tt.Steps[0] {
			ib, sb := tt.Steps[0][l], tt.Steps[len(tt.Steps)-1][l]
			mx := ib
			if sb > mx {
				mx = sb
			}
			if v := ib + float64(u-1)*mx + sb; v > perfect {
				perfect = v
			}
			if v := ib + float64(u-1)*(ib+sb) + sb; v > noOverlap {
				noOverlap = v
			}
		}
		fmt.Printf("%-36s%12.1f%12.1f%12.1f%12.1f\n",
			cfgLabel(cfg), act*1e6, est*1e6, perfect*1e6, noOverlap*1e6)
	}
	fmt.Println("\nExpected shape: HAN's measured-task estimate closest to actual;")
	fmt.Println("perfect-overlap underestimates, no-overlap overestimates.")
}

// AblateHeuristics quantifies the accuracy the heuristics give up.
func AblateHeuristics(sc Scale) {
	header(sc, "Ablation — heuristics accuracy trade-off")
	env := autotune.NewEnv(sc.Tuning, mpi.OpenMPI())
	kinds := []coll.Kind{coll.Bcast}
	ex := autotune.RunSearch(env, sc.Space, kinds, autotune.Exhaustive, autotune.SearchOpts{Iters: 2, Workers: expWorkers})
	eh := autotune.RunSearch(env, sc.Space, kinds, autotune.ExhaustiveHeuristics, autotune.SearchOpts{Iters: 2, Workers: expWorkers})
	fmt.Printf("search cost: full %.2fs, heuristics %.2fs (%.1f%%)\n",
		ex.Table.TuningCost, eh.Table.TuningCost, 100*eh.Table.TuningCost/ex.Table.TuningCost)
	meter := &autotune.Meter{}
	hMeas := make([]float64, len(ex.Table.Entries))
	fanOut(len(hMeas), func(i int) {
		in := ex.Table.Entries[i].In
		hMeas[i] = env.MeasureCollective(in.T, in.M, eh.Table.Decide(in.T, in.M), 2, meter)
	})
	fmt.Printf("%-28s%14s%18s%10s\n", "input", "full best µs", "heuristic pick µs", "loss")
	for i, e := range ex.Table.Entries {
		in := e.In
		best := ex.Stats[in].Best
		fmt.Printf("%-28s%14.1f%18.1f%9.1f%%\n", in.String(), best*1e6, hMeas[i]*1e6, 100*(hMeas[i]-best)/best)
	}
	fmt.Println("\nExpected shape: heuristics cut cost sharply at a small (sometimes zero) accuracy loss.")
}

// AblateLevels compares the two-level hierarchy against the three-level
// (socket-aware) one the paper lists as future work, on a dual-socket
// machine whose UPI link is a bottleneck.
func AblateLevels(sc Scale) {
	header(sc, "Ablation — two-level vs three-level hierarchy (dual-socket NUMA)")
	spec := sc.Shaheen
	spec.SocketsPerNode = 2
	spec.SocketBusBandwidth = spec.MemBusBandwidth * 0.6
	spec.UPIBandwidth = spec.MemBusBandwidth * 0.35
	fmt.Printf("%-10s%16s%16s%10s\n", "size", "two-level µs", "three-level µs", "gain")
	for _, m := range sc.Large {
		cfg := han.DefaultDecision(coll.Bcast, m)
		two := bench.Once(spec, coll.Bcast, m, cfg)
		three := onGoroutines(spec, func(h *han.HAN, p *mpi.Proc) { h.Bcast3(p, mpi.Phantom(m), 0, cfg) })
		fmt.Printf("%-10s%16.1f%16.1f%9.2fx\n", han.SizeString(m), two*1e6, three*1e6, two/three)
	}
	fmt.Println("\nExpected shape: the socket-aware hierarchy wins once payloads saturate the")
	fmt.Println("cross-socket link (it crosses UPI once per node instead of once per remote rank).")
}

// AblateOnline compares HAN's offline tuning against STAR-MPI-style online
// tuning over an application-like sequence of identical collective calls —
// the trade-off the paper's related-work section argues about: online
// tuning needs no installation-time benchmarking but pays a convergence
// period and per-call bookkeeping inside the application.
func AblateOnline(sc Scale) {
	header(sc, "Ablation — offline (HAN) vs online (STAR-MPI-style) tuning")
	spec := sc.Tuning
	m := 4 << 20
	const calls = 80

	// Offline: tune first (cost accounted separately), then run.
	env := autotune.NewEnv(spec, mpi.OpenMPI())
	res := autotune.RunSearch(env, sc.Space, []coll.Kind{coll.Bcast}, autotune.Combined, autotune.SearchOpts{Workers: expWorkers})
	offlinePer := runCallSeq(spec, sc.Space, calls, func(h *han.HAN, tuner *autotune.OnlineTuner, p *mpi.Proc) {
		h.Bcast(p, mpi.Phantom(m), 0, res.Table.Decide(coll.Bcast, m))
	})
	onlinePer := runCallSeq(spec, sc.Space, calls, func(h *han.HAN, tuner *autotune.OnlineTuner, p *mpi.Proc) {
		tuner.Bcast(p, mpi.Phantom(m), 0)
	})
	defaultPer := runCallSeq(spec, sc.Space, calls, func(h *han.HAN, tuner *autotune.OnlineTuner, p *mpi.Proc) {
		h.Bcast(p, mpi.Phantom(m), 0, han.Config{})
	})

	cum := func(d []float64, n int) float64 {
		s := 0.0
		for _, v := range d[:n] {
			s += v
		}
		return s
	}
	fmt.Printf("one-time offline tuning cost: %.2f s of machine time (%d runs)\n\n",
		res.Table.TuningCost, res.Table.Measurements)
	fmt.Printf("%-10s%16s%16s%16s\n", "calls", "offline ms", "online ms", "default ms")
	for _, n := range []int{5, 10, 20, 40, calls} {
		fmt.Printf("%-10d%16.2f%16.2f%16.2f\n", n, cum(offlinePer, n)*1e3, cum(onlinePer, n)*1e3, cum(defaultPer, n)*1e3)
	}
	last := 10
	fmt.Printf("\nsteady-state per-call (last %d calls): offline %.3f ms, online %.3f ms, default %.3f ms\n",
		last,
		(cum(offlinePer, calls)-cum(offlinePer, calls-last))/float64(last)*1e3,
		(cum(onlinePer, calls)-cum(onlinePer, calls-last))/float64(last)*1e3,
		(cum(defaultPer, calls)-cum(defaultPer, calls-last))/float64(last)*1e3)
	fmt.Println("\nExpected shape: online tuning converges to a good configuration but its trial")
	fmt.Println("period and per-call overhead cost the application; offline is flat from call one.")
}

// runCallSeq runs `calls` collective calls and returns per-call max-rank
// durations. Its ranks are goroutines: the online tuner decides inside each
// call, in blocking code that has no step form.
func runCallSeq(spec cluster.Spec, space autotune.Space, calls int, body func(h *han.HAN, tuner *autotune.OnlineTuner, p *mpi.Proc)) []float64 {
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	h := han.New(w)
	tuner := autotune.NewOnlineTuner(h, space)
	durs := make([]float64, calls)
	w.Start(func(p *mpi.Proc) {
		c := w.World()
		for i := 0; i < calls; i++ {
			c.Barrier(p)
			t0 := p.Now()
			body(h, tuner, p)
			if d := float64(p.Now() - t0); d > durs[i] {
				durs[i] = d
			}
		}
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return durs
}

// AblateGPU evaluates the GPU-level future work: HAN's pipelined GPU-aware
// broadcast against the naive stage-everything-then-broadcast approach.
func AblateGPU(sc Scale) {
	header(sc, "Ablation — GPU-aware pipelined bcast vs naive staging")
	spec := sc.Shaheen
	spec.GPUsPerNode = 4
	spec.GPUMemBandwidth = 700e9
	spec.NVLinkBandwidth = 50e9
	spec.PCIeBandwidth = 12e9
	fmt.Printf("%-10s%18s%18s%10s\n", "size", "pipelined µs", "naive staging µs", "gain")
	for _, m := range sc.Large {
		cfg := han.DefaultDecision(coll.Bcast, m)
		piped := onGoroutines(spec, func(h *han.HAN, p *mpi.Proc) {
			h.BcastGPU(p, mpi.Phantom(m), 0, cfg)
		})
		naive := onGoroutines(spec, func(h *han.HAN, p *mpi.Proc) {
			cuda := h.Mods.CUDA
			node := h.W.NodeComm(p.Node())
			if p.Rank == 0 {
				cuda.D2H(p, m)
			}
			h.Bcast(p, mpi.Phantom(m), 0, cfg)
			if h.W.Mach.IsNodeLeader(p.Rank) {
				cuda.H2D(p, m)
			}
			p.Wait(cuda.Ibcast(p, node, mpi.Phantom(m), 0, coll.Params{}))
		})
		fmt.Printf("%-10s%18.1f%18.1f%9.2fx\n", han.SizeString(m), piped*1e6, naive*1e6, naive/piped)
	}
	fmt.Println("\nExpected shape: integrating the GPU level into the task pipeline hides the")
	fmt.Println("PCIe stagings behind the inter-node transfers; the naive approach serialises them.")
}

// onGoroutines runs body on every rank of a new world of spec on Open MPI's
// P2P layer, each rank a goroutine (mpi.World.Start), and returns when the
// last rank came out of it. It is for the rank programs that have no step
// form: Bcast3, BcastGPU and the hand-written waits of the naive GPU
// staging. A two-level collective on the world takes bench.Once's routines
// instead.
func onGoroutines(spec cluster.Spec, body func(h *han.HAN, p *mpi.Proc)) float64 {
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	h := han.New(w)
	var end sim.Time
	w.Start(func(p *mpi.Proc) {
		body(h, p)
		end = max(end, p.Now())
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return float64(end)
}

// AblateNoise injects latency jitter (system noise) and compares how HAN
// and the flat default degrade — hierarchical, pipelined collectives absorb
// per-message noise better than long flat dependency chains.
func AblateNoise(sc Scale) {
	header(sc, "Ablation — robustness to system noise (latency jitter)")
	spec := sc.Shaheen
	// A latency-bound size: noise perturbs per-message latencies, so long
	// dependency chains feel it most.
	m := 16 << 10
	fmt.Printf("%-10s%14s%14s%16s%16s\n", "jitter", "HAN µs", "default µs", "HAN slowdown", "default slowdown")
	base := map[string]float64{}
	for _, jitter := range []float64{0, 1, 2, 4} {
		hanT := noisyBcast(spec, bench.HANSystem(nil), m, jitter)
		ompiT := noisyBcast(spec, bench.RivalSystem(rivals.OpenMPIDefault), m, jitter)
		if jitter == 0 {
			base["han"], base["ompi"] = hanT, ompiT
		}
		fmt.Printf("%-10.1f%14.1f%14.1f%15.2fx%15.2fx\n",
			jitter, hanT*1e6, ompiT*1e6, hanT/base["han"], ompiT/base["ompi"])
	}
	fmt.Println("\nExpected shape: the flat default is so bandwidth-bound at this size that")
	fmt.Println("latency jitter vanishes in it, while HAN's much faster latency-bound path")
	fmt.Println("visibly absorbs the noise — yet HAN stays far ahead in absolute terms at")
	fmt.Println("every noise level, so the tuning decisions remain valid on noisy systems.")
}

// noisyBcast returns the worst of three timed Bcasts after a warm-up, each
// after a barrier. It keeps its own loop because IMBWith reports the mean.
func noisyBcast(spec cluster.Spec, sys bench.System, m int, jitter float64) float64 {
	pers := sys.Pers
	pers.Jitter = jitter
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), pers)
	w.Seed(42)
	ops := sys.Setup(w)
	const iters = 3
	var worst float64
	w.Start(func(p *mpi.Proc) {
		c := w.World()
		for it := 0; it <= iters; it++ {
			c.Barrier(p)
			t0 := p.Now()
			ops.Bcast(p, mpi.Phantom(m), 0)
			if d := float64(p.Now() - t0); it > 0 && d > worst {
				worst = d
			}
		}
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return worst
}
