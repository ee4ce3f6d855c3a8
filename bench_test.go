// Package hanbench holds the top-level benchmark harness: one testing.B
// benchmark per table and figure of the HAN paper's evaluation section.
//
// Each benchmark runs the corresponding experiment at reduced scale (the
// hardware ratios of the paper's machines, fewer nodes) and reports the
// *virtual* time of the headline measurement as "sim-us/op" next to the
// wall-clock cost of simulating it. cmd/hanexp regenerates the full
// rows/series of every figure, including at paper scale (-scale paper).
//
// Run with:
//
//	go test -bench=. -benchmem
package hanbench

import (
	"fmt"
	"math"
	"testing"

	"github.com/hanrepro/han/internal/apps"
	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/bench"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/rivals"
	"github.com/hanrepro/han/internal/sim"
)

func shaheenSmall() cluster.Spec {
	s := cluster.ShaheenII()
	s.Nodes, s.PPN = 8, 8
	return s
}

func stampedeSmall() cluster.Spec {
	s := cluster.Stampede2()
	s.Nodes, s.PPN = 8, 12
	return s
}

func tuningSmall() cluster.Spec {
	s := cluster.Tuning64()
	s.Nodes, s.PPN = 8, 4
	return s
}

func taskSpec() cluster.Spec {
	s := cluster.ShaheenII()
	s.Nodes, s.PPN = 6, 8
	return s
}

func taskCfg() han.Config {
	return han.Config{FS: 64 << 10, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgBinary, IRAlg: coll.AlgBinary, IBS: 32 << 10, IRS: 32 << 10}
}

// BenchmarkFig02TaskCosts measures the ib/sb/sbib task costs on 6 nodes
// with 64KB segments (Fig 2).
func BenchmarkFig02TaskCosts(b *testing.B) {
	env := autotune.NewEnv(taskSpec(), mpi.OpenMPI())
	var last autotune.TableTasks
	for i := 0; i < b.N; i++ {
		last = env.MeasureTasks(coll.Bcast, taskCfg(), &autotune.Meter{})
	}
	b.ReportMetric(avg(last.SBIBConc)*1e6, "sim-us/sbib-conc")
	b.ReportMetric(avg(last.Steps[0])*1e6, "sim-us/ib0")
}

// BenchmarkFig03SbibStabilize measures the sbib(i) warm-up series (Fig 3).
func BenchmarkFig03SbibStabilize(b *testing.B) {
	env := autotune.NewEnv(taskSpec(), mpi.OpenMPI())
	stable := make([]float64, taskSpec().Nodes)
	for i := 0; i < b.N; i++ {
		bt := env.MeasureTasks(coll.Bcast, taskCfg(), &autotune.Meter{})
		for l := range stable {
			stable[l] = bt.Stable(l)
		}
	}
	b.ReportMetric(avg(stable)*1e6, "sim-us/sbib-stable")
}

// BenchmarkFig04BcastModel runs the Bcast cost-model validation point: the
// estimate and the measurement for one 4MB configuration (Fig 4).
func BenchmarkFig04BcastModel(b *testing.B) {
	env := autotune.NewEnv(tuningSmall(), mpi.OpenMPI())
	cfg := han.Config{FS: 512 << 10, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgBinary, IBS: 64 << 10, IRS: 64 << 10}
	var est, act float64
	for i := 0; i < b.N; i++ {
		meter := &autotune.Meter{}
		est = autotune.Estimate(env.MeasureTasks(coll.Bcast, cfg, meter), 4<<20)
		act = env.MeasureCollective(coll.Bcast, 4<<20, cfg, 2, meter)
	}
	b.ReportMetric(est*1e6, "sim-us/estimated")
	b.ReportMetric(act*1e6, "sim-us/actual")
}

// BenchmarkFig06IbIrOverlap measures the concurrent ib+ir overlap (Fig 6).
func BenchmarkFig06IbIrOverlap(b *testing.B) {
	spec := taskSpec()
	var conc float64
	for i := 0; i < b.N; i++ {
		c := 0.0
		eng, w := newWorld(spec)
		h := han.New(w)
		w.Start(func(p *mpi.Proc) {
			d, err := h.TimeTasks(p, mpi.OpSum, mpi.Float64, taskCfg(), han.TaskIB, han.TaskIR)
			if err != nil {
				b.Error(err)
			}
			if float64(d) > c {
				c = float64(d)
			}
		})
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		conc = c
	}
	b.ReportMetric(conc*1e6, "sim-us/conc-ib-ir")
}

// BenchmarkFig07AllreduceModel runs the Allreduce cost-model validation
// point (Fig 7).
func BenchmarkFig07AllreduceModel(b *testing.B) {
	env := autotune.NewEnv(tuningSmall(), mpi.OpenMPI())
	cfg := han.Config{FS: 1 << 20, IMod: "adapt", SMod: "solo", IBAlg: coll.AlgBinary, IBS: 64 << 10, IRS: 64 << 10}
	var est, act float64
	for i := 0; i < b.N; i++ {
		meter := &autotune.Meter{}
		est = autotune.Estimate(env.MeasureTasks(coll.Allreduce, cfg, meter), 4<<20)
		act = env.MeasureCollective(coll.Allreduce, 4<<20, cfg, 2, meter)
	}
	b.ReportMetric(est*1e6, "sim-us/estimated")
	b.ReportMetric(act*1e6, "sim-us/actual")
}

func searchSpace() autotune.Space {
	return autotune.Space{
		Msgs:  []int{4 << 10, 256 << 10, 4 << 20},
		FS:    []int{64 << 10, 256 << 10, 1 << 20},
		IMods: han.InterNames(),
		SMods: han.IntraNames(),
		IBS:   []int{64 << 10},
	}
}

// BenchmarkFig08TuningCost compares the tuning time of the exhaustive and
// task-based searches (Fig 8).
func BenchmarkFig08TuningCost(b *testing.B) {
	env := autotune.NewEnv(tuningSmall(), mpi.OpenMPI())
	var ex, task float64
	for i := 0; i < b.N; i++ {
		ex = autotune.RunSearch(env, searchSpace(), []coll.Kind{coll.Bcast}, autotune.Exhaustive, autotune.SearchOpts{Iters: 2}).Table.TuningCost
		task = autotune.RunSearch(env, searchSpace(), []coll.Kind{coll.Bcast}, autotune.Combined, autotune.SearchOpts{}).Table.TuningCost
	}
	b.ReportMetric(ex, "sim-s/exhaustive")
	b.ReportMetric(task, "sim-s/task+heur")
}

// BenchmarkFig09TuningAccuracy measures how close the task-based selection
// is to the exhaustive best (Fig 9).
func BenchmarkFig09TuningAccuracy(b *testing.B) {
	env := autotune.NewEnv(tuningSmall(), mpi.OpenMPI())
	var best, picked float64
	for i := 0; i < b.N; i++ {
		ex := autotune.RunSearch(env, searchSpace(), []coll.Kind{coll.Bcast}, autotune.Exhaustive, autotune.SearchOpts{Iters: 2})
		tb := autotune.RunSearch(env, searchSpace(), []coll.Kind{coll.Bcast}, autotune.TaskBased, autotune.SearchOpts{})
		in := ex.Table.Entries[len(ex.Table.Entries)-1].In // largest message
		best = ex.Stats[in].Best
		picked = env.MeasureCollective(in.T, in.M, tb.Table.Decide(in.T, in.M), 2, &autotune.Meter{})
	}
	b.ReportMetric(best*1e6, "sim-us/exhaustive-best")
	b.ReportMetric(picked*1e6, "sim-us/task-pick")
}

func imbPoint(spec cluster.Spec, sys bench.System, kind coll.Kind, size int) float64 {
	return bench.IMBWith(spec, sys, kind, []int{size}, bench.IMBOpts{})[0].Seconds
}

// BenchmarkFig10BcastShaheen compares HAN, default OMPI and Cray MPI
// broadcasts on the Shaheen-ratio machine (Fig 10, 4MB point).
func BenchmarkFig10BcastShaheen(b *testing.B) {
	spec := shaheenSmall()
	var hanT, ompiT, crayT float64
	for i := 0; i < b.N; i++ {
		hanT = imbPoint(spec, bench.HANSystem(nil), coll.Bcast, 4<<20)
		ompiT = imbPoint(spec, bench.RivalSystem(rivals.OpenMPIDefault), coll.Bcast, 4<<20)
		crayT = imbPoint(spec, bench.RivalSystem(rivals.CrayMPI), coll.Bcast, 4<<20)
	}
	b.ReportMetric(hanT*1e6, "sim-us/HAN")
	b.ReportMetric(ompiT*1e6, "sim-us/OMPI")
	b.ReportMetric(crayT*1e6, "sim-us/Cray")
}

// BenchmarkFig10Scale4096 is the trimmed paper-scale wall-clock benchmark:
// one HAN broadcast on the full ShaheenII machine (128 nodes x 32 ranks =
// 4096 processes, the scale of Figs 10/13), at a 256KB point so a single
// iteration stays in seconds. It exists to measure the *simulator's own*
// cost at headline scale; BENCH_allocator.json records its baseline.
func BenchmarkFig10Scale4096(b *testing.B) {
	spec := cluster.ShaheenII()
	var hanT float64
	for i := 0; i < b.N; i++ {
		hanT = imbPoint(spec, bench.HANSystem(nil), coll.Bcast, 256<<10)
	}
	b.ReportMetric(hanT*1e6, "sim-us/HAN")
}

// BenchmarkScale98k is the phantom scale tier: one payload-free HAN
// broadcast on a 3072-node x 32-ppn ShaheenII-ratio machine — 98304
// simulated ranks, 24x the paper's largest evaluation. No barriers, no
// warm-up; the tier measures the simulator's own footprint at six-figure
// rank counts. BENCH_allocator.json documents its memory budget: total
// runtime footprint (MB-sys/op) must stay under 2 GiB.
func BenchmarkScale98k(b *testing.B) {
	var r bench.ScaleResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.ScaleBcast(bench.ScaleSpec(bench.ScaleNodes), 256<<10, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.SimSeconds*1e6, "sim-us/op")
	b.ReportMetric(float64(r.SysBytes)/1e6, "MB-sys/op")
	b.ReportMetric(float64(r.Mallocs), "mallocs/op")
}

// BenchmarkParallelSim4096 is the parallel-engine wall-clock benchmark at
// the paper's headline scale: the partitioned broadcast workload on the
// full ShaheenII machine (128 nodes x 32 ranks = 4096 processes, 16 node
// groups), on the windowed engine at 1/2/8 host workers. The Oracle
// variant runs the identical workload on the shared serial engine — its
// sim bits must match every windowed cell exactly (the differential tests
// in internal/bench enforce this), so the only thing allowed to change
// with workers is wall-clock. BENCH_parallel_sim.json records the
// baselines; the >= 1.5x speedup target at 8 workers applies on hosts
// with >= 8 cores.
func BenchmarkParallelSim4096(b *testing.B) {
	spec := cluster.ShaheenII()
	for _, workers := range []int{1, 2, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			var r bench.ParallelResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = bench.ParallelScaleBcast(spec, 256<<10, bench.ParallelOpts{
					Groups: 16, Workers: workers, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.SimSeconds*1e6, "sim-us/op")
		})
	}
}

func BenchmarkParallelSim4096Oracle(b *testing.B) {
	spec := cluster.ShaheenII()
	var r bench.ParallelResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.ParallelScaleBcast(spec, 256<<10, bench.ParallelOpts{
			Groups: 16, Oracle: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.SimSeconds*1e6, "sim-us/op")
}

// TestScaleSmoke is the trimmed scale-tier run CI exercises under -race: the
// same payload-free harness at 2048 ranks, held to what the tier promises.
// Its ranks are routines, not goroutines: the engine starts none and parks
// nothing, and the process gains no stack memory while every rank is inside
// the broadcast (goroutine ranks would hold 16 MiB of it there). The full
// 98304-rank point lives in BenchmarkScale98k.
func TestScaleSmoke(t *testing.T) {
	spec := bench.ScaleSpec(64) // 64 x 32 = 2048 ranks
	r, err := bench.ScaleBcast(spec, 256<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v, stacks +%d bytes mid-run", r, r.StackBytes)
	if r.Ranks != 2048 {
		t.Fatalf("ranks = %d, want 2048", r.Ranks)
	}
	if r.SimSeconds <= 0 {
		t.Fatalf("sim time = %v, want > 0", r.SimSeconds)
	}
	if r.Goroutines != 0 || r.Parks != 0 {
		t.Errorf("the run started %d goroutines and parked %d times, want neither", r.Goroutines, r.Parks)
	}
	if r.StackBytes >= 1<<20 {
		t.Errorf("stack memory grew by %d bytes with every rank inside the broadcast, want under 1 MiB", r.StackBytes)
	}
	// The recorded 98304-rank run obtains 366 MB from the OS, 3.7 KB a rank,
	// and allocates as much (EXPERIMENTS.md "Phantom scale tier"; goroutine
	// ranks took 8.2 KB a rank from the OS). Both are held here with half as
	// much again: the allocation volume as it is, the footprint above the
	// 16 MiB a Go test binary takes before it has simulated anything (this
	// is the package's first test, and the race detector's shadow memory is
	// not in Sys).
	const perRank = 366e6 / 98304 * 1.5
	if got := float64(r.AllocBytes) / float64(r.Ranks); got > perRank {
		t.Errorf("the run allocated %.0f bytes a rank, want at most %.0f", got, perRank)
	}
	if got := (float64(r.SysBytes) - 16<<20) / float64(r.Ranks); got > perRank {
		t.Errorf("the process holds %d bytes, %.0f a rank above its 16 MiB floor, want at most %.0f", r.SysBytes, got, perRank)
	}
}

// TestAllocatorParityEndToEnd runs a full HAN broadcast through the whole
// MPI stack on the incremental allocator and on the from-scratch reference
// one (selected on the test's own machine) and requires bit-identical
// virtual times — the end-to-end form of internal/flow's differential tests.
func TestAllocatorParityEndToEnd(t *testing.T) {
	measure := func(a flow.Allocator) uint64 {
		eng := sim.New()
		mach := cluster.NewMachine(eng, shaheenSmall())
		mach.Net.SetAllocator(a)
		w := mpi.NewWorld(mach, mpi.OpenMPI())
		h := han.New(w)
		w.Start(func(p *mpi.Proc) {
			if err := h.Bcast(p, mpi.Phantom(4<<20), 0, han.Config{}); err != nil {
				t.Errorf("rank %d: %v", p.Rank, err)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return math.Float64bits(float64(eng.Now()))
	}
	inc, ref := measure(flow.Incremental), measure(flow.Reference)
	if inc != ref {
		t.Fatalf("allocators disagree end-to-end: incremental %016x vs reference %016x", inc, ref)
	}
}

// BenchmarkFig11P2P measures the Netpipe ping-pong sweep (Fig 11).
func BenchmarkFig11P2P(b *testing.B) {
	spec := shaheenSmall()
	spec.Nodes = 2
	var ompi, cray float64
	for i := 0; i < b.N; i++ {
		ompi = bench.Netpipe(spec, mpi.OpenMPI(), []int{64 << 10})[0].MBps
		cray = bench.Netpipe(spec, rivals.CrayMPI.Personality(), []int{64 << 10})[0].MBps
	}
	b.ReportMetric(ompi, "MBps/OMPI-64KB")
	b.ReportMetric(cray, "MBps/Cray-64KB")
}

// BenchmarkFig12BcastStampede compares broadcasts on the Stampede-ratio
// machine (Fig 12, 4MB point).
func BenchmarkFig12BcastStampede(b *testing.B) {
	spec := stampedeSmall()
	var hanT, intelT, mvT float64
	for i := 0; i < b.N; i++ {
		hanT = imbPoint(spec, bench.HANSystem(nil), coll.Bcast, 4<<20)
		intelT = imbPoint(spec, bench.RivalSystem(rivals.IntelMPI), coll.Bcast, 4<<20)
		mvT = imbPoint(spec, bench.RivalSystem(rivals.MVAPICH2), coll.Bcast, 4<<20)
	}
	b.ReportMetric(hanT*1e6, "sim-us/HAN")
	b.ReportMetric(intelT*1e6, "sim-us/Intel")
	b.ReportMetric(mvT*1e6, "sim-us/MVAPICH2")
}

// BenchmarkFig13AllreduceShaheen compares allreduce on the Shaheen-ratio
// machine (Fig 13, 16MB point — past the 2MB crossover).
func BenchmarkFig13AllreduceShaheen(b *testing.B) {
	spec := shaheenSmall()
	var hanT, crayT float64
	for i := 0; i < b.N; i++ {
		hanT = imbPoint(spec, bench.HANSystem(nil), coll.Allreduce, 16<<20)
		crayT = imbPoint(spec, bench.RivalSystem(rivals.CrayMPI), coll.Allreduce, 16<<20)
	}
	b.ReportMetric(hanT*1e6, "sim-us/HAN")
	b.ReportMetric(crayT*1e6, "sim-us/Cray")
}

// BenchmarkFig14AllreduceStampede compares allreduce on the Stampede-ratio
// machine (Fig 14, 16MB point).
func BenchmarkFig14AllreduceStampede(b *testing.B) {
	spec := stampedeSmall()
	var hanT, mvT float64
	for i := 0; i < b.N; i++ {
		hanT = imbPoint(spec, bench.HANSystem(nil), coll.Allreduce, 16<<20)
		mvT = imbPoint(spec, bench.RivalSystem(rivals.MVAPICH2), coll.Allreduce, 16<<20)
	}
	b.ReportMetric(hanT*1e6, "sim-us/HAN")
	b.ReportMetric(mvT*1e6, "sim-us/MVAPICH2")
}

// BenchmarkTab03ASP runs the ASP application comparison (Table III).
func BenchmarkTab03ASP(b *testing.B) {
	spec := stampedeSmall()
	prm := apps.DefaultASPParams(spec.Ranks())
	prm.Iters = 16
	var hanR, ompiR apps.ASPResult
	for i := 0; i < b.N; i++ {
		hanR = apps.RunASP(spec, bench.HANSystem(nil), prm)
		ompiR = apps.RunASP(spec, bench.RivalSystem(rivals.OpenMPIDefault), prm)
	}
	b.ReportMetric(100*hanR.CommRatio, "commpct/HAN")
	b.ReportMetric(100*ompiR.CommRatio, "commpct/OMPI")
	b.ReportMetric(ompiR.Total/hanR.Total, "speedup/HANvsOMPI")
}

// BenchmarkFig15Horovod runs the Horovod scaling point (Fig 15).
func BenchmarkFig15Horovod(b *testing.B) {
	spec := stampedeSmall()
	prm := apps.DefaultHorovodParams()
	prm.Steps = 1
	var hanR, ompiR apps.HorovodResult
	for i := 0; i < b.N; i++ {
		hanR = apps.RunHorovod(spec, bench.HANSystem(nil), prm)
		ompiR = apps.RunHorovod(spec, bench.RivalSystem(rivals.OpenMPIDefault), prm)
	}
	b.ReportMetric(hanR.ImagesSec, "imgps/HAN")
	b.ReportMetric(ompiR.ImagesSec, "imgps/OMPI")
}

func avg(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func newWorld(spec cluster.Spec) (*sim.Engine, *mpi.World) {
	e := sim.New()
	return e, mpi.NewWorld(cluster.NewMachine(e, spec), mpi.OpenMPI())
}
