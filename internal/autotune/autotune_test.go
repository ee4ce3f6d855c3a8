package autotune

import (
	"math"
	"path/filepath"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
)

func testEnv() Env { return NewEnv(cluster.Mini(4, 4), mpi.OpenMPI()) }

func smallSpace() Space {
	return Space{
		Msgs:  []int{4 << 10, 256 << 10, 1 << 20},
		FS:    []int{64 << 10, 256 << 10},
		IMods: []string{"libnbc", "adapt"},
		SMods: []string{"sm", "solo"},
		IBS:   []int{32 << 10},
	}
}

func TestExpandRespectsHeuristics(t *testing.T) {
	s := smallSpace()
	all := s.Expand(coll.Bcast, 1<<20, false, 4)
	pruned := s.Expand(coll.Bcast, 1<<20, true, 4)
	if len(pruned) >= len(all) {
		t.Fatalf("heuristics should prune: %d >= %d", len(pruned), len(all))
	}
	for _, c := range pruned {
		if c.Cfg.SMod == "solo" && c.Cfg.FS <= 512<<10 {
			t.Errorf("heuristic violated: solo with fs=%d", c.Cfg.FS)
		}
	}
	// fs never exceeds the message size.
	for _, c := range s.Expand(coll.Bcast, 4<<10, false, 4) {
		if c.Cfg.FS > 4<<10 {
			t.Errorf("fs %d exceeds message 4096", c.Cfg.FS)
		}
	}
}

func TestMeasureBcastTasksShapes(t *testing.T) {
	env := testEnv()
	meter := &Meter{}
	cfg := han.Config{FS: 64 << 10, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgBinary, IBS: 32 << 10}
	bt := env.MeasureTasks(coll.Bcast, cfg, meter)
	if len(bt.Steps) != SBIBSeriesLen+1 {
		t.Fatalf("%d steps, want fill, %d sbib and drain", len(bt.Steps), SBIBSeriesLen-1)
	}
	for i, row := range bt.Steps {
		if len(row) != 4 {
			t.Fatalf("step %d has %d leaders, want 4", i, len(row))
		}
	}
	if len(bt.SBIBConc) != 4 {
		t.Fatalf("concurrent sb+ib has %d leaders, want 4", len(bt.SBIBConc))
	}
	// ib(0) on the root's node finishes first; some other leader must be
	// slower (Fig 2: leaders finish at different times).
	ib, sb := bt.Steps[0], bt.Steps[SBIBSeriesLen]
	slower := false
	for l := 1; l < 4; l++ {
		if ib[l] > ib[0] {
			slower = true
		}
		if ib[l] <= 0 || sb[l] <= 0 {
			t.Errorf("leader %d has non-positive task cost", l)
		}
	}
	if !slower {
		t.Error("all leaders finished ib(0) simultaneously; expected staggering")
	}
	if meter.Runs != 2 {
		t.Errorf("expected 2 benchmark runs, got %d", meter.Runs)
	}
	if meter.Virtual <= 0 {
		t.Error("meter did not accumulate virtual time")
	}
}

// The overlap claim of Fig 2: concurrent sb+ib costs less than the sum of
// the parts but more than the max (imperfect overlap).
func TestImperfectOverlapSBIB(t *testing.T) {
	env := NewEnv(cluster.Mini(6, 8), mpi.OpenMPI())
	cfg := han.Config{FS: 256 << 10, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgBinary, IBS: 64 << 10}
	bt := env.MeasureTasks(coll.Bcast, cfg, &Meter{})
	ib, sb := bt.Steps[0], bt.Steps[SBIBSeriesLen]
	for l := range ib {
		sum := ib[l] + sb[l]
		mx := math.Max(ib[l], sb[l])
		conc := bt.SBIBConc[l]
		if conc >= sum {
			t.Errorf("leader %d: no overlap at all: conc=%v sum=%v", l, conc, sum)
		}
		if conc < mx*0.999 {
			t.Errorf("leader %d: overlap better than perfect: conc=%v max=%v", l, conc, mx)
		}
	}
}

// Fig 3: the sbib series stabilises — late iterations vary less than the
// warm-up ones.
func TestSBIBSeriesStabilises(t *testing.T) {
	env := NewEnv(cluster.Mini(6, 8), mpi.OpenMPI())
	cfg := han.Config{FS: 128 << 10, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgChain, IBS: 64 << 10}
	bt := env.MeasureTasks(coll.Bcast, cfg, &Meter{})
	last := bt.Steps[SBIBSeriesLen-1] // sbib(7), the drain row after it
	l := len(last) / 2                // a middle leader, like the paper's "node leader 2"
	lastDelta := math.Abs(last[l] - bt.Steps[SBIBSeriesLen-2][l])
	ref := last[l]
	if ref <= 0 {
		t.Fatal("stable sbib cost is zero")
	}
	if lastDelta/ref > 0.15 {
		t.Errorf("series has not stabilised: last delta %.1f%% of value", 100*lastDelta/ref)
	}
}

// The cost model must rank configurations like reality: its chosen optimum
// should be within a small factor of the measured optimum (the paper finds
// them identical in most cases).
func TestModelPicksNearOptimalBcastConfig(t *testing.T) {
	env := testEnv()
	space := smallSpace()
	m := 1 << 20
	cands := space.Expand(coll.Bcast, m, false, env.Spec.Nodes)
	meter := &Meter{}

	bestMeasured, bestEstimated := -1.0, -1.0
	var cfgMeasured, cfgEstimated han.Config
	measuredOf := make(map[han.Config]float64)
	for _, cand := range cands {
		meas := env.MeasureCollective(coll.Bcast, m, cand.Cfg, 2, meter)
		measuredOf[cand.Cfg] = meas
		if bestMeasured < 0 || meas < bestMeasured {
			bestMeasured, cfgMeasured = meas, cand.Cfg
		}
		est := Estimate(env.MeasureTasks(coll.Bcast, cand.Cfg, meter), m)
		if bestEstimated < 0 || est < bestEstimated {
			bestEstimated, cfgEstimated = est, cand.Cfg
		}
	}
	// The config chosen by the model must measure within 25% of the true
	// optimum.
	chosen := measuredOf[cfgEstimated]
	if chosen > bestMeasured*1.25 {
		t.Errorf("model picked %v (measured %.3gs), optimum %v (%.3gs)",
			cfgEstimated, chosen, cfgMeasured, bestMeasured)
	}
}

func TestRunSearchTaskBasedCheaperThanExhaustive(t *testing.T) {
	env := testEnv()
	space := smallSpace()
	kinds := []coll.Kind{coll.Bcast}
	ex := RunSearch(env, space, kinds, Exhaustive, SearchOpts{Iters: 2})
	tb := RunSearch(env, space, kinds, TaskBased, SearchOpts{})
	cb := RunSearch(env, space, kinds, Combined, SearchOpts{})
	if tb.Table.TuningCost >= ex.Table.TuningCost {
		t.Errorf("task-based tuning (%.3gs) should be cheaper than exhaustive (%.3gs)",
			tb.Table.TuningCost, ex.Table.TuningCost)
	}
	if cb.Table.TuningCost >= tb.Table.TuningCost {
		t.Errorf("combined tuning (%.3gs) should be cheaper than task-based (%.3gs)",
			cb.Table.TuningCost, tb.Table.TuningCost)
	}
	// Exhaustive search must report distribution stats.
	if len(ex.Stats) != len(space.Msgs) {
		t.Errorf("expected %d stat entries, got %d", len(space.Msgs), len(ex.Stats))
	}
	for in, st := range ex.Stats {
		if !(st.Best <= st.Median && st.Median <= st.Average*2) || st.Best <= 0 {
			t.Errorf("%v: implausible stats %+v", in, st)
		}
	}
	// Every search produced one entry per message size.
	if len(tb.Table.Entries) != len(space.Msgs) {
		t.Errorf("task-based table has %d entries", len(tb.Table.Entries))
	}
}

// Tuned accuracy (Fig 9): configurations selected by the task-based search
// must measure close to the exhaustive best.
func TestTaskBasedSelectionNearExhaustiveBest(t *testing.T) {
	env := testEnv()
	space := smallSpace()
	kinds := []coll.Kind{coll.Bcast}
	ex := RunSearch(env, space, kinds, Exhaustive, SearchOpts{Iters: 2})
	tb := RunSearch(env, space, kinds, TaskBased, SearchOpts{})
	meter := &Meter{}
	for i, e := range tb.Table.Entries {
		in := e.In
		meas := env.MeasureCollective(in.T, in.M, e.Cfg, 2, meter)
		best := ex.Stats[in].Best
		if meas > best*1.3 {
			t.Errorf("entry %d (%v): task-based pick measures %.3gs, exhaustive best %.3gs",
				i, in, meas, best)
		}
	}
}

func TestTableSaveLoadDecide(t *testing.T) {
	dir := t.TempDir()
	table := &Table{
		Machine: "Mini",
		Method:  "task",
		Entries: []Entry{
			{In: Input{N: 4, P: 4, M: 4 << 10, T: coll.Bcast}, Cfg: han.Config{FS: 4 << 10, IMod: "libnbc", SMod: "sm", IBAlg: coll.AlgBinomial}},
			{In: Input{N: 4, P: 4, M: 1 << 20, T: coll.Bcast}, Cfg: han.Config{FS: 256 << 10, IMod: "adapt", SMod: "solo", IBAlg: coll.AlgBinary, IBS: 64 << 10}},
		},
	}
	path := filepath.Join(dir, "table.json")
	if err := table.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Machine != "Mini" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Nearest-in-log-space interpolation.
	small := got.Decide(coll.Bcast, 2<<10)
	if small.IMod != "libnbc" {
		t.Errorf("2KB should pick the 4KB entry, got %+v", small)
	}
	big := got.Decide(coll.Bcast, 8<<20)
	if big.IMod != "adapt" || big.SMod != "solo" {
		t.Errorf("8MB should pick the 1MB entry, got %+v", big)
	}
	// FS clamped to message size.
	tiny := got.Decide(coll.Bcast, 512)
	if tiny.FS > 512 {
		t.Errorf("FS not clamped: %d", tiny.FS)
	}
	// Unknown kind falls back to the default decision.
	fb := got.Decide(coll.Allreduce, 1<<20)
	if fb.IMod == "" {
		t.Error("fallback decision empty")
	}
}

func TestEstimateAllreduceDegenerateSmallU(t *testing.T) {
	env := testEnv()
	cfg := han.Config{FS: 64 << 10, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgBinary, IBS: 32 << 10}
	at := env.MeasureTasks(coll.Allreduce, cfg, &Meter{})
	// u = 1, 2, 3 must produce increasing, positive estimates.
	prev := 0.0
	for _, m := range []int{64 << 10, 128 << 10, 192 << 10, 640 << 10} {
		est := Estimate(at, m)
		if est <= prev {
			t.Errorf("estimate not increasing at m=%d: %v <= %v", m, est, prev)
		}
		prev = est
	}
}

func TestEstimateBcastSingleSegment(t *testing.T) {
	env := testEnv()
	cfg := han.Config{FS: 1 << 20, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgBinary, IBS: 64 << 10}
	bt := env.MeasureTasks(coll.Bcast, cfg, &Meter{})
	// u == 1: the estimate is ib + sb with no steady-state term, and must
	// still be positive and below the u=4 estimate.
	e1 := Estimate(bt, 1<<20)
	e4 := Estimate(bt, 4<<20)
	if e1 <= 0 || e4 <= e1 {
		t.Errorf("estimates not ordered: u1=%v u4=%v", e1, e4)
	}
}

func TestAllreduceModelNearMeasured(t *testing.T) {
	env := testEnv()
	cfg := han.Config{FS: 256 << 10, IMod: "adapt", SMod: "solo", IBAlg: coll.AlgBinary, IBS: 64 << 10, IRS: 64 << 10}
	meter := &Meter{}
	m := 4 << 20
	est := Estimate(env.MeasureTasks(coll.Allreduce, cfg, meter), m)
	meas := env.MeasureCollective(coll.Allreduce, m, cfg, 2, meter)
	ratio := est / meas
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("allreduce model off by more than 2x: est=%.3gs meas=%.3gs", est, meas)
	}
}

func TestExpandIncludesUnsegmentedSmall(t *testing.T) {
	s := smallSpace()
	m := 512 // smaller than every FS entry
	cands := s.Expand(coll.Bcast, m, false, 4)
	if len(cands) == 0 {
		t.Fatal("no candidates for tiny message")
	}
	for _, c := range cands {
		if c.Cfg.FS != m {
			t.Errorf("tiny-message candidate with fs=%d", c.Cfg.FS)
		}
		if c.Cfg.IBS > c.Cfg.FS {
			t.Errorf("ibs %d exceeds fs %d", c.Cfg.IBS, c.Cfg.FS)
		}
	}
}

func TestMeterAccumulatesAcrossMeasurements(t *testing.T) {
	env := testEnv()
	meter := &Meter{}
	cfg := han.Config{FS: 64 << 10, IMod: "libnbc", SMod: "sm", IBAlg: coll.AlgBinomial}
	_ = env.MeasureCollective(coll.Bcast, 256<<10, cfg, 2, meter)
	v1, r1 := meter.Virtual, meter.Runs
	_ = env.MeasureCollective(coll.Bcast, 256<<10, cfg, 2, meter)
	if meter.Virtual <= v1 || meter.Runs != r1+1 {
		t.Errorf("meter did not accumulate: %+v after %v/%d", meter, v1, r1)
	}
}

func TestSegmentsOf(t *testing.T) {
	if got := SegmentsOf(han.Config{FS: 100}, 1000); got != 10 {
		t.Errorf("SegmentsOf = %d, want 10", got)
	}
	if got := SegmentsOf(han.Config{FS: 0}, 1000); got != 1 {
		t.Errorf("unsegmented SegmentsOf = %d, want 1", got)
	}
	if got := SegmentsOf(han.Config{FS: 2000}, 1000); got != 1 {
		t.Errorf("oversized-fs SegmentsOf = %d, want 1", got)
	}
}

// Estimate is equations (3) and (4) written out term by term, short
// pipelines included. The steps are integers and every window sum divides
// evenly, so the sums are exact whatever order they are taken in.
func TestEstimateIsEquations3And4(t *testing.T) {
	const fs, leaders = 1000, 3
	synthetic := func(d int) TableTasks {
		tt := TableTasks{Cfg: han.Config{FS: fs}, Steps: rows(SBIBSeriesLen+d-1, leaders)}
		for i, row := range tt.Steps {
			for l := range row {
				row[l] = float64(100*(i+1) + 7*l)
			}
		}
		tt.Steps[0][0] += 100 // leader 0 fills slowest, leader 2 runs slowest
		return tt
	}
	bcast, allreduce := synthetic(2), synthetic(4)
	maxOver := func(f func(l int) float64) float64 {
		best := 0.0
		for l := 0; l < leaders; l++ {
			best = max(best, f(l))
		}
		return best
	}
	// Equation (3): ib(0) + sb(u-1) + (u-1) x sbib(s), sbib(s) the mean of
	// sbib(4..7).
	eq3 := func(u int) float64 {
		s := bcast.Steps
		return maxOver(func(l int) float64 {
			stable := (s[4][l] + s[5][l] + s[6][l] + s[7][l]) / 4
			return s[0][l] + s[8][l] + float64(u-1)*stable
		})
	}
	// Equation (4): sr + irsr + ibirsr, the min(u, 3) last of sbibir, sbib,
	// sb, and max(u-3, 0) x sbibirsr(s), sbibirsr(s) the mean of
	// sbibirsr(5..7).
	eq4 := func(u int) float64 {
		s := allreduce.Steps
		return maxOver(func(l int) float64 {
			c := s[0][l] + s[1][l] + s[2][l] + s[10][l]
			if u >= 2 {
				c += s[9][l]
			}
			if u >= 3 {
				c += s[8][l]
			}
			stable := (s[5][l] + s[6][l] + s[7][l]) / 3
			return c + float64(max(u-3, 0))*stable
		})
	}
	prev := [2]float64{}
	for u := 1; u <= 10; u++ {
		m := (u-1)*fs + 1 // the smallest message of u segments
		for i, c := range []struct {
			name string
			tt   TableTasks
			want float64
		}{{"bcast", bcast, eq3(u)}, {"allreduce", allreduce, eq4(u)}} {
			got := Estimate(c.tt, m)
			if got != c.want {
				t.Errorf("%s, u=%d: Estimate = %v, the equation says %v", c.name, u, got, c.want)
			}
			if got <= prev[i] {
				t.Errorf("%s, u=%d: Estimate %v not above u=%d's %v", c.name, u, got, u-1, prev[i])
			}
			prev[i] = got
		}
	}
	// An empty message is one segment, segmented or not.
	for _, cfg := range []han.Config{{FS: fs}, {}} {
		bcast.Cfg = cfg
		if got, want := Estimate(bcast, 0), eq3(1); got != want {
			t.Errorf("m=0 under fs=%d: Estimate = %v, want the one-segment %v", cfg.FS, got, want)
		}
	}
}
