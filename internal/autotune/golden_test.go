package autotune

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
)

// This file pins what the measurement worlds simulate against recorded
// values: the other tests of the package compare a sweep with itself (across
// worker counts, across replays) or a model with a measurement, which holds
// just as well after every measurement has moved by a bit. The rows were
// recorded with every rank of a measurement world a goroutine blocking in
// Comm.Barrier and in HAN's calls and timers; ranks that are routines
// (mpi.World.StartSteps) must reproduce them, and CI runs them again under
// HAN_ARENA_DEBUG=1, where no pooled record — so no process storage — is
// ever reused. On a mismatch the failure prints the row in table syntax.

// goldenMachine returns one of the two measurement machines and its search
// space: the package's own small one, or the one benchmark/tune.go sweeps —
// Tuning64 at 8x4 over the Fig 8 space.
func goldenMachine(name string) (cluster.Spec, Space) {
	if name == "mini" {
		return cluster.Mini(4, 4), smallSpace()
	}
	spec := cluster.Tuning64()
	spec.Nodes, spec.PPN = 8, 4
	return spec, Space{
		Msgs:  []int{4 << 10, 256 << 10, 4 << 20},
		FS:    []int{64 << 10, 256 << 10, 1 << 20},
		IMods: han.InterNames(),
		SMods: han.IntraNames(),
		IBS:   []int{64 << 10},
	}
}

// goldenEnv returns the measurement environment of a golden row and the
// space it is swept over: seed 5, under the named builtin fault plan unless
// that is "none".
func goldenEnv(t *testing.T, machine, plan string) (Env, Space) {
	t.Helper()
	spec, space := goldenMachine(machine)
	env := NewEnv(spec, mpi.OpenMPI())
	env.Seed = 5
	if plan != "none" {
		p, err := fault.Builtin(plan)
		if err != nil {
			t.Fatal(err)
		}
		env.Faults = &p
	}
	return env, space
}

// sweepGolden is what one sweep leaves behind: the SHA-256 of the table's
// JSON (what benchmark/tune.go compares), the bits of the tuning cost, and
// the number of measurements.
type sweepGolden struct {
	table string
	cost  uint64
	runs  int
}

// goldenSweeps holds, per machine and fault plan, the sweeps of all four
// methods in Methods order.
var goldenSweeps = []struct {
	machine, plan string
	want          [4]sweepGolden
}{
	{"mini", "none", [4]sweepGolden{
		{"f5b3afe7c39702d02be51cb072b81ea7c1e0dc52a88c91c0a69d211f6c330b2b", 0x3ff0d584d10ec5f8, 88},
		{"0a36c169e36aa708cd5c99415d9b5401a665c5b727192acc664bf3b330986b26", 0x3fe164f957f821cf, 42},
		{"8bb6f7ea9762539878b1ad21fde5beecbbf6604ee4fcd30a7b241318c1b313f5", 0x3fd604f1ece320f4, 72},
		{"d48bdf30103a1e400cc3e564719e7aedf365982d52db2c681a7f035fc809b57e", 0x3fc6f95ccbf0030e, 36},
	}},
	{"mini", "drops", [4]sweepGolden{
		{"3cc41dd0a3952fe639c46256d073fce4197587b942a8e2c9594064fc87ddd092", 0x3ff2d85f9d1d1e89, 88},
		{"cc22523e6ab192f6b555c6ce33c0a6374f6c27d4c472d4eabc4a685703ffe375", 0x3fe320b092f49a92, 42},
		{"fbb8d4d6562aba1c1030e7e2f2950686106fe85330b1c07856eece209ed841a4", 0x3fd957e7abb51778, 72},
		{"3d3f59e0bcd96dfafd630fee349a92f760f03871bbfa4ddf268696e35bbab3b0", 0x3fca16aff44c9425, 36},
	}},
	{"tuning64", "none", [4]sweepGolden{
		{"0a95ba307b115c4537ca2899108f71c2f95a519115c7b274d53ec17b4b4a2211", 0x3ff3f2e06e127285, 108},
		{"f3ed5ab79a1373aa88c68efc6682d350b53872aa19ba9e46c2b359b65ed13d7e", 0x3fea358900ed169f, 62},
		{"9b04e0932f25725d90e368a75b579b0e428339f869d6b64bf1bf387e58596726", 0x3fd4d34502c59858, 102},
		{"670ff66c4922e0234b09eb903739a450efde591c03516aebec74c839fbb53e38", 0x3fd20e789ba85984, 66},
	}},
	{"tuning64", "drops", [4]sweepGolden{
		{"32d7a2d3cab69cc9a152c0fae8f6f9f88795a0e2de19ab3eec037972fdf27730", 0x3ffe2ff4f0f2932b, 108},
		{"d252b5bf98d9578013fac59220e90a099608674d4835b2121e1731c163d2f7c0", 0x3ff2d7137375e44f, 62},
		{"c133a85a028c83521e90eb373fbe2f96f43359e18e51a86fda3724785b0ff4cb", 0x3fe39c2361285f9f, 102},
		{"c8f5f14f307656fbab33dcad9be2f78bf3fab041389700f803763a3539158436", 0x3fddef5f7e3f38a9, 66},
	}},
}

func TestGoldenSweeps(t *testing.T) {
	kinds := []coll.Kind{coll.Bcast, coll.Allreduce}
	for _, row := range goldenSweeps {
		if testing.Short() && row.machine != "mini" {
			continue
		}
		for _, workers := range []int{1, 2} {
			var got [4]sweepGolden
			env, space := goldenEnv(t, row.machine, row.plan)
			for i, method := range Methods {
				tb := RunSearch(env, space, kinds, method, SearchOpts{Iters: 2, Workers: workers}).Table
				b, err := json.Marshal(tb)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = sweepGolden{fmt.Sprintf("%x", sha256.Sum256(b)), math.Float64bits(tb.TuningCost), tb.Measurements}
			}
			if got != row.want {
				rows := ""
				for _, g := range got {
					rows += fmt.Sprintf("\n\t\t{%q, %#016x, %d},", g.table, g.cost, g.runs)
				}
				t.Errorf("%s under %s at %d workers: the sweeps are now\n\t{%q, %q, [4]sweepGolden{%s\n\t}},",
					row.machine, row.plan, workers, row.machine, row.plan, rows)
			}
		}
	}
}

// goldenTaskConfigs are the two configurations whose task measurements are
// pinned leader by leader.
var goldenTaskConfigs = []han.Config{
	{FS: 64 << 10, IMod: "libnbc", SMod: "sm", IBAlg: coll.AlgBinomial, IRAlg: coll.AlgBinomial},
	{FS: 256 << 10, IMod: "adapt", SMod: "solo", IBAlg: coll.AlgChain, IRAlg: coll.AlgChain, IBS: 64 << 10, IRS: 64 << 10},
}

// taskGolden is one task measurement: FNV-1a over the bits of every
// per-leader cost it reports, in the order the result lists them, and the
// bits of the simulated time it took.
type taskGolden struct{ costs, virtual uint64 }

func hashCosts(series ...[]float64) uint64 {
	h := fnv.New64a()
	for _, s := range series {
		for _, v := range s {
			fmt.Fprintf(h, "%x ", math.Float64bits(v))
		}
		fmt.Fprintln(h)
	}
	return h.Sum64()
}

// taskCosts hashes MeasureTasks of kind. A Bcast's rows go in the order they
// were recorded in: lone ib, lone sb, concurrent sb+ib, then the sbib series.
func taskCosts(env Env, kind coll.Kind, cfg han.Config, m *Meter) uint64 {
	tt := env.MeasureTasks(kind, cfg, m)
	if kind != coll.Bcast {
		return hashCosts(tt.Steps...)
	}
	last := len(tt.Steps) - 1
	return hashCosts(append([][]float64{tt.Steps[0], tt.Steps[last], tt.SBIBConc}, tt.Steps[1:last]...)...)
}

// goldenTasks holds, per machine and plan, MeasureTasks of a Bcast then of an
// Allreduce under each configuration of goldenTaskConfigs.
var goldenTasks = []struct {
	machine, plan string
	want          [2][2]taskGolden
}{
	{"mini", "none", [2][2]taskGolden{
		{{0xea5bf33801955484, 0x3f6b333edaee0005}, {0x865a884f8d887b50, 0x3f7760f984c82461}},
		{{0x7a9cb9eea6ed68b0, 0x3f7e9027d3515bdd}, {0x9c228b02e319878a, 0x3f892229166ae8cd}},
	}},
	{"mini", "drops", [2][2]taskGolden{
		{{0xdf75c499c40c56b5, 0x3f72aa233017053c}, {0xb9d62534a3ca8a80, 0x3f794ff18f67b8af}},
		{{0x3605b836cf56ee77, 0x3f827f0a7bed01d2}, {0x4e36f6ffe28ca998, 0x3f8a668d82b47673}},
	}},
	{"tuning64", "none", [2][2]taskGolden{
		{{0x0fe75215d3745ea7, 0x3f46e8463dbd1a8c}, {0xd12d21daa8245a6a, 0x3f5c594306721944}},
		{{0x2b6ffeffaebb6daf, 0x3f53d94c1db4b3df}, {0x1123c19701728424, 0x3f62db1b55369c9f}},
	}},
	{"tuning64", "stragglers", [2][2]taskGolden{
		{{0x1aeecf64b8284f2e, 0x3fc6fd75e2046c76}, {0x901706f7d469e01c, 0x3fb6fd75e2046c76}},
		{{0x11ff3f38f2a2c540, 0x3fc6fd75e2046c76}, {0xda21bafd179d933f, 0x3fb6fd75e2046c76}},
	}},
}

func TestGoldenTaskMeasurements(t *testing.T) {
	for _, row := range goldenTasks {
		env, _ := goldenEnv(t, row.machine, row.plan)
		var got [2][2]taskGolden
		for i, cfg := range goldenTaskConfigs {
			for j, kind := range []coll.Kind{coll.Bcast, coll.Allreduce} {
				m := &Meter{}
				got[i][j].costs = taskCosts(env, kind, cfg, m)
				got[i][j].virtual = math.Float64bits(m.Virtual)
			}
		}
		if got != row.want {
			t.Errorf("%s under %s: the task measurements are now\n\t{%q, %q, [2][2]taskGolden{\n\t\t{{%#016x, %#016x}, {%#016x, %#016x}},\n\t\t{{%#016x, %#016x}, {%#016x, %#016x}},\n\t}},",
				row.machine, row.plan, row.machine, row.plan,
				got[0][0].costs, got[0][0].virtual, got[0][1].costs, got[0][1].virtual,
				got[1][0].costs, got[1][0].virtual, got[1][1].costs, got[1][1].virtual)
		}
	}
}

// outcome runs one measurement and renders what came of it: the value's and
// the meter's bits, or the hash of the panic it ended in — a measurement
// world that deadlocks panics with the engine's report, which names every
// parked process and what it waits for.
func outcome(measure func(m *Meter) uint64) (out string) {
	defer func() {
		if r := recover(); r != nil {
			h := fnv.New64a()
			fmt.Fprint(h, r)
			out = fmt.Sprintf("panic %#016x", h.Sum64())
		}
	}()
	m := &Meter{}
	v := measure(m)
	return fmt.Sprintf("%#016x in %#016x", v, math.Float64bits(m.Virtual))
}

// goldenCrashMeasurements pins what a measurement comes to when the
// environment's fault plan kills ranks: MeasureCollective of a Bcast and of
// an Allreduce, MeasureTasks of a Bcast and of an Allreduce, under the first
// configuration of goldenTaskConfigs on Mini(4,4). Some finish on the
// survivors, some deadlock; a measurement world has one form of rank, and it
// has to come to the same end.
var goldenCrashMeasurements = []struct {
	plan string
	want [4]string
}{
	{"crash-rank", [4]string{
		"0x0000000000000000 in 0x3f7326fa4d295291",
		"panic 0x11ea0a3276d33df2",
		"0xc1058aef17a1e887 in 0x3f6b3625fb18fb72",
		"panic 0x11ea0a3276d33df2",
	}},
	{"crash-node", [4]string{
		"0x0000000000000000 in 0x3f73259d55d77707",
		"0x0000000000000000 in 0x3f8316726fe5b967",
		"0x62ba65ea49219734 in 0x3f6a32cd8a8fbe50",
		"0x40700b1198e9e0c5 in 0x3f742c9353de190b",
	}},
	{"crash-coll", [4]string{
		"0x3f6308194580d664 in 0x3f83192c12621b15",
		"panic 0x983f9dbaad826781",
		"0x4c770834614112bb in 0x3f6b42a7905dbc28",
		"0x0a0f4498110c0ab6 in 0x3f7763090819141c",
	}},
}

func TestGoldenMeasurementsUnderCrashPlans(t *testing.T) {
	cfg := goldenTaskConfigs[0]
	for _, row := range goldenCrashMeasurements {
		env, _ := goldenEnv(t, "mini", row.plan)
		collective := func(kind coll.Kind) func(m *Meter) uint64 {
			return func(m *Meter) uint64 { return math.Float64bits(env.MeasureCollective(kind, 1<<20, cfg, 2, m)) }
		}
		got := [4]string{
			outcome(collective(coll.Bcast)),
			outcome(collective(coll.Allreduce)),
			outcome(func(m *Meter) uint64 { return taskCosts(env, coll.Bcast, cfg, m) }),
			outcome(func(m *Meter) uint64 { return taskCosts(env, coll.Allreduce, cfg, m) }),
		}
		if got != row.want {
			t.Errorf("under %s the measurements now come to\n\t{%q, [4]string{\n\t\t%q,\n\t\t%q,\n\t\t%q,\n\t\t%q,\n\t}},",
				row.plan, row.plan, got[0], got[1], got[2], got[3])
		}
	}
}
