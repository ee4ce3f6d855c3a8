package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// This file pins what the two harnesses on the benchmark's path simulate,
// bit for bit: IMBWith's rank loop (sizes x iterations x {barrier,
// collective}) and the scale tier's single broadcast. The rows were recorded
// with every rank a goroutine (World.Start) blocking in Comm.Barrier and in
// HAN's entry points, so they are what any other way of driving the ranks
// has to reproduce: the reported points, the engine clock when the run
// drained, and an FNV-1a hash of the whole trace stream (every send,
// delivery, drop, task and collective event with its time, in record order).
// On a mismatch the failure prints the row in table syntax.

type harnessRow struct{ clock, points, trace uint64 }

// tapped returns sys with tap run on each fresh world before the system's own
// set-up: where a test attaches a tracer and keeps the world to read its
// engine afterwards.
func tapped(sys System, tap func(w *mpi.World)) System {
	setup := sys.Setup
	sys.Setup = func(w *mpi.World) Ops {
		tap(w)
		return setup(w)
	}
	return sys
}

// traceHash is the FNV-1a hash of rec's JSON stream, as ReplayStream
// serialises it.
func traceHash(t *testing.T, rec *trace.Recorder) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := rec.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

func pointsHash(pts []Point) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, pt := range pts {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(pt.Seconds))
		h.Write(b[:])
	}
	return h.Sum64()
}

// imbRow runs IMBWith for sys under a tracer and returns the row and the
// engine the run has drained.
func imbRow(t *testing.T, spec cluster.Spec, sys System, kind coll.Kind, sizes []int, o IMBOpts) (harnessRow, *sim.Engine) {
	t.Helper()
	rec := trace.New()
	var eng *sim.Engine
	pts := IMBWith(spec, tapped(sys, func(w *mpi.World) { w.Tracer, eng = rec, w.Eng() }), kind, sizes, o)
	return harnessRow{math.Float64bits(float64(eng.Now())), pointsHash(pts), traceHash(t, rec)}, eng
}

var harnessKinds = []coll.Kind{coll.Bcast, coll.Reduce, coll.Allreduce, coll.Gather, coll.Allgather, coll.Scatter}

// harnessSizes are run back to back in one world: four timed iterations of
// the first, two of the second, each after a warm-up.
var harnessSizes = []int{4 << 10, 256 << 10}

// Every kind on HAN's default decision, on Mini(4,4) and on a single-node
// world (the one-level table, with its degradation note), on a clean network
// and under the two built-in plans that leave every rank alive.
func TestGoldenIMBBits(t *testing.T) {
	for _, world := range []struct {
		name string
		spec cluster.Spec
	}{{"4x4", cluster.Mini(4, 4)}, {"1x4", cluster.Mini(1, 4)}} {
		for _, planName := range []string{"none", "drops", "stragglers"} {
			plan, err := fault.Builtin(planName)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range harnessKinds {
				name := fmt.Sprintf("%s/%s/%s", kind, world.name, planName)
				t.Run(name, func(t *testing.T) {
					got, _ := imbRow(t, world.spec, HANSystem(nil), kind, harnessSizes, IMBOpts{Faults: &plan, Seed: 7})
					if want, ok := goldenIMB[name]; !ok || got != want {
						t.Errorf("sim bits moved (have golden: %v):\n\t%q: {%#x, %#x, %#x},", ok, name, got.clock, got.points, got.trace)
					}
				})
			}
		}
	}
}

// IMBWith drives the ranks of a system that offers the step form as routines:
// for every kind and every submodule pair the run starts no goroutine and
// parks nothing but for helpers (the composed intra-node allreduce of a
// single-node world still has some), and it reports the points and records
// the trace stream, byte for byte, of the same run with the step form
// withheld — every rank a goroutine on World.Start. The single-call run
// (runOnce, behind Once) is held the same way, at each size under the
// decision the system takes: the latest finish and the clock of the
// blocking entry point on World.Start, and no goroutine on the multi-node
// world.
func TestIMBRunsRanksWithoutGoroutines(t *testing.T) {
	rounds := uint64(0) // barrier and collective pairs of one rank
	for _, size := range harnessSizes {
		rounds += uint64(ItersFor(size)) + 1
	}
	for _, spec := range []cluster.Spec{cluster.Mini(4, 4), cluster.Mini(1, 4)} {
		ranks := uint64(spec.Ranks())
		for _, imod := range han.InterNames() {
			for _, smod := range han.IntraNames() {
				decide := func(kind coll.Kind, n int) han.Config {
					cfg := han.DefaultDecision(kind, n)
					cfg.IMod, cfg.SMod, cfg.IBAlg, cfg.IRAlg = imod, smod, coll.AlgDefault, coll.AlgDefault
					return cfg
				}
				sys := HANSystem(decide)
				blocking := sys
				blocking.Setup = func(w *mpi.World) Ops {
					ops := sys.Setup(w)
					ops.Start = nil
					return ops
				}
				for _, kind := range harnessKinds {
					name := fmt.Sprintf("%s/%dx%d/%s-%s", kind, spec.Nodes, spec.PPN, imod, smod)
					got, eng := imbRow(t, spec, sys, kind, harnessSizes, IMBOpts{})
					want, goEng := imbRow(t, spec, blocking, kind, harnessSizes, IMBOpts{})
					if got != want {
						t.Errorf("%s: routines simulate {%#x, %#x, %#x}, goroutines {%#x, %#x, %#x}", name,
							got.clock, got.points, got.trace, want.clock, want.points, want.trace)
					}
					// A goroutine rank parks once per barrier and once per collective.
					if eng.Goroutines() != goEng.Goroutines()-ranks || eng.Parks() != goEng.Parks()-2*rounds*ranks ||
						spec.Nodes > 1 && eng.Goroutines()+eng.Parks() != 0 {
						t.Errorf("%s: %d goroutines and %d parks with the ranks routines, %d and %d with the %d ranks goroutines",
							name, eng.Goroutines(), eng.Parks(), goEng.Goroutines(), goEng.Parks(), ranks)
					}
					for _, size := range harnessSizes {
						cfg := decide(kind, size)
						end, clock, eng := onceRow(t, spec, kind, size, cfg, true)
						wantEnd, wantClock, _ := onceRow(t, spec, kind, size, cfg, false)
						if end != wantEnd || clock != wantClock {
							t.Errorf("%s once %d: routines end %#x by %#x, goroutines %#x by %#x", name, size, end, clock, wantEnd, wantClock)
						}
						if spec.Nodes > 1 && eng.Goroutines() != 0 {
							t.Errorf("%s once %d: %d goroutines", name, size, eng.Goroutines())
						}
					}
				}
			}
		}
	}
	// An armed crash plan does not change the form: a killed rank unwinds
	// through its loop's Unwind. Nobody dies here (the crash is due long after
	// the run), but somebody could.
	late := fault.Plan{Crashes: []fault.CrashSpec{{Rank: 1, At: 10}}}
	if _, eng := imbRow(t, cluster.Mini(2, 2), HANSystem(nil), coll.Bcast, []int{4 << 10}, IMBOpts{Faults: &late}); eng.Goroutines() != 0 {
		t.Errorf("under a crash plan the run started %d goroutines, want none", eng.Goroutines())
	}
}

// onceRow runs one collective of kind under cfg on a new world of spec, on
// runOnce's routines or with every rank a goroutine blocking in HAN's entry
// point, and returns the latest finish, the clock and the engine.
func onceRow(t *testing.T, spec cluster.Spec, kind coll.Kind, size int, cfg han.Config, routines bool) (end, clock uint64, eng *sim.Engine) {
	t.Helper()
	w := mpi.NewWorld(cluster.NewMachine(sim.New(), spec), mpi.OpenMPI())
	var last sim.Time
	if routines {
		o, err := runOnce(w, kind, size, cfg)
		if err != nil {
			t.Fatal(err)
		}
		last = o.end
	} else {
		ops := hanOps(han.New(w), cfg, func(error) {}) // runOnce reports what it rejects
		w.Start(func(p *mpi.Proc) {
			ops.run(p, kind, size)
			last = max(last, p.Now())
		})
		if err := w.Eng().Run(); err != nil {
			t.Fatal(err)
		}
	}
	return math.Float64bits(float64(last)), math.Float64bits(float64(w.Eng().Now())), w.Eng()
}

// The scale tier's run at 64 x 32 ranks: no barrier, no warm-up, one
// broadcast.
func TestGoldenScaleBits(t *testing.T) {
	w := mpi.NewWorld(cluster.NewMachine(sim.New(), ScaleSpec(64)), mpi.OpenMPI())
	w.Seed(1)
	rec := trace.New()
	w.Tracer = rec
	tier, err := runOnce(w, coll.Bcast, 256<<10, han.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := harnessRow{math.Float64bits(float64(w.Eng().Now())), math.Float64bits(float64(tier.end)), traceHash(t, rec)}
	if got != goldenScale {
		t.Errorf("sim bits moved:\n\tgoldenScale = harnessRow{%#x, %#x, %#x}", got.clock, got.points, got.trace)
	}
	res, err := ScaleBcast(ScaleSpec(64), 256<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(res.SimSeconds); bits != goldenScale.points {
		t.Errorf("ScaleBcast reports %#x, the traced run %#x", bits, goldenScale.points)
	}
}

var goldenIMB = map[string]harnessRow{
	"bcast/4x4/none":           {0x3f72ada8c5821335, 0x1f5098490daf2137, 0x5d094a0b8e534411},
	"reduce/4x4/none":          {0x3f8037d78b5f537a, 0x3a5f9242aa996409, 0x8b3e04186748d59e},
	"allreduce/4x4/none":       {0x3f896748cf36fb6c, 0xcefdf747f5b930fb, 0x45b02003d397661},
	"gather/4x4/none":          {0x3f8bd0457a70ed89, 0x617bda84433881a, 0x4e9b720d90aadb7b},
	"allgather/4x4/none":       {0x3f9b57fec4278d91, 0x5dfd966ec026dbdb, 0x40b405d5480a688d},
	"scatter/4x4/none":         {0x3f8bcf0124c507c0, 0xc101f933a18e4dc9, 0xc9fd88fdd79f8c28},
	"bcast/4x4/drops":          {0x3f81d19ec3a505dc, 0x164d3ea6b35320d7, 0x52b980e9d3b9e4f7},
	"reduce/4x4/drops":         {0x3f8a95e64d6e0e95, 0xee99a75da2453a2c, 0xa1fad7c3109fa416},
	"allreduce/4x4/drops":      {0x3f91298908bcc3b7, 0x7700b65c171d6c67, 0x91ef51fba3de7642},
	"gather/4x4/drops":         {0x3f921b1590aca781, 0xe93e56386ce51654, 0x3235ca545ac87dcd},
	"allgather/4x4/drops":      {0x3f9f950eddcc59cd, 0xc1e7bbee4cba0662, 0x774402a906e4653f},
	"scatter/4x4/drops":        {0x3f91f0cfb462432c, 0x306fec494cdea70e, 0xa50174e496eeea72},
	"bcast/4x4/stragglers":     {0x3fb6fd75e2046c76, 0xa9692fb6f0c04dfd, 0xe59697369541a76},
	"reduce/4x4/stragglers":    {0x3fb6fd75e2046c76, 0xa83c741597a4729a, 0x1a5c54e6c769f47f},
	"allreduce/4x4/stragglers": {0x3fb6fd75e2046c76, 0xde5d6d82697a727f, 0xc989fd9109a4dc0},
	"gather/4x4/stragglers":    {0x3fb6fd75e2046c76, 0xff594561d0625b9a, 0x86fd5d61af0758b0},
	"allgather/4x4/stragglers": {0x3fb6fd75e2046c76, 0x8cabcc5e73f63c42, 0x697e406c9318c505},
	"scatter/4x4/stragglers":   {0x3fb6fd75e2046c76, 0x9b5dab9316121f7f, 0xc0e3faf10683b91f},
	"bcast/1x4/none":           {0x3f4bc228779a5097, 0xfcf5054209bd3734, 0x6e5d87265bd00a51},
	"reduce/1x4/none":          {0x3f6e91917b393bca, 0xc3bc359938802a52, 0x56ba8b024f8044c2},
	"allreduce/1x4/none":       {0x3f72a62ad335b290, 0x8da4e975144bdcdd, 0x9653538e0d7dc280},
	"gather/1x4/none":          {0x3f54a8f0193f4504, 0xa6db72cfa7857f0c, 0x7ef55f70759d5266},
	"allgather/1x4/none":       {0x3f7287f0b9c2a743, 0xdacd8924852b78f2, 0x2ad0cf1a52f430dc},
	"scatter/1x4/none":         {0x3f548d41670fb270, 0xad4afc83efb6e5d4, 0x4183ef991d3e2119},
	"bcast/1x4/drops":          {0x3f62f7035cdc7fa1, 0x8605a0506fba5ec5, 0xd5f790b85e3cf3f7},
	"reduce/1x4/drops":         {0x3f737d9865b82d80, 0xd45a012f52ebea36, 0x3020e33a3e064f54},
	"allreduce/1x4/drops":      {0x3f7a86fe08136855, 0x7db78a25d663648d, 0xee6ae9c06bb956a4},
	"gather/1x4/drops":         {0x3f62fcf80437db2d, 0xeb825c4e4055f1f, 0x662f5364c0e15ce1},
	"allgather/1x4/drops":      {0x3f7a295e30586730, 0x31ecdc6e2fde7f39, 0x300e2dde2ee12720},
	"scatter/1x4/drops":        {0x3f6f46ca7be87935, 0xecd215240a147099, 0x8f8ea13706f20830},
	"bcast/1x4/stragglers":     {0x3fb6fd75e2046c76, 0x2b7f001c9fc9bde0, 0x40367acd5814c065},
	"reduce/1x4/stragglers":    {0x3fb6fd75e2046c76, 0xd8cfbf17a51ad818, 0x185f002d9d0e7175},
	"allreduce/1x4/stragglers": {0x3fb6fd75e2046c76, 0x6e2debd896e1d565, 0x3b8ae92b9e231b4e},
	"gather/1x4/stragglers":    {0x3fb6fd75e2046c76, 0x7c6edfa8d52c97d8, 0x1ef16c3d9cb393fa},
	"allgather/1x4/stragglers": {0x3fb6fd75e2046c76, 0x89d41ea146e57e82, 0x71f2a5bb9469debe},
	"scatter/1x4/stragglers":   {0x3fb6fd75e2046c76, 0x3f049cc8c1fd4c7f, 0xabb1c1ad58747b24},
}

// goldenScale holds the engine clock, the last rank's return time (what
// ScaleResult.SimSeconds reports) and the trace hash.
var goldenScale = harnessRow{0x3f418f64bd1eb4a9, 0x3f418f64bd1eb4a9, 0x57376415ee5b2d5b}
