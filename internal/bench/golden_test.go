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
	"github.com/hanrepro/han/internal/rivals"
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

// messageHash is the FNV-1a hash of rec's message-level events — sends,
// deliveries, drops and crashes, each with its time, rank, name, size and
// peer, in record order — and of nothing a collective framework adds about
// itself (its collective, task and note events).
func messageHash(rec *trace.Recorder) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.KindSend, trace.KindDeliver, trace.KindDrop, trace.KindCrash:
			word(math.Float64bits(e.T))
			word(uint64(e.Rank))
			h.Write([]byte(string(e.Kind) + "/" + e.Name + "/"))
			word(uint64(e.Size))
			word(uint64(e.Peer))
		}
	}
	return h.Sum64()
}

// rivalSizes cross the rivals' 512 KiB switch between the sm and solo
// intra-node modules.
var rivalSizes = []int{4 << 10, 256 << 10, 1 << 20}

var rivalLibs = []rivals.Lib{rivals.OpenMPIDefault, rivals.CrayMPI, rivals.IntelMPI, rivals.MVAPICH2}

// Every kind of every rival library on Mini(4,4), on a single-node world and
// on Mini(3,5), on a clean network and under the two built-in plans that
// leave every rank alive: the engine clock, the points and the hash of the
// message-level events.
func TestGoldenRivalIMBBits(t *testing.T) {
	for _, world := range []struct {
		name string
		spec cluster.Spec
	}{{"4x4", cluster.Mini(4, 4)}, {"1x4", cluster.Mini(1, 4)}, {"3x5", cluster.Mini(3, 5)}} {
		for _, planName := range []string{"none", "drops", "stragglers"} {
			plan, err := fault.Builtin(planName)
			if err != nil {
				t.Fatal(err)
			}
			for _, lib := range rivalLibs {
				for _, kind := range harnessKinds {
					name := fmt.Sprintf("%v/%s/%s/%s", lib, kind, world.name, planName)
					t.Run(name, func(t *testing.T) {
						rec := trace.New()
						var eng *sim.Engine
						sys := tapped(RivalSystem(lib), func(w *mpi.World) { w.Tracer, eng = rec, w.Eng() })
						pts := IMBWith(world.spec, sys, kind, rivalSizes, IMBOpts{Faults: &plan, Seed: 7})
						got := harnessRow{math.Float64bits(float64(eng.Now())), pointsHash(pts), messageHash(rec)}
						if want, ok := goldenRivalIMB[name]; !ok || got != want {
							t.Errorf("sim bits moved (have golden: %v):\n\t%q: {%#x, %#x, %#x},", ok, name, got.clock, got.points, got.trace)
						}
					})
				}
			}
		}
	}
}

// IMBWith drives the ranks of a system that offers the step form as routines:
// for every kind, every submodule pair and every rival library the run
// starts no goroutine and parks nothing, on a single node too, and it
// reports the points and records the trace stream, byte for byte, of the
// same run with the step form withheld — every rank a goroutine on
// World.Start. The single-call run (runOnce, behind Once) is held the same
// way, at each size under the decision a submodule pair takes: the latest
// finish and the clock of the blocking entry point on World.Start, and no
// goroutine.
func TestIMBRunsRanksWithoutGoroutines(t *testing.T) {
	rounds := uint64(0) // barrier and collective pairs of one rank
	for _, size := range rivalSizes {
		rounds += uint64(ItersFor(size)) + 1
	}
	type system struct {
		name   string
		sys    System
		decide han.DecisionFunc // nil: no single-call runs
	}
	var systems []system
	for _, imod := range han.InterNames() {
		for _, smod := range han.IntraNames() {
			decide := func(kind coll.Kind, n int) han.Config {
				cfg := han.DefaultDecision(kind, n)
				cfg.IMod, cfg.SMod, cfg.IBAlg, cfg.IRAlg = imod, smod, coll.AlgDefault, coll.AlgDefault
				return cfg
			}
			systems = append(systems, system{imod + "-" + smod, HANSystem(decide), decide})
		}
	}
	for _, l := range rivalLibs {
		systems = append(systems, system{l.String(), RivalSystem(l), nil})
	}
	for _, spec := range []cluster.Spec{cluster.Mini(4, 4), cluster.Mini(1, 4)} {
		ranks := uint64(spec.Ranks())
		for _, s := range systems {
			blocking := s.sys
			blocking.Setup = func(w *mpi.World) Ops {
				ops := s.sys.Setup(w)
				ops.Start = nil
				return ops
			}
			for _, kind := range harnessKinds {
				name := fmt.Sprintf("%s/%dx%d/%s", kind, spec.Nodes, spec.PPN, s.name)
				got, eng := imbRow(t, spec, s.sys, kind, rivalSizes, IMBOpts{})
				want, goEng := imbRow(t, spec, blocking, kind, rivalSizes, IMBOpts{})
				if got != want {
					t.Errorf("%s: routines simulate {%#x, %#x, %#x}, goroutines {%#x, %#x, %#x}", name,
						got.clock, got.points, got.trace, want.clock, want.points, want.trace)
				}
				// A goroutine rank parks once per barrier and once per collective.
				if eng.Goroutines() != goEng.Goroutines()-ranks || eng.Parks() != goEng.Parks()-2*rounds*ranks ||
					eng.Goroutines()+eng.Parks() != 0 {
					t.Errorf("%s: %d goroutines and %d parks with the ranks routines, %d and %d with the %d ranks goroutines",
						name, eng.Goroutines(), eng.Parks(), goEng.Goroutines(), goEng.Parks(), ranks)
				}
				for _, size := range rivalSizes {
					if s.decide == nil {
						break
					}
					cfg := s.decide(kind, size)
					end, clock, eng := onceRow(t, spec, kind, size, cfg, true)
					wantEnd, wantClock, _ := onceRow(t, spec, kind, size, cfg, false)
					if end != wantEnd || clock != wantClock {
						t.Errorf("%s once %d: routines end %#x by %#x, goroutines %#x by %#x", name, size, end, clock, wantEnd, wantClock)
					}
					if eng.Goroutines() != 0 {
						t.Errorf("%s once %d: %d goroutines", name, size, eng.Goroutines())
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
	// A rival under a crash runs HAN's failure policy, in either form: node 1
	// of Mini(3,4) dies, leader included, 50µs into the run, and every kind
	// goes on to the end of its sweep.
	crash, err := fault.Builtin("crash-node")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range rivalLibs {
		sys := RivalSystem(l)
		blocking := sys
		blocking.Setup = func(w *mpi.World) Ops {
			ops := sys.Setup(w)
			ops.Start = nil
			return ops
		}
		for _, kind := range harnessKinds {
			name := fmt.Sprintf("%s/3x4/crash-node/%v", kind, l)
			got, eng := imbRow(t, cluster.Mini(3, 4), sys, kind, harnessSizes, IMBOpts{Faults: &crash})
			want, _ := imbRow(t, cluster.Mini(3, 4), blocking, kind, harnessSizes, IMBOpts{Faults: &crash})
			if got != want {
				t.Errorf("%s: routines simulate {%#x, %#x, %#x}, goroutines {%#x, %#x, %#x}", name,
					got.clock, got.points, got.trace, want.clock, want.points, want.trace)
			}
			if eng.Goroutines() != 0 {
				t.Errorf("%s: %d goroutines with the ranks routines", name, eng.Goroutines())
			}
		}
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

var goldenRivalIMB = map[string]harnessRow{
	"OpenMPI-default/bcast/4x4/none":           {0x3fac0aebd7bbe963, 0xbca26a3c58c9097e, 0x6fa5033ce57831a8},
	"OpenMPI-default/reduce/4x4/none":          {0x3f9b806c9639cffc, 0xbc2e0ccdcdac5ac4, 0xae26dba88214621a},
	"OpenMPI-default/allreduce/4x4/none":       {0x3f93acd267d48bde, 0x598c1ae28ed1c42, 0x14b10ee0493786c5},
	"OpenMPI-default/gather/4x4/none":          {0x3fb05cc9698c02e0, 0x1cb1755800f24409, 0xabd3aa9cb32ffb84},
	"OpenMPI-default/allgather/4x4/none":       {0x3fb48c3eadb22a32, 0x9a60b99e426eef8a, 0x7d19d3417097b89d},
	"OpenMPI-default/scatter/4x4/none":         {0x3fb05c1f61a9bcf8, 0x99f0fe7c8b7628e4, 0xaf6182360c3ecfb2},
	"CrayMPI/bcast/4x4/none":                   {0x3f917f0cce235b9d, 0xdf9941f3737d3818, 0x4d30df5ab7aaa5d8},
	"CrayMPI/reduce/4x4/none":                  {0x3f96694e90ba165b, 0x7c247cea6f3fb01e, 0x954f608c7e5f1b74},
	"CrayMPI/allreduce/4x4/none":               {0x3f9298fa788b50a8, 0x357273262d72dde2, 0xf4da4998e9130fdd},
	"CrayMPI/gather/4x4/none":                  {0x3faa8ee43ca699aa, 0xc5af8eccc871fcb0, 0x139dc7a544be9fca},
	"CrayMPI/allgather/4x4/none":               {0x3fb0af909d8fcb50, 0xa0c63377814234f9, 0xdcd4f2f3b706d4dd},
	"CrayMPI/scatter/4x4/none":                 {0x3faa8f7adf2e7e54, 0x4390d4aa2097da9b, 0x61103a7dd588ffbd},
	"IntelMPI/bcast/4x4/none":                  {0x3f9281e567a0b654, 0xb8360dc339e42de1, 0x103baeb2c71dd25c},
	"IntelMPI/reduce/4x4/none":                 {0x3f976c47bea99d95, 0x98e937d6b04287e2, 0x270c3584438d9fbc},
	"IntelMPI/allreduce/4x4/none":              {0x3f93824e1034997a, 0x9ccb64d658a93350, 0xfdb25469b5c07eb9},
	"IntelMPI/gather/4x4/none":                 {0x3fac9147bf027494, 0x46b71878ee1931ed, 0x774373c792afaf9e},
	"IntelMPI/allgather/4x4/none":              {0x3fb1f16935f6f45a, 0xf495249d4bc794fb, 0x85d398eb8caf8fd},
	"IntelMPI/scatter/4x4/none":                {0x3fac90b3c94b5cb9, 0x5a0a42221def1bcd, 0x6e304519c4e690c9},
	"MVAPICH2/bcast/4x4/none":                  {0x3f931ca2aeb905c7, 0x87597b8e071bc197, 0x8e2efcf6dcd9c02f},
	"MVAPICH2/reduce/4x4/none":                 {0x3f980705542d261a, 0xd12dbd3d0a8b1d52, 0x6a67dd5d49272294},
	"MVAPICH2/allreduce/4x4/none":              {0x3f9385e324dcb813, 0xdf75f4241d9d97ba, 0x4b645993ddbe7899},
	"MVAPICH2/gather/4x4/none":                 {0x3fadc2400600d22f, 0x8b6a610f3d7cc43c, 0xeaa0baee437c1380},
	"MVAPICH2/allgather/4x4/none":              {0x3fb2b0dfa7b7bed1, 0xb2beab49fffe1cb7, 0x92f8cc4b8208387d},
	"MVAPICH2/scatter/4x4/none":                {0x3fadc1481546bab9, 0xadf1242e5e5a2091, 0xa2d46863e03bf20e},
	"OpenMPI-default/bcast/4x4/drops":          {0x3fae4cde8c6b8272, 0xf89d7d4a5e204aac, 0x75c2af8130acbc33},
	"OpenMPI-default/reduce/4x4/drops":         {0x3fa115a38583dbce, 0x3dd190dc897558ab, 0xb331973d813f9380},
	"OpenMPI-default/allreduce/4x4/drops":      {0x3fa09472e837522d, 0x43e4c668aae01e61, 0x32beb0a3fe107304},
	"OpenMPI-default/gather/4x4/drops":         {0x3fb274470c622092, 0xd73a1b660cfc8949, 0x9fc538779f7f0f12},
	"OpenMPI-default/allgather/4x4/drops":      {0x3fb8a019273c363d, 0xeb68c3845bb1fb2f, 0x5d1d23a33a3cd370},
	"OpenMPI-default/scatter/4x4/drops":        {0x3fb3564be349d302, 0x6e954662bb8cf7a8, 0x560f729844ba64f7},
	"CrayMPI/bcast/4x4/drops":                  {0x3f96f84fec5df293, 0xaac32b8dd1e00ee8, 0x41a644a1f08ad964},
	"CrayMPI/reduce/4x4/drops":                 {0x3f9cf619d15834a8, 0xf80b29b867280aa3, 0x8c3f9292f7add4be},
	"CrayMPI/allreduce/4x4/drops":              {0x3f987325ba3225b0, 0x79e57ec08afc694d, 0x9d67418cf5c5a942},
	"CrayMPI/gather/4x4/drops":                 {0x3fae065cae4adfaa, 0xad62a048e56be971, 0xd7458c25fe870409},
	"CrayMPI/allgather/4x4/drops":              {0x3fb4b3434908d645, 0xed7b65b058914fb1, 0x18b3cc7c82ff39ae},
	"CrayMPI/scatter/4x4/drops":                {0x3fadbe2380f477c2, 0xda6b689633e7fe65, 0x3b38b901a3dc0ff3},
	"IntelMPI/bcast/4x4/drops":                 {0x3f971e7fc7866b90, 0x68f7a297469a3a61, 0xddacb45c47f558dd},
	"IntelMPI/reduce/4x4/drops":                {0x3f9e7b729e00aaa5, 0xdcc03a2ed4695a64, 0xc8e2259fae6cb6b1},
	"IntelMPI/allreduce/4x4/drops":             {0x3f9c1000d77319d5, 0x6b3e956d182f8d1f, 0x7d92d927069ca4f4},
	"IntelMPI/gather/4x4/drops":                {0x3faee6dee75d5a25, 0x388a6d2fb89dd154, 0xa9ea4832ae9990b4},
	"IntelMPI/allgather/4x4/drops":             {0x3fb64d4d4e02944e, 0xc4c583846520258d, 0x25d0ece087199f8b},
	"IntelMPI/scatter/4x4/drops":               {0x3faf1b1c14de7ed2, 0x65623f8333ae0d05, 0xa4d18b0b7edfec68},
	"MVAPICH2/bcast/4x4/drops":                 {0x3f97d5339d599e4d, 0x62c0105472d0be33, 0xfb67b431439dd8e3},
	"MVAPICH2/reduce/4x4/drops":                {0x3f9f67f56658141c, 0xf5a115c2779337bd, 0x6684512a0dd24fdc},
	"MVAPICH2/allreduce/4x4/drops":             {0x3f9cc5dfc36d2048, 0xd447cb944960df3f, 0xdb060d90bc3c851e},
	"MVAPICH2/gather/4x4/drops":                {0x3fb0e298c2d849bd, 0x3a4f51e4297a344e, 0x42195be3f7466f30},
	"MVAPICH2/allgather/4x4/drops":             {0x3fb8072bbe84ac03, 0x73fdb069ebfcaa30, 0x54b00b6e1fa939f2},
	"MVAPICH2/scatter/4x4/drops":               {0x3fb08ac806d9b3dd, 0x343419f7a6b1983f, 0x90f69e620ea31029},
	"OpenMPI-default/bcast/4x4/stragglers":     {0x3fb6fd75e2046c76, 0xed4d353e6844f758, 0x62a235971003ee3c},
	"OpenMPI-default/reduce/4x4/stragglers":    {0x3fb6fd75e2046c76, 0x1cd47b54fac4aca, 0xfdb08bc55afb2cd4},
	"OpenMPI-default/allreduce/4x4/stragglers": {0x3fb6fd75e2046c76, 0x7670249a68ba67e6, 0x8d9456adad58a58a},
	"OpenMPI-default/gather/4x4/stragglers":    {0x3fb6fd75e2046c76, 0xac0306251de51f38, 0x7b96945ff593a54},
	"OpenMPI-default/allgather/4x4/stragglers": {0x3fb6fd75e2046c76, 0xc9b5dbb9271b1c5d, 0x2f77016afb0346d6},
	"OpenMPI-default/scatter/4x4/stragglers":   {0x3fb6fd75e2046c76, 0xf111aae5c26200c7, 0xd2bcaa13c99e7301},
	"CrayMPI/bcast/4x4/stragglers":             {0x3fb6fd75e2046c76, 0xc3822889be7ea765, 0xbf4d8ac49f183fa6},
	"CrayMPI/reduce/4x4/stragglers":            {0x3fb6fd75e2046c76, 0x9eff7d8a6fc6db, 0xbc9af8461d5cf9c9},
	"CrayMPI/allreduce/4x4/stragglers":         {0x3fb6fd75e2046c76, 0x496ac1bfc2309812, 0x1a1d6bdf299bfbb6},
	"CrayMPI/gather/4x4/stragglers":            {0x3fb6fd75e2046c76, 0xa23c597b07fa6d65, 0xe2382c71abce6c42},
	"CrayMPI/allgather/4x4/stragglers":         {0x3fb6fd75e2046c76, 0xa2b2de45b6add872, 0xd25803f9316b6590},
	"CrayMPI/scatter/4x4/stragglers":           {0x3fb6fd75e2046c76, 0x5c3ddaedc17fda91, 0xcbe19d4cfd4c53c9},
	"IntelMPI/bcast/4x4/stragglers":            {0x3fb6fd75e2046c76, 0x732558f56ae7aa35, 0x20f3a172a5b787ae},
	"IntelMPI/reduce/4x4/stragglers":           {0x3fb6fd75e2046c76, 0xcb7222d28601bed4, 0xcbce540cded3e425},
	"IntelMPI/allreduce/4x4/stragglers":        {0x3fb6fd75e2046c76, 0xce4445eae56ed42e, 0xbf705248f3cebc14},
	"IntelMPI/gather/4x4/stragglers":           {0x3fb6fd75e2046c76, 0xbd352db2436b2a34, 0x29bcfe4fa5e230c3},
	"IntelMPI/allgather/4x4/stragglers":        {0x3fb6fd75e2046c76, 0xdfa5e0ce9d8b6ee2, 0x783b369ccfda5f4f},
	"IntelMPI/scatter/4x4/stragglers":          {0x3fb6fd75e2046c76, 0x10a009e7b69792c1, 0x6ac0ef3bdf292e95},
	"MVAPICH2/bcast/4x4/stragglers":            {0x3fb6fd75e2046c76, 0x6ef17a183acd0ee, 0xf93ed4853797b283},
	"MVAPICH2/reduce/4x4/stragglers":           {0x3fb6fd75e2046c76, 0xe30b850e50453ccd, 0xa3b5f6722cabffdc},
	"MVAPICH2/allreduce/4x4/stragglers":        {0x3fb6fd75e2046c76, 0x141bd01d49bdadaa, 0xa5a908a20647e5df},
	"MVAPICH2/gather/4x4/stragglers":           {0x3fb6fd75e2046c76, 0x9e26ffb0dc6104b4, 0x4e8332a4b283fe2f},
	"MVAPICH2/allgather/4x4/stragglers":        {0x3fb6fd75e2046c76, 0x3458c5fc0ec962ee, 0xc7fc20eadbebfa9e},
	"MVAPICH2/scatter/4x4/stragglers":          {0x3fb6fd75e2046c76, 0x217c7bda509596ef, 0x7124513ef1ba0990},
	"OpenMPI-default/bcast/1x4/none":           {0x3f77626747b466e6, 0x1dff23225d07d165, 0x2a47aeb8a7803781},
	"OpenMPI-default/reduce/1x4/none":          {0x3f84fa55804efd88, 0xbac4b1ee73ae76e, 0x93aa00af48455e3f},
	"OpenMPI-default/allreduce/1x4/none":       {0x3f8bfa9003779fe1, 0xa164b274bd8de221, 0x661f3cf533d3bd9d},
	"OpenMPI-default/gather/1x4/none":          {0x3f7093d031bf4eeb, 0x3c12767690990228, 0x9c7fd253205b46f0},
	"OpenMPI-default/allgather/1x4/none":       {0x3f906b81c253ea79, 0x14edb26958c01cd0, 0xc5b1e307cc1b91fd},
	"OpenMPI-default/scatter/1x4/none":         {0x3f708caed54e34cc, 0x3b5ebc74653d5cff, 0x7daf5b37144569d2},
	"CrayMPI/bcast/1x4/none":                   {0x3f70762c5f710f63, 0xeb39f970338e436a, 0xea9fc6fefb8148b8},
	"CrayMPI/reduce/1x4/none":                  {0x3f77fd7cf2c51ff6, 0x73239283e22ead8d, 0xe2c7df7c525098e5},
	"CrayMPI/allreduce/1x4/none":               {0x3f8286cc7e2454f3, 0xdc7372f1b2fc9b7e, 0x590ba81fa6eae5a8},
	"CrayMPI/gather/1x4/none":                  {0x3f6ad905a87d7784, 0x5fc1459d279e2200, 0xacd1797f0636ab63},
	"CrayMPI/allgather/1x4/none":               {0x3f8aa404adc76a4f, 0x60f7e4d1074af1b3, 0x3ce6cf3e7a25f1ed},
	"CrayMPI/scatter/1x4/none":                 {0x3f6acdf867fbd312, 0x49c7b4ca2ff5d039, 0x92dc5e557768a98e},
	"IntelMPI/bcast/1x4/none":                  {0x3f707a287ad9e9a9, 0xe222ec891ec435ed, 0x429ad318370d4d14},
	"IntelMPI/reduce/1x4/none":                 {0x3f7801366e9e1d1f, 0xe07e9c38181e7a3a, 0x10398258e0fd3221},
	"IntelMPI/allreduce/1x4/none":              {0x3f8288863bd2ea97, 0x61bf0029c29d8a99, 0xb46db259736cadcf},
	"IntelMPI/gather/1x4/none":                 {0x3f6ce73a255ddb28, 0xefc7f63e26cf0b01, 0x77a23a4dc26b0bf4},
	"IntelMPI/allgather/1x4/none":              {0x3f8ca8b51fd71114, 0x48a8c1dc14810085, 0x9f85a5d1926a25d},
	"IntelMPI/scatter/1x4/none":                {0x3f6cda06a95c62cb, 0x25832fa55e24ec29, 0xa0e0a882d0fe22e},
	"MVAPICH2/bcast/1x4/none":                  {0x3f707e24ef3a9476, 0x5dd8b2f97f3169d0, 0xe989debc794973cb},
	"MVAPICH2/reduce/1x4/none":                 {0x3f7804f0541449c4, 0x707b79bc26f995d7, 0xd79ef3794dcdb0f0},
	"MVAPICH2/allreduce/1x4/none":              {0x3f828a40baee493d, 0x8f9b8b71ca3f475d, 0x23bd0f1fc63a7d1e},
	"MVAPICH2/gather/1x4/none":                 {0x3f6e243cbfa53e44, 0x3140299c68861a3b, 0x496ef1461bb40a64},
	"MVAPICH2/allgather/1x4/none":              {0x3f8ddcab224b1777, 0x1f4bd782728a589b, 0x420518d3a060c1c5},
	"MVAPICH2/scatter/1x4/none":                {0x3f6e16803e800fb8, 0x6cc59a2715ba9661, 0x9ff67be10386caf9},
	"OpenMPI-default/bcast/1x4/drops":          {0x3f7fd4094cdcda9b, 0x9fdfc592c440052, 0x21293137d882719b},
	"OpenMPI-default/reduce/1x4/drops":         {0x3f88a745370e0794, 0xa4f1b6010a581be6, 0x9557e4b6d8878e},
	"OpenMPI-default/allreduce/1x4/drops":      {0x3f909dd1849b60cc, 0xfbf0c5bbd101cb8d, 0x2b765972938019},
	"OpenMPI-default/gather/1x4/drops":         {0x3f77e37704813b59, 0x8a59189ebf449168, 0xccad87a059479f89},
	"OpenMPI-default/allgather/1x4/drops":      {0x3f94fb0aa888aef0, 0xac2a629a737430bb, 0xc3035d1444df5d75},
	"OpenMPI-default/scatter/1x4/drops":        {0x3f79208611f3a310, 0x8b75e327957ae2f0, 0x78e7dfbeca17312c},
	"CrayMPI/bcast/1x4/drops":                  {0x3f785eaa0799cd1f, 0x9c77d1744769b01c, 0xd83951befc40aef1},
	"CrayMPI/reduce/1x4/drops":                 {0x3f7d1707e8a5b9d5, 0x7607d424bb8f7b12, 0xce1c48b8f42fbf93},
	"CrayMPI/allreduce/1x4/drops":              {0x3f87699816b1ed6f, 0x1b51c8f270945d3d, 0x4f62ed215be814e3},
	"CrayMPI/gather/1x4/drops":                 {0x3f76c8d5a4a3d3f9, 0x4d53af1a7ab3703a, 0x2d5f4f48b7576b8},
	"CrayMPI/allgather/1x4/drops":              {0x3f91c83ea41aa611, 0xb143e3f8502e0ba, 0x228fabff7e62e0d8},
	"CrayMPI/scatter/1x4/drops":                {0x3f76e67405b4a91e, 0xab1f9296f66d4973, 0xc84b9fcef32b53d1},
	"IntelMPI/bcast/1x4/drops":                 {0x3f7862c0f95583c8, 0x8dff792729a3a7dc, 0x867213c95f16dbcc},
	"IntelMPI/reduce/1x4/drops":                {0x3f7d1b61d6fce360, 0x9d5f7ecd0a251a8e, 0xf34835eba6c149ce},
	"IntelMPI/allreduce/1x4/drops":             {0x3f876b9623fe6afa, 0xfc6545fdb0f2413, 0xd12ab028232af596},
	"IntelMPI/gather/1x4/drops":                {0x3f77cda2a2f47471, 0x6462400476475cf, 0xedbf5daee574ee65},
	"IntelMPI/allgather/1x4/drops":             {0x3f92c9faacddf93c, 0xc8a574f8940e1816, 0xf47a4d1e7a50cbf2},
	"IntelMPI/scatter/1x4/drops":               {0x3f77e291f09167e1, 0xac6ffd9a3e09a209, 0x516c1cc0d96a5765},
	"MVAPICH2/bcast/1x4/drops":                 {0x3f77fdc6e312e603, 0x3e3cf2347c750bd5, 0x4711029d0e041060},
	"MVAPICH2/reduce/1x4/drops":                {0x3f7d1fbc67751c14, 0xce050c622cf6500a, 0x8f4d4bff02ee9583},
	"MVAPICH2/allreduce/1x4/drops":             {0x3f873934041c21f8, 0x330da7f1cd5dd098, 0x369fa033e5558c94},
	"MVAPICH2/gather/1x4/drops":                {0x3f773528bdd90ae5, 0x185545a0821624ac, 0xa17553ed5f4de30c},
	"MVAPICH2/allgather/1x4/drops":             {0x3f937e87bd870f7e, 0x94cb5c1696161353, 0x922f2f4474c426d7},
	"MVAPICH2/scatter/1x4/drops":               {0x3f787af1cce7c63b, 0xa6cc271e4553a70b, 0x80e9ec2f87592962},
	"OpenMPI-default/bcast/1x4/stragglers":     {0x3fb6fd75e2046c76, 0xf946bfb2cee76e86, 0x6c31d427f3060db7},
	"OpenMPI-default/reduce/1x4/stragglers":    {0x3fb6fd75e2046c76, 0x3687b0c6e8d87532, 0x64c87ec665aca060},
	"OpenMPI-default/allreduce/1x4/stragglers": {0x3fb6fd75e2046c76, 0x961a6f9284d425b1, 0x188d1965374c8cfa},
	"OpenMPI-default/gather/1x4/stragglers":    {0x3fb6fd75e2046c76, 0xf1a43e9d0f230612, 0xf98256102733e42a},
	"OpenMPI-default/allgather/1x4/stragglers": {0x3fb6fd75e2046c76, 0x429010cef7099490, 0xe1c1e45db65f8583},
	"OpenMPI-default/scatter/1x4/stragglers":   {0x3fb6fd75e2046c76, 0x2d93044bf9211d06, 0xa1b5ad76c50046ff},
	"CrayMPI/bcast/1x4/stragglers":             {0x3fb6fd75e2046c76, 0x13a5c69be1f9eb0, 0xd60ed78eca3cd32b},
	"CrayMPI/reduce/1x4/stragglers":            {0x3fb6fd75e2046c76, 0x62c2eb322de9867a, 0x62f6a35e7c9edfe7},
	"CrayMPI/allreduce/1x4/stragglers":         {0x3fb6fd75e2046c76, 0x3589bab502171e98, 0x84806e86bc6cf258},
	"CrayMPI/gather/1x4/stragglers":            {0x3fb6fd75e2046c76, 0xf3edffa1af79313c, 0x6870564a8e9e07c4},
	"CrayMPI/allgather/1x4/stragglers":         {0x3fb6fd75e2046c76, 0x822c040b69905de, 0x9cc69cb2414b0a03},
	"CrayMPI/scatter/1x4/stragglers":           {0x3fb6fd75e2046c76, 0xc3773313dcd3738c, 0x3aec36ffbefea36e},
	"IntelMPI/bcast/1x4/stragglers":            {0x3fb6fd75e2046c76, 0x1c409fcba43cfbba, 0xa12fc3fbb2d12b68},
	"IntelMPI/reduce/1x4/stragglers":           {0x3fb6fd75e2046c76, 0x5b9b479aacb8ac18, 0xd2135b843857d7d4},
	"IntelMPI/allreduce/1x4/stragglers":        {0x3fb6fd75e2046c76, 0xe3be77926660f1a6, 0xf0f30bf1fc44bb54},
	"IntelMPI/gather/1x4/stragglers":           {0x3fb6fd75e2046c76, 0x3261b3a369648d4a, 0x80ee1322398d203},
	"IntelMPI/allgather/1x4/stragglers":        {0x3fb6fd75e2046c76, 0x8c06d64dd5ffe056, 0xa4cf11a352900330},
	"IntelMPI/scatter/1x4/stragglers":          {0x3fb6fd75e2046c76, 0xa60daaadf79421a4, 0x9a3466e53dedcffc},
	"MVAPICH2/bcast/1x4/stragglers":            {0x3fb6fd75e2046c76, 0xb30da8b88052aa9e, 0x526ea7372e5ad8bb},
	"MVAPICH2/reduce/1x4/stragglers":           {0x3fb6fd75e2046c76, 0xcce8d6b84f21e6c6, 0x43acd0f3398060d8},
	"MVAPICH2/allreduce/1x4/stragglers":        {0x3fb6fd75e2046c76, 0x45fcc8fb93bbd5a3, 0x7d84c30cf00d183a},
	"MVAPICH2/gather/1x4/stragglers":           {0x3fb6fd75e2046c76, 0x78fc49401484fc1, 0x8cc488c2ea37bfb8},
	"MVAPICH2/allgather/1x4/stragglers":        {0x3fb6fd75e2046c76, 0xf18e77ecf7b29cf2, 0x475307bd2b254725},
	"MVAPICH2/scatter/1x4/stragglers":          {0x3fb6fd75e2046c76, 0xde1cfaca6238af4f, 0xa2ae273934f1a8d0},
	"OpenMPI-default/bcast/3x5/none":           {0x3fa7c98130e42afb, 0x5155c84a14b1b327, 0x129979d1f6dbaf68},
	"OpenMPI-default/reduce/3x5/none":          {0x3f9a75d8a3df85bb, 0x54c9292ae4892e1a, 0x18d54f005788cd5b},
	"OpenMPI-default/allreduce/3x5/none":       {0x3f968f69ebdb7c15, 0x7ef4a17c296fc3b2, 0x397570dd18eeb353},
	"OpenMPI-default/gather/3x5/none":          {0x3fab461a4a24025b, 0xb52e20a6ee6ba1e4, 0x83677cd8e537fedc},
	"OpenMPI-default/allgather/3x5/none":       {0x3fb7dcacc4b861e3, 0x9d660e13415921c2, 0x66fec4be7efb281c},
	"OpenMPI-default/scatter/3x5/none":         {0x3fab47f8a72c0fbc, 0x26b6c434d1308935, 0xc7df3876f07b48f4},
	"CrayMPI/bcast/3x5/none":                   {0x3f8c20d3f6e6862b, 0xdef3e919bc76e923, 0xa4213c8001aa93e7},
	"CrayMPI/reduce/3x5/none":                  {0x3f9332803fefea37, 0x2fab650c891ab00b, 0xb8216a69d325ce05},
	"CrayMPI/allreduce/3x5/none":               {0x3f961b7b20e5fc74, 0x3b18d354d440d701, 0x705efcb7ebc93397},
	"CrayMPI/gather/3x5/none":                  {0x3fa6229e24053387, 0x94f105f2d5fd1f32, 0xdf05f38992b3f7ee},
	"CrayMPI/allgather/3x5/none":               {0x3fb35f0e7724d444, 0x2add05d6bc7e1229, 0x8ae7dd955946aa43},
	"CrayMPI/scatter/3x5/none":                 {0x3fa62575893385e5, 0x16f84962b9bfc0d, 0x4397cf7467f07fdd},
	"IntelMPI/bcast/3x5/none":                  {0x3f8d79f8434d128b, 0xa07d36ab978abdde, 0x482805728d39ac28},
	"IntelMPI/reduce/3x5/none":                 {0x3f93dfcd1a0d10a3, 0xcb90933eca8c9e6d, 0x3d5702d709b45592},
	"IntelMPI/allreduce/3x5/none":              {0x3f97000235c86040, 0x5fc661e2dc0e3c60, 0x37d6ad21da23d0c2},
	"IntelMPI/gather/3x5/none":                 {0x3fa7cec93564e5ad, 0x9e65e0ee5569b0bd, 0x1b7a8d0b7ed2b81d},
	"IntelMPI/allgather/3x5/none":              {0x3fb4d5421dfa0c97, 0x6a3dafaeb0db5740, 0xcf1ddf3c75cdd5e7},
	"IntelMPI/scatter/3x5/none":                {0x3fa7d14de95ef795, 0xa6a51f52de8036a0, 0x90fafba1491d774d},
	"MVAPICH2/bcast/3x5/none":                  {0x3f8e47c1979b8009, 0x95add100623c3999, 0x21c08fbf4c77ff94},
	"MVAPICH2/reduce/3x5/none":                 {0x3f94478d29bc1806, 0x170d2bd0633b6437, 0xe11d673e1d5951cb},
	"MVAPICH2/allreduce/3x5/none":              {0x3f9585990693ab28, 0xeb5388b1bdc6d519, 0xcdea31fde77ed83f},
	"MVAPICH2/gather/3x5/none":                 {0x3fa8cd32cb603cc9, 0xec7e2ec2bb96960b, 0xd9d5fa15e893e1ff},
	"MVAPICH2/allgather/3x5/none":              {0x3fb5b361d488c5da, 0xbe475e8d43c7fe93, 0xa661b4fd492a78b9},
	"MVAPICH2/scatter/3x5/none":                {0x3fa8cf4f97bee262, 0xf6f10069b5bb8573, 0x2772b410f1483a42},
	"OpenMPI-default/bcast/3x5/drops":          {0x3fab1db805d1696a, 0xff48b589c9291bf2, 0x3fef967e2954885e},
	"OpenMPI-default/reduce/3x5/drops":         {0x3fa01b69ce3a31f0, 0x1cf4da1974bf9d55, 0x9a8262bb99e328d5},
	"OpenMPI-default/allreduce/3x5/drops":      {0x3f9e3aab10910457, 0xfd3aa410c610ce2b, 0x8192770c6e996893},
	"OpenMPI-default/gather/3x5/drops":         {0x3fae82cfb2504a94, 0xf47a08d0e9f95fae, 0x74c8b146fac709da},
	"OpenMPI-default/allgather/3x5/drops":      {0x3fbc0120ed332663, 0x7727997d0a7a1f49, 0x301a77f2456425c0},
	"OpenMPI-default/scatter/3x5/drops":        {0x3fae2ae205f72608, 0xbccde40471e7a95b, 0xe2ac43b9b5fbb85e},
	"CrayMPI/bcast/3x5/drops":                  {0x3f96431e42fde25c, 0xc133af2e497f035e, 0xab34f9b2afe64fe8},
	"CrayMPI/reduce/3x5/drops":                 {0x3f96b91e8a94fcaf, 0xe737b3715fbbcebe, 0x2d14b518bc0902cb},
	"CrayMPI/allreduce/3x5/drops":              {0x3f9cb9d43662daa6, 0x56cf8b3a389b7528, 0xc5bf00464a058a88},
	"CrayMPI/gather/3x5/drops":                 {0x3fa83259b9efeeba, 0x6ab8259e2ce87233, 0x7f84d700033d6bc7},
	"CrayMPI/allgather/3x5/drops":              {0x3fb72c934b224b14, 0x41b91c94e32525c4, 0x5a895bcbb9dbc4f7},
	"CrayMPI/scatter/3x5/drops":                {0x3fa874aa9cc774d9, 0xfaa4eb3daa475b00, 0x815891d4a7574aed},
	"IntelMPI/bcast/3x5/drops":                 {0x3f957e9c8a882bcb, 0x4f117e4c1f6b8380, 0xed118741effa959f},
	"IntelMPI/reduce/3x5/drops":                {0x3f99297bfbb28c6f, 0x93a6659a99ba6878, 0x3fdff2b853ff5e77},
	"IntelMPI/allreduce/3x5/drops":             {0x3f9cf88722db0673, 0xccfdb50b9a80e8ad, 0x1e973e6cef82232c},
	"IntelMPI/gather/3x5/drops":                {0x3faa04352d42158b, 0x9024d29b431667d4, 0x580534785a95471c},
	"IntelMPI/allgather/3x5/drops":             {0x3fb8482f51830306, 0xb7c6c7ec645d77d, 0xefbdfd3239c8bb5c},
	"IntelMPI/scatter/3x5/drops":               {0x3fadf24108024bcf, 0xefcb553132c728a6, 0x6f894472af104392},
	"MVAPICH2/bcast/3x5/drops":                 {0x3f956394aba3bb55, 0xd9767f331506ca7c, 0x83d8a7de385ba0cf},
	"MVAPICH2/reduce/3x5/drops":                {0x3f991c5df7489656, 0x722f314c47c1828d, 0x820165cf1dd1da54},
	"MVAPICH2/allreduce/3x5/drops":             {0x3f9e879cf576e4aa, 0xca8582d8a197873d, 0xbb6f4151b3cdb599},
	"MVAPICH2/gather/3x5/drops":                {0x3fab6a8487b549db, 0xf517e1e8ae19c552, 0x6156c6e96ce626c8},
	"MVAPICH2/allgather/3x5/drops":             {0x3fb8dda95bd63409, 0xb9081eb6d7c6925a, 0xc6a968bf6995e0df},
	"MVAPICH2/scatter/3x5/drops":               {0x3fac249fe8cb6476, 0xe3143cbfad40b238, 0x54bd98a0dfe7ebe4},
	"OpenMPI-default/bcast/3x5/stragglers":     {0x3fb6fd75e2046c76, 0x275d2fb23a3a7231, 0xf13200a131bb08c1},
	"OpenMPI-default/reduce/3x5/stragglers":    {0x3fb6fd75e2046c76, 0x13397e671a5d5b51, 0x92fff9216e84106d},
	"OpenMPI-default/allreduce/3x5/stragglers": {0x3fb6fd75e2046c76, 0x18cf2e108aebfddb, 0x7de78dcf172d4b8c},
	"OpenMPI-default/gather/3x5/stragglers":    {0x3fb6fd75e2046c76, 0xe324f4106a753cba, 0xb5e01bd6adb46e68},
	"OpenMPI-default/allgather/3x5/stragglers": {0x3fb7e219da20ebf8, 0x7fd94b293d27f9fe, 0xa851a172e548f03a},
	"OpenMPI-default/scatter/3x5/stragglers":   {0x3fb6fd75e2046c76, 0xf8561234e4c0b806, 0xe1c499e22853d7fb},
	"CrayMPI/bcast/3x5/stragglers":             {0x3fb6fd75e2046c76, 0xd2c134cdf677c423, 0x822ce76c02e271e7},
	"CrayMPI/reduce/3x5/stragglers":            {0x3fb6fd75e2046c76, 0xc2075c039c8e1f3f, 0xda06a38c757fad56},
	"CrayMPI/allreduce/3x5/stragglers":         {0x3fb6fd75e2046c76, 0xb1ac60c770911256, 0xbfdff569349eea7f},
	"CrayMPI/gather/3x5/stragglers":            {0x3fb6fd75e2046c76, 0xb865e4dcd9c52e5a, 0x8e20e98272d4ee57},
	"CrayMPI/allgather/3x5/stragglers":         {0x3fb6fd75e2046c76, 0xd56d5140844739ba, 0x881358a535cc7849},
	"CrayMPI/scatter/3x5/stragglers":           {0x3fb6fd75e2046c76, 0x5fc761a11dba435b, 0x3da4eab0647991fe},
	"IntelMPI/bcast/3x5/stragglers":            {0x3fb6fd75e2046c76, 0x7a37a8bde5efb065, 0xf9404274a9e531a1},
	"IntelMPI/reduce/3x5/stragglers":           {0x3fb6fd75e2046c76, 0x10df7258ffcdd677, 0xea0883be9915d29f},
	"IntelMPI/allreduce/3x5/stragglers":        {0x3fb6fd75e2046c76, 0xe6508ab18e75e45b, 0xc815368e78ab5491},
	"IntelMPI/gather/3x5/stragglers":           {0x3fb6fd75e2046c76, 0xe52768dad9dd9da8, 0x23c96f3797c1df32},
	"IntelMPI/allgather/3x5/stragglers":        {0x3fb6fd75e2046c76, 0xa42fa78e2423a23a, 0xa9394b9df20d486e},
	"IntelMPI/scatter/3x5/stragglers":          {0x3fb6fd75e2046c76, 0xe88c85076f2ac34, 0xea58d3ea19c7e8c8},
	"MVAPICH2/bcast/3x5/stragglers":            {0x3fb6fd75e2046c76, 0x86f13b5f1b3eec6c, 0xf83fd9010bb2aab3},
	"MVAPICH2/reduce/3x5/stragglers":           {0x3fb6fd75e2046c76, 0xf6eefab265b705c3, 0x2a264f47254950fa},
	"MVAPICH2/allreduce/3x5/stragglers":        {0x3fb6fd75e2046c76, 0x7ce94b1a5c7d9dcf, 0xcf51edb365c8a498},
	"MVAPICH2/gather/3x5/stragglers":           {0x3fb6fd75e2046c76, 0x5450cc69284c667b, 0x8570e48650fea7d1},
	"MVAPICH2/allgather/3x5/stragglers":        {0x3fb6fd75e2046c76, 0xdd10637f4abf6ef1, 0xd57b8258cf2ec37c},
	"MVAPICH2/scatter/3x5/stragglers":          {0x3fb6fd75e2046c76, 0xc2a204f970399126, 0xfba3a8508b3cdf89},
}

// goldenScale holds the engine clock, the last rank's return time (what
// ScaleResult.SimSeconds reports) and the trace hash.
var goldenScale = harnessRow{0x3f418f64bd1eb4a9, 0x3f418f64bd1eb4a9, 0x57376415ee5b2d5b}
