package mpi

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// This file pins the P2P layer's simulated timing bit for bit: the churn
// workload with and without fault plans, and the crash scenarios of
// crash_test.go with their verdicts and counters. The values were recorded
// while the tree had two P2P implementations — fault-free rows on the
// pooled path, drop and crash rows on the per-send signal-chain path that
// ran under those plans — and held on both before the second was deleted,
// so they are the contract the one state machine keeps. CI runs them a
// second time under HAN_ARENA_DEBUG=1, where no pool slot is ever reused:
// equal bits there are the recycling-on versus recycling-off differential.
// On a mismatch the failure prints the row in table syntax.

// goldenChurn holds runP2PChurn's outcome without a plan: seeds 1..10,
// jitter 0 then 0.1.
var goldenChurn = [10][2]churnBits{
	{{0x3f42dfd2a385fe64, 0x05a8f45af4013661}, {0x3f42e543de9283e3, 0xdd1d810c09a3ae43}},
	{{0x3f3ff7cee7a4818b, 0xbfe2ee941a2105c2}, {0x3f4002f4e707025f, 0x3c32a2dfef396567}},
	{{0x3f41d86041b8d4f3, 0x6f1a4e6649503d01}, {0x3f41e0e5f080e812, 0x758cc2836296dc37}},
	{{0x3f3dfbb28a82af9b, 0x144036d027bd990f}, {0x3f3e07994505b6a5, 0x48e086a552bf230c}},
	{{0x3f405afaa84f55af, 0xbcb264a3864db343}, {0x3f405dc983d8a454, 0x736fd4a6fe10303c}},
	{{0x3f421d310c22a0b7, 0xf5a36cafbd61fad9}, {0x3f422725d09bf799, 0x7161d147cd57f361}},
	{{0x3f416a15be9bf9d3, 0x50043e2424e0abd4}, {0x3f416df5c626f2d2, 0xa81be8634dcc2723}},
	{{0x3f418e4ef4b75881, 0xa5f2ff6ebe85aa8f}, {0x3f419535ac008848, 0xfecba07039ea3596}},
	{{0x3f40ac8541ce4a42, 0xd5aa76f1e5bffaec}, {0x3f40b2414e3ecf18, 0x8e7f896e929c000c}},
	{{0x3f416aaf24b9af8c, 0xcd968f1c0e3a611d}, {0x3f4170a2e5698883, 0xc4503c421550c936}},
}

// goldenChurnFaults holds the same at jitter 0.05 under each builtin plan,
// seeds 1..5.
var goldenChurnFaults = []struct {
	plan string
	bits [5]churnBits
}{
	{"stragglers", [5]churnBits{
		{0x3fb6fd75e2046c76, 0xba9e31815bd69bb9},
		{0x3fb6fd75e2046c76, 0xc28509e8e0749cb2},
		{0x3fb6fd75e2046c76, 0xc0671e0c45b9b22b},
		{0x3fb6fd75e2046c76, 0x400dfb927634b239},
		{0x3fb6fd75e2046c76, 0x7eafcd45a73580f7},
	}},
	{"flaps", [5]churnBits{
		{0x3fb9869835158b83, 0x7861a6afe6776403},
		{0x3fb9869835158b83, 0xadf7ec59050a0a57},
		{0x3fb9869835158b83, 0xe0d98f884bcc6527},
		{0x3fb9869835158b83, 0xc0108b09f15d678b},
		{0x3fb9869835158b83, 0xca8f19b9394f95fb},
	}},
	{"drops", [5]churnBits{
		{0x3f59322ed080c771, 0xe99f0d18dd6277e6},
		{0x3f5bb3a57d141d78, 0x3d4b5144d7a7d99d},
		{0x3f5fcb6f1214fc06, 0xb992f775012301ab},
		{0x3f612935446e1a28, 0x1ad4a675122f9cd8},
		{0x3f6df43eda666377, 0x7df426eb6df2e84c},
	}},
	{"combined", [5]churnBits{
		{0x3fb6ee0f3cb3e575, 0x3a30ee9f5cde2218},
		{0x3fb6ee0f3cb3e575, 0xa0599dc35c911512},
		{0x3fb6ee0f3cb3e575, 0x91930ca07d0ce78b},
		{0x3fb6ee0f3cb3e575, 0x51d2707829092efd},
		{0x3fb6ee0f3cb3e575, 0x396d657fbd8174c2},
	}},
}

func TestGoldenChurnBits(t *testing.T) {
	for i, want := range goldenChurn {
		var got [2]churnBits
		for j, jitter := range []float64{0, 0.1} {
			_, got[j] = runP2PChurn(t, int64(i+1), nil, jitter)
		}
		if got != want {
			t.Errorf("seed %d changed bits; row is now\n\t{%s},", i+1, rowList(got[:]))
		}
	}
}

func TestGoldenChurnFaultBits(t *testing.T) {
	for _, row := range goldenChurnFaults {
		plan, err := fault.Builtin(row.plan)
		if err != nil {
			t.Fatal(err)
		}
		var got [5]churnBits
		for i := range got {
			_, got[i] = runP2PChurn(t, int64(i+1), &plan, 0.05)
		}
		if got != row.bits {
			t.Errorf("plan changed bits; row is now\n\t{%q, [5]churnBits{\n\t\t%s}},", row.plan, rowList(got[:]))
		}
	}
}

func rowList(v []churnBits) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("{%#016x, %#016x}", x.end, x.ranks)
	}
	return strings.Join(s, ", ")
}

// crashGolden is what one crash scenario leaves behind: the final clock,
// every failure-detector verdict with the bits of its time, and the two
// counters the crash machinery drives.
type crashGolden struct {
	end         uint64
	reports     string
	retransmits float64
	deadLetters float64
}

func crashOutcome(w *World, end sim.Time) crashGolden {
	var reports []string
	for _, d := range w.DeadReports() {
		reports = append(reports, fmt.Sprintf("%d:%s@%#016x", d.Rank, d.Via, math.Float64bits(float64(d.At))))
	}
	return crashGolden{
		end:         math.Float64bits(float64(end)),
		reports:     strings.Join(reports, " "),
		retransmits: w.m.retransmits.Value(),
		deadLetters: w.m.deadLetters.Value(),
	}
}

// crashMidBurst is the one scenario here that crash_test.go does not assert
// on: every survivor keeps three sends in flight at rank 5 (two eager, one
// rendezvous) over a lossy, jittered fabric until rank 5 dies mid-burst and
// the sends start failing, then the survivors meet in a barrier on the
// shrunk communicator. Retransmits of one message queue behind later
// messages of the same pair, drops and crash losses mix on one wire, and
// the watch registry fails requests whose payload is still in flight.
func crashMidBurst(t *testing.T, seed int64) (*World, sim.Time) {
	t.Helper()
	plan := fault.Plan{
		Drops:   fault.DropSpec{Prob: 0.2},
		Crashes: []fault.CrashSpec{{Rank: 5, At: 150e-6}},
	}
	return runCrash(t, cluster.Mini(3, 4), seed, plan, func(p *Proc) {
		c, pers := p.W.World(), p.W.Pers
		if p.Rank == 5 {
			for { // until killed
				c.Recv(p, Phantom(2*pers.EagerThreshold), AnySource, AnyTag)
			}
		}
		for failed := false; !failed; {
			reqs := []*Request{
				c.Isend(p, Phantom(64), 5, 1),
				c.Isend(p, Phantom(2*pers.EagerThreshold), 5, 2),
				c.Isend(p, Phantom(pers.EagerThreshold), 5, 3),
			}
			p.Wait(reqs...)
			for _, r := range reqs {
				failed = failed || r.Err() != nil
			}
		}
		p.W.Shrink().Barrier(p)
	}, func(w *World) { w.Pers.Jitter = 0.05 })
}

// goldenCrash pins the crash_test.go scenarios and crashMidBurst, seeds 1..3.
// The crash_test.go plans carry no drop probability and the personality no
// jitter, so there the three seeds agree; a seed that starts to matter shows
// up as a failing row.
var goldenCrash = []struct {
	name string
	run  func(t *testing.T, seed int64) (*World, sim.Time)
	want [3]crashGolden
}{
	{"RetransmitEscalation", func(t *testing.T, seed int64) (*World, sim.Time) {
		w, end, _ := retransmitEscalation(t, seed)
		return w, end
	}, [3]crashGolden{
		{0x3f939c80d4a6b5e2, "3:retransmit@0x3f939c80d4a6b5e2", 7, 1},
		{0x3f939c80d4a6b5e2, "3:retransmit@0x3f939c80d4a6b5e2", 7, 1},
		{0x3f939c80d4a6b5e2, "3:retransmit@0x3f939c80d4a6b5e2", 7, 1},
	}},
	{"HeartbeatDeclares", func(t *testing.T, seed int64) (*World, sim.Time) {
		w, end, _, _ := heartbeatDeclares(t, seed)
		return w, end
	}, [3]crashGolden{
		{0x3f50624dd2f1a9fc, "2:heartbeat@0x3f3a36e2eb1c432d", 0, 0},
		{0x3f50624dd2f1a9fc, "2:heartbeat@0x3f3a36e2eb1c432d", 0, 0},
		{0x3f50624dd2f1a9fc, "2:heartbeat@0x3f3a36e2eb1c432d", 0, 0},
	}},
	{"NodeCrashTeardown", func(t *testing.T, seed int64) (*World, sim.Time) {
		w, end, _ := nodeCrashTeardown(t, seed)
		return w, end
	}, [3]crashGolden{
		{0x3f50624dd2f1a9fc, "4:heartbeat@0x3f3a36e2eb1c432d 5:heartbeat@0x3f3a36e2eb1c432d 6:heartbeat@0x3f3a36e2eb1c432d 7:heartbeat@0x3f3a36e2eb1c432d", 0, 2},
		{0x3f50624dd2f1a9fc, "4:heartbeat@0x3f3a36e2eb1c432d 5:heartbeat@0x3f3a36e2eb1c432d 6:heartbeat@0x3f3a36e2eb1c432d 7:heartbeat@0x3f3a36e2eb1c432d", 0, 2},
		{0x3f50624dd2f1a9fc, "4:heartbeat@0x3f3a36e2eb1c432d 5:heartbeat@0x3f3a36e2eb1c432d 6:heartbeat@0x3f3a36e2eb1c432d 7:heartbeat@0x3f3a36e2eb1c432d", 0, 2},
	}},
	{"CrashReplay", crashReplay, [3]crashGolden{
		{0x3f5089be93876a28, "4:heartbeat@0x3f3a36e2eb1c432d 5:heartbeat@0x3f3a36e2eb1c432d 6:heartbeat@0x3f3a36e2eb1c432d 7:heartbeat@0x3f3a36e2eb1c432d", 0, 0},
		{0x3f5089be93876a28, "4:heartbeat@0x3f3a36e2eb1c432d 5:heartbeat@0x3f3a36e2eb1c432d 6:heartbeat@0x3f3a36e2eb1c432d 7:heartbeat@0x3f3a36e2eb1c432d", 0, 0},
		{0x3f5089be93876a28, "4:heartbeat@0x3f3a36e2eb1c432d 5:heartbeat@0x3f3a36e2eb1c432d 6:heartbeat@0x3f3a36e2eb1c432d 7:heartbeat@0x3f3a36e2eb1c432d", 0, 0},
	}},
	{"CrashMidBurst", crashMidBurst, [3]crashGolden{
		{0x3f4de6cc13443838, "5:heartbeat@0x3f40624dd2f1a9fc", 25, 3},
		{0x3f5231a2e643aee9, "5:heartbeat@0x3f40624dd2f1a9fc", 27, 3},
		{0x3f508e34e9b51dca, "5:heartbeat@0x3f40624dd2f1a9fc", 29, 3},
	}},
}

func TestGoldenCrashScenarios(t *testing.T) {
	for _, row := range goldenCrash {
		for i, want := range row.want {
			if got := crashOutcome(row.run(t, int64(i+1))); got != want {
				t.Errorf("%s seed %d: outcome is now\n\t{%#016x, %q, %v, %v},",
					row.name, i+1, got.end, got.reports, got.retransmits, got.deadLetters)
			}
		}
	}
}

// crashWithHelpers kills a node whose first rank holds five processes at
// once — its main process parked in a receive, two step helpers parked in
// receives of their own, a goroutine helper parked in one, and a step helper
// asleep across the crash — and whose second rank holds two, spawned in
// between the first rank's. Every one of them records its unwinding in the
// trace, so the trace stream holds the order the crash killed them in: rank
// by rank, and within a rank in the order they were spawned in. The
// survivors' clock holds the rest: rank 0's send to a victim fails at the
// heartbeat verdict, and the survivors meet in a barrier on the shrunk
// communicator.
func crashWithHelpers(t *testing.T, seed int64) (*World, sim.Time) {
	t.Helper()
	unwound := func(p *Proc, name string) {
		p.W.Tracer.Record(trace.Event{T: float64(p.Now()), Rank: p.Rank, Kind: trace.KindNote, Name: name, Peer: trace.NoPeer})
	}
	plan := fault.Plan{Crashes: []fault.CrashSpec{{Rank: 2, Node: true, At: 40e-6}}}
	victim := func(p *Proc) {
		c := p.W.World()
		defer unwound(p, "main")
		helpers := make([]stuckHelper, 3)
		spawn := func(i int, name string, tag int, sleep sim.Time) {
			helpers[i] = stuckHelper{c: c, tag: tag, sleep: sleep, unwound: unwound}
			p.SpawnSteps(&helpers[i].hp, name, &helpers[i])
		}
		if p.Rank == 3 {
			p.Sim.Sleep(1e-6) // between rank 2's first helper and its second
			spawn(0, "stuck", 5, 0)
			c.Recv(p, Phantom(8), 0, 6) // until killed
			return
		}
		spawn(0, "stuck", 1, 0)
		p.Sim.Sleep(2e-6)
		spawn(1, "stuck", 2, 0)
		spawnGoroutine(p, "goroutine", func(hp *Proc) {
			defer unwound(hp, "goroutine")
			c.Recv(hp, Phantom(8), 0, 3)
		})
		spawn(2, "asleep", 0, 100e-6)
		p.Sim.Sleep(10e-6) // the helpers park first
		c.Recv(p, Phantom(8), 0, 4)
	}
	return runCrash(t, cluster.Mini(2, 2), seed, plan, func(p *Proc) {
		if p.Rank >= 2 {
			victim(p)
			return
		}
		p.Sim.Sleep(60e-6)
		if p.Rank == 0 {
			req := p.W.World().Isend(p, Phantom(64), 2, 9)
			p.Wait(req)
			if req.Err() == nil {
				t.Error("send to the crashed rank succeeded")
			}
		} else {
			p.Sim.Sleep(1e-3) // past the verdict
		}
		p.W.Shrink().Barrier(p)
	}, func(w *World) { w.Tracer = trace.New() })
}

// stuckHelper is a step helper that receives a message nobody sends, or
// sleeps, and notes its unwinding.
type stuckHelper struct {
	hp      Proc
	c       *Comm
	tag     int
	sleep   sim.Time
	reqs    [1]*Request
	unwound func(p *Proc, name string)
}

func (h *stuckHelper) Step(sp *sim.Proc) bool {
	if h.sleep > 0 {
		sp.StepSleep(h.sleep)
		h.sleep = 0
		return false
	}
	if h.reqs[0] != nil || h.tag == 0 {
		return true
	}
	h.reqs[0] = h.c.Irecv(&h.hp, Phantom(8), 0, h.tag)
	h.hp.Arm(h.reqs[:])
	return !sp.StepWait()
}

func (h *stuckHelper) Unwind(*sim.Proc) {
	h.unwound(&h.hp, fmt.Sprintf("%s.%d", h.hp.helper, h.tag))
}

// goldenCrashWithHelpers pins crashWithHelpers, seeds 1..3: the final clock,
// the verdicts, and the FNV-1a hash of the trace stream.
var goldenCrashWithHelpers = [3]struct {
	out   crashGolden
	trace uint64
}{
	{crashGolden{0x3f5165eebdbd2281, "2:heartbeat@0x3f3a36e2eb1c432d 3:heartbeat@0x3f3a36e2eb1c432d", 2, 1}, 0x8a1de5eae348b38b},
	{crashGolden{0x3f5165eebdbd2281, "2:heartbeat@0x3f3a36e2eb1c432d 3:heartbeat@0x3f3a36e2eb1c432d", 2, 1}, 0x8a1de5eae348b38b},
	{crashGolden{0x3f5165eebdbd2281, "2:heartbeat@0x3f3a36e2eb1c432d 3:heartbeat@0x3f3a36e2eb1c432d", 2, 1}, 0x8a1de5eae348b38b},
}

func TestGoldenCrashKillsHelpersInSpawnOrder(t *testing.T) {
	const wantOrder = "2:main 2:stuck.1 2:stuck.2 2:goroutine 3:main 3:stuck.5 2:asleep.0"
	for i, want := range goldenCrashWithHelpers {
		w, end := crashWithHelpers(t, int64(i+1))
		hash := fnv.New64a()
		var order []string
		for _, ev := range w.Tracer.Events() {
			fmt.Fprintf(hash, "%x %d %s %s %d %d\n", math.Float64bits(ev.T), ev.Rank, ev.Kind, ev.Name, ev.Size, ev.Peer)
			if ev.Kind == trace.KindNote {
				order = append(order, fmt.Sprintf("%d:%s", ev.Rank, ev.Name))
			}
		}
		if got := strings.Join(order, " "); got != wantOrder {
			t.Errorf("seed %d: unwound in the order %q, want %q", i+1, got, wantOrder)
		}
		if out := crashOutcome(w, end); out != want.out || hash.Sum64() != want.trace {
			t.Errorf("seed %d: outcome is now\n\t{crashGolden{%#016x, %q, %v, %v}, %#016x},",
				i+1, out.end, out.reports, out.retransmits, out.deadLetters, hash.Sum64())
		}
	}
}
