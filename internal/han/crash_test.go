package han

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// This file is the crash-recovery suite: ranks die permanently mid-run and
// the survivors must either complete on the shrunk communicator (OnFailure:
// Shrink) with bit-correct payloads, or fail fast with a *RankFailedError
// naming the dead (OnFailure: Abort) — deterministically in both cases.

// settleTime is long enough for every timed crash in the suite (at 50µs)
// to pass detection: crash + suspicion (300µs) quantized to the 100µs
// heartbeat sweep lands at 400µs.
const settleTime = 1e-3

// runCrashHAN builds a world on spec, attaches plan, sets the failure
// policy, runs fn on every rank, and returns the HAN instance, finish
// time, and the engine verdict.
func runCrashHAN(t *testing.T, spec cluster.Spec, seed int64, plan fault.Plan, policy FailPolicy, fn func(h *HAN, p *mpi.Proc)) (*HAN, sim.Time, error) {
	t.Helper()
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	w.Seed(seed)
	w.EnableMetrics(metrics.New())
	w.AttachFaults(plan)
	h := New(w)
	h.OnFailure = policy
	w.Start(func(p *mpi.Proc) { fn(h, p) })
	err := eng.Run()
	return h, eng.Now(), err
}

func nodeCrashPlan() fault.Plan {
	// Rank 4 is node 1's leader on Mini(3,4); Node takes ranks 4..7 with it.
	return fault.Plan{Crashes: []fault.CrashSpec{{Rank: 4, Node: true, At: 50e-6}}}
}

// Under Shrink, a broadcast entered after a whole node (leader included)
// died completes hierarchically on the survivors with correct payloads.
func TestShrinkBcastCompletesOnSurvivors(t *testing.T) {
	spec := cluster.Mini(3, 4)
	n := 4 << 10
	want := pattern(n, 9)
	got := make([][]byte, spec.Ranks())
	noted := make([]error, spec.Ranks())
	h, _, err := runCrashHAN(t, spec, 1, nodeCrashPlan(), Shrink, func(h *HAN, p *mpi.Proc) {
		p.Sim.Sleep(settleTime)
		buf := make([]byte, n)
		if p.Rank == 0 {
			copy(buf, want)
		}
		noted[p.Rank] = h.Bcast(p, mpi.Bytes(buf), 0, Config{FS: 1 << 10})
		got[p.Rank] = buf
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < spec.Ranks(); r++ {
		if r >= 4 && r <= 7 {
			if got[r] != nil {
				t.Errorf("dead rank %d executed the collective", r)
			}
			continue
		}
		var fb *FallbackError
		if !errors.As(noted[r], &fb) {
			t.Errorf("rank %d: Bcast returned %v, want a shrink note", r, noted[r])
			continue
		}
		if !strings.Contains(fb.To, "shrunk communicator (8 survivors)") {
			t.Errorf("rank %d: degraded to %q, want the 8-survivor comm", r, fb.To)
		}
		if fb.Cause != nil {
			t.Errorf("rank %d: shrunk run itself degraded: %v (want hierarchical)", r, fb.Cause)
		}
		if !bytes.Equal(got[r], want) {
			t.Errorf("rank %d: Bcast payload wrong after shrink", r)
		}
	}
	if v := h.W.Metrics().Counter(metrics.Opts{
		Name: "han_recovery", Help: "Crash-recovery actions at collective boundaries, by action.",
		Labels: map[string]string{"action": "shrink"},
	}).Value(); v != 8 {
		t.Errorf("han_recovery{action=shrink} = %v, want 8 (one per survivor)", v)
	}
}

// A single dead rank leaves its node with fewer members than the others;
// the relaxed hierarchy must still run, with the node's first surviving
// member promoted to group leader.
func TestShrinkReelectsNodeLeader(t *testing.T) {
	spec := cluster.Mini(3, 4)
	plan := fault.Plan{Crashes: []fault.CrashSpec{{Rank: 4, At: 50e-6}}} // node 1's leader
	n := 2 << 10
	want := pattern(n, 3)
	got := make([][]byte, spec.Ranks())
	h, _, err := runCrashHAN(t, spec, 1, plan, Shrink, func(h *HAN, p *mpi.Proc) {
		p.Sim.Sleep(settleTime)
		buf := make([]byte, n)
		if p.Rank == 0 {
			copy(buf, want)
		}
		ferr := h.Bcast(p, mpi.Bytes(buf), 0, Config{})
		var fb *FallbackError
		if !errors.As(ferr, &fb) {
			t.Errorf("rank %d: Bcast returned %v, want a shrink note", p.Rank, ferr)
		} else if fb.Cause != nil {
			t.Errorf("rank %d: want hierarchical recovery (re-elected leader), got inner degradation %v", p.Rank, fb.Cause)
		}
		got[p.Rank] = buf
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < spec.Ranks(); r++ {
		if r == 4 {
			continue
		}
		if !bytes.Equal(got[r], want) {
			t.Errorf("rank %d: payload wrong after leader re-election", r)
		}
	}
	if v := h.W.Metrics().Counter(metrics.Opts{
		Name: "han_recovery", Help: "Crash-recovery actions at collective boundaries, by action.",
		Labels: map[string]string{"action": "reelect"},
	}).Value(); v != 11 {
		t.Errorf("han_recovery{action=reelect} = %v, want 11 (one per survivor: one node re-elected)", v)
	}
}

// Under Shrink, an allreduce entered after a node died sums over exactly
// the survivor contributions on every survivor.
func TestShrinkAllreduceCompletesOnSurvivors(t *testing.T) {
	spec := cluster.Mini(3, 4)
	elems := 128
	got := make([][]float64, spec.Ranks())
	_, _, err := runCrashHAN(t, spec, 1, nodeCrashPlan(), Shrink, func(h *HAN, p *mpi.Proc) {
		p.Sim.Sleep(settleTime)
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = float64(p.Rank + i)
		}
		sbuf := mpi.Bytes(mpi.EncodeFloat64s(vals))
		rbuf := mpi.Bytes(make([]byte, sbuf.N))
		ferr := h.Allreduce(p, sbuf, rbuf, mpi.OpSum, mpi.Float64, Config{})
		var fb *FallbackError
		if !errors.As(ferr, &fb) {
			t.Errorf("rank %d: Allreduce returned %v, want a shrink note", p.Rank, ferr)
		}
		got[p.Rank] = mpi.DecodeFloat64s(rbuf.B)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Survivors: 0..3 and 8..11; sum of ranks = 44, 8 contributors.
	for r := 0; r < spec.Ranks(); r++ {
		if r >= 4 && r <= 7 {
			continue
		}
		for i, v := range got[r] {
			if want := 44 + 8*float64(i); v != want {
				t.Errorf("rank %d: Allreduce elem %d = %v, want %v", r, i, v, want)
				break
			}
		}
	}
}

// Under Abort (the default), collectives entered after a death fail fast
// with a *RankFailedError naming every dead rank and its detection path.
func TestAbortReturnsRankFailedError(t *testing.T) {
	spec := cluster.Mini(3, 4)
	fails := make([]error, spec.Ranks())
	_, _, err := runCrashHAN(t, spec, 1, nodeCrashPlan(), Abort, func(h *HAN, p *mpi.Proc) {
		p.Sim.Sleep(settleTime)
		buf := make([]byte, 1<<10)
		fails[p.Rank] = h.Bcast(p, mpi.Bytes(buf), 0, Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < spec.Ranks(); r++ {
		if r >= 4 && r <= 7 {
			continue
		}
		var rf *RankFailedError
		if !errors.As(fails[r], &rf) {
			t.Errorf("rank %d: Bcast returned %v, want *RankFailedError", r, fails[r])
			continue
		}
		if len(rf.Ranks) != 4 || rf.Ranks[0] != 4 || rf.Ranks[3] != 7 {
			t.Errorf("rank %d: failed ranks = %v, want [4 5 6 7]", r, rf.Ranks)
		}
		for i, via := range rf.Via {
			if via != "heartbeat" {
				t.Errorf("rank %d: via[%d] = %q, want heartbeat", r, i, via)
			}
		}
		if !strings.Contains(fails[r].Error(), "rank 4 (via heartbeat)") {
			t.Errorf("rank %d: error %q does not name rank 4's verdict", r, fails[r])
		}
	}
}

// A dead broadcast root cannot be shrunk around: the survivors get a
// *RankFailedError instead of a silent wrong answer.
func TestShrinkDeadRootFails(t *testing.T) {
	spec := cluster.Mini(3, 4)
	plan := fault.Plan{Crashes: []fault.CrashSpec{{Rank: 5, At: 50e-6}}}
	fails := make([]error, spec.Ranks())
	_, _, err := runCrashHAN(t, spec, 1, plan, Shrink, func(h *HAN, p *mpi.Proc) {
		p.Sim.Sleep(settleTime)
		buf := make([]byte, 1<<10)
		fails[p.Rank] = h.Bcast(p, mpi.Bytes(buf), 5, Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < spec.Ranks(); r++ {
		if r == 5 {
			continue
		}
		var rf *RankFailedError
		if !errors.As(fails[r], &rf) {
			t.Errorf("rank %d: Bcast from dead root returned %v, want *RankFailedError", r, fails[r])
		}
	}
}

// A crash-on-Nth-collective trigger with detection disabled wedges the
// collective; the progress watchdog's report must name the dead rank, not
// just the parked survivors (the park-site golden test of the issue).
func TestWatchdogNamesDeadRankUnderCrashPlan(t *testing.T) {
	spec := cluster.Mini(3, 4)
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), mpi.OpenMPI())
	w.Seed(1)
	w.AttachFaults(fault.Plan{Crashes: []fault.CrashSpec{{Rank: 2, AfterColl: 2}}})
	w.SetFailureDetection(0, 0) // nobody declares: the second Bcast wedges
	w.SetCollTimeout(2e-3)
	h := New(w)
	n := 1 << 10
	w.Start(func(p *mpi.Proc) {
		buf := make([]byte, n)
		if p.Rank == 0 {
			copy(buf, pattern(n, 1))
		}
		h.Bcast(p, mpi.Bytes(buf), 0, Config{}) // all alive: completes
		// Rank 2 dies entering its second collective. It is the root, so
		// the root-feed receive parks its node leader forever and the whole
		// broadcast wedges with no traffic addressed at the victim.
		h.Bcast(p, mpi.Bytes(buf), 2, Config{})
	})
	err := eng.Run()
	var timeout *mpi.CollTimeoutError
	if !errors.As(err, &timeout) {
		t.Fatalf("run returned %v, want *CollTimeoutError", err)
	}
	if len(timeout.Dead) != 1 || timeout.Dead[0].Rank != 2 || timeout.Dead[0].Via != "crashed" {
		t.Fatalf("watchdog Dead = %v, want rank 2 via crashed", timeout.Dead)
	}
	if !strings.Contains(err.Error(), "dead: rank 2") {
		t.Errorf("report %q does not name the dead rank", err)
	}
	if len(timeout.Blocked) == 0 {
		t.Errorf("report lists no parked survivors")
	}
}

// The same (seed, plan) must replay byte-identically: two shrink-recovery
// runs finish at the exact same simulated time.
func TestCrashRecoveryReplayIdentical(t *testing.T) {
	body := func(h *HAN, p *mpi.Proc) {
		p.Sim.Sleep(settleTime)
		buf := make([]byte, 4<<10)
		if p.Rank == 0 {
			copy(buf, pattern(4<<10, 5))
		}
		h.Bcast(p, mpi.Bytes(buf), 0, Config{FS: 1 << 10})
		sbuf := mpi.Bytes(mpi.EncodeFloat64s(make([]float64, 64)))
		rbuf := mpi.Bytes(make([]byte, sbuf.N))
		h.Allreduce(p, sbuf, rbuf, mpi.OpSum, mpi.Float64, Config{})
	}
	_, t1, err1 := runCrashHAN(t, cluster.Mini(3, 4), 42, nodeCrashPlan(), Shrink, body)
	_, t2, err2 := runCrashHAN(t, cluster.Mini(3, 4), 42, nodeCrashPlan(), Shrink, body)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if t1 != t2 {
		t.Errorf("two identical crash runs diverged: %v vs %v", t1, t2)
	}
}

// Every entry point applies the failure policy, not only Bcast/Allreduce
// and their Comm forms: entered after rank 5 died (the crash-rank plan),
// Abort fails each of them fast with a *RankFailedError naming it, and
// Shrink completes each on the 11 survivors with a note — except Reduce,
// which has no survivor form and fails under either policy.
func TestEveryEntryPointAppliesFailurePolicy(t *testing.T) {
	plan, err := fault.Builtin("crash-rank")
	if err != nil {
		t.Fatal(err)
	}
	spec := numaSpec(3, 4) // the LevelsSocket rows run three levels here
	for _, policy := range []FailPolicy{Abort, Shrink} {
		for _, ep := range entryPoints {
			t.Run(policy.String()+"/"+ep.name, func(t *testing.T) {
				got := make([]error, spec.Ranks())
				_, _, err := runCrashHAN(t, spec, 1, plan, policy, func(h *HAN, p *mpi.Proc) {
					p.Sim.Sleep(settleTime)
					got[p.Rank] = ep.call(h, p, 4<<10, 0)
				})
				if err != nil {
					t.Fatal(err)
				}
				for r, e := range got {
					if r == 5 {
						continue
					}
					var rf *RankFailedError
					var fb *FallbackError
					switch {
					case policy == Abort || !survives(ep.name):
						if !errors.As(e, &rf) || len(rf.Ranks) != 1 || rf.Ranks[0] != 5 {
							t.Errorf("rank %d: %v, want *RankFailedError naming rank 5", r, e)
						}
					case !errors.As(e, &fb):
						t.Errorf("rank %d: %v, want a shrink note", r, e)
					}
				}
			})
		}
	}
}

// A rank dying while a collective runs voids its result: the exit half of
// the policy turns the return of every survivor still inside when the
// death is declared into a *RankFailedError (a rank whose part ended
// earlier — a Reduce contributor — has legitimately returned nil by
// then). Reduce and Bcast3 used to return nil to everyone, and so did
// Gather.
func TestMidCollectiveDeathFailsReduceAndBcast3(t *testing.T) {
	plan, err := fault.Builtin("crash-rank") // rank 5 dies at 50µs
	if err != nil {
		t.Fatal(err)
	}
	spec := numaSpec(3, 4)
	const n = 4 << 20 // milliseconds of pipeline: the death lands inside
	for _, ep := range entryPoints {
		if ep.name != "Reduce" && ep.name != "Bcast3" && ep.name != "Gather" {
			continue
		}
		t.Run(ep.name, func(t *testing.T) {
			got := make([]error, spec.Ranks())
			epochAtReturn := make([]int, spec.Ranks())
			_, _, err := runCrashHAN(t, spec, 1, plan, Abort, func(h *HAN, p *mpi.Proc) {
				got[p.Rank] = ep.call(h, p, n, 0)
				epochAtReturn[p.Rank] = h.W.DeathEpoch()
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, e := range got {
				var rf *RankFailedError
				if r != 5 && epochAtReturn[r] > 0 && !errors.As(e, &rf) {
					t.Errorf("rank %d returned %v after the death was declared, want *RankFailedError", r, e)
				}
			}
			if epochAtReturn[0] == 0 {
				t.Error("the root returned before the death was declared: the test does not reach the exit check")
			}
		})
	}
}

// A rank killed while it has lent its process to the pipeline's step loop —
// parked inside a collective, the engine issuing its tasks — unwinds on its
// own stack: what it deferred runs, once, and nothing past the collective
// does. The survivors come out with the death reported.
func TestKillRankInsidePipelineUnwindsOnItsStack(t *testing.T) {
	spec := cluster.Mini(2, 2)
	plan := fault.Plan{Crashes: []fault.CrashSpec{{Rank: 3, At: 50e-6}}}
	unwound, past := 0, 0
	got := make([]error, spec.Ranks())
	_, _, err := runCrashHAN(t, spec, 1, plan, Abort, func(h *HAN, p *mpi.Proc) {
		if p.Rank == 3 {
			defer func() { unwound++ }()
		}
		// Milliseconds of pipeline: the death lands inside.
		got[p.Rank] = h.Bcast(p, mpi.Phantom(4<<20), 0, Config{FS: 256 << 10})
		if p.Rank == 3 {
			past++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if unwound != 1 || past != 0 {
		t.Errorf("victim unwound %d times and ran past the collective %d times, want 1 and 0", unwound, past)
	}
	for r, e := range got[:3] {
		var rf *RankFailedError
		if !errors.As(e, &rf) {
			t.Errorf("rank %d returned %v, want *RankFailedError", r, e)
		}
	}
}

// TestCrashMatrix is the CI entry point for the crash suite: HAN_CRASH_PLAN
// and HAN_FAULT_SEED select one cell. Each cell completes a shrink-recovery
// collective pair on the survivors and checks (seed, plan) determinism.
func TestCrashMatrix(t *testing.T) {
	name := os.Getenv("HAN_CRASH_PLAN")
	if name == "" {
		name = "crash-node"
	}
	seed := int64(1)
	if s := os.Getenv("HAN_FAULT_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad HAN_FAULT_SEED %q: %v", s, err)
		}
		seed = v
	}
	plan, err := fault.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.HasCrashes() {
		t.Skipf("plan %s has no crashes: covered by TestFaultMatrix", name)
	}
	body := func(h *HAN, p *mpi.Proc) {
		p.Sim.Sleep(settleTime)
		if p.Sim.Dying() {
			p.Sim.Exit() // AfterColl victims die inside the first collective
		}
		n := 2 << 10
		buf := make([]byte, n)
		if p.Rank == 0 {
			copy(buf, pattern(n, 7))
		}
		if err := h.Bcast(p, mpi.Bytes(buf), 0, Config{FS: 1 << 10}); err != nil {
			var fb *FallbackError
			var rf *RankFailedError
			if !errors.As(err, &fb) && !errors.As(err, &rf) {
				t.Errorf("rank %d: Bcast: %v", p.Rank, err)
			}
			if errors.As(err, &rf) {
				return // mid-collective death: result suspect, reissue next cell
			}
		}
		if !bytes.Equal(buf, pattern(n, 7)) {
			t.Errorf("rank %d: Bcast payload wrong under plan %s", p.Rank, name)
		}
	}
	_, a, errA := runCrashHAN(t, cluster.Mini(3, 4), seed, plan, Shrink, body)
	_, b, errB := runCrashHAN(t, cluster.Mini(3, 4), seed, plan, Shrink, body)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a != b {
		t.Errorf("plan %s seed %d: two identical runs diverged: %v vs %v", name, seed, a, b)
	}
}
