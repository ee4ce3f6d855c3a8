package mpi

import (
	"bytes"
	"errors"
	"testing"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/sim"
)

// runCrash builds a world on spec, attaches plan, applies any setup to the
// world, runs fn on every rank, and returns the world plus the finish time.
// Metrics are on (observation-only) so golden_test.go can read the
// retransmit and dead-letter counts off the returned world.
func runCrash(t *testing.T, spec cluster.Spec, seed int64, plan fault.Plan, fn func(p *Proc), setup ...func(*World)) (*World, sim.Time) {
	t.Helper()
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, spec), OpenMPI())
	w.Seed(seed)
	w.EnableMetrics(metrics.New())
	w.AttachFaults(plan)
	for _, f := range setup {
		f(w)
	}
	w.Start(fn)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return w, eng.Now()
}

func crashAt(rank int, at float64) fault.Plan {
	return fault.Plan{Crashes: []fault.CrashSpec{{Rank: rank, At: at}}}
}

func retransmitEscalation(t *testing.T, seed int64) (w *World, end sim.Time, sendErr error) {
	w, end = runCrash(t, cluster.Mini(2, 2), seed, crashAt(3, 20e-6), func(p *Proc) {
		if p.Rank != 0 {
			return
		}
		c := p.W.World()
		p.Sim.Sleep(50e-6) // let the crash land first
		req := c.Isend(p, Bytes(pattern(256, 0)), 3, 9)
		p.Wait(req)
		sendErr = req.Err()
	}, func(w *World) {
		w.SetFailureDetection(0, 0) // retransmit is the only detection path
	})
	return w, end, sendErr
}

// With the heartbeat disabled, a sender hammering a crashed peer must
// exhaust its bounded retransmit attempts, fail the send request with a
// *PeerUnreachableError carrying the RTO history, and escalate to a
// peer-dead verdict via the retransmit path.
func TestRetransmitEscalation(t *testing.T) {
	w, _, sendErr := retransmitEscalation(t, 1)
	var unreachable *PeerUnreachableError
	if !errors.As(sendErr, &unreachable) {
		t.Fatalf("send to crashed rank returned %v, want *PeerUnreachableError", sendErr)
	}
	if unreachable.Rank != 3 {
		t.Errorf("unreachable rank = %d, want 3", unreachable.Rank)
	}
	if unreachable.Attempts != DefaultMaxSendAttempts {
		t.Errorf("attempts = %d, want %d", unreachable.Attempts, DefaultMaxSendAttempts)
	}
	if len(unreachable.RTOs) != unreachable.Attempts {
		t.Errorf("rto history has %d entries for %d attempts", len(unreachable.RTOs), unreachable.Attempts)
	}
	if got := w.DeadRanks(); len(got) != 1 || got[0] != 3 {
		t.Errorf("DeadRanks = %v, want [3]", got)
	}
	if reports := w.DeadReports(); len(reports) != 1 || reports[0].Via != "retransmit" {
		t.Errorf("DeadReports = %v, want one retransmit verdict", reports)
	}
}

func heartbeatDeclares(t *testing.T, seed int64) (w *World, end sim.Time, epochAtWake int, deadAtWake []int) {
	w, end = runCrash(t, cluster.Mini(2, 2), seed, crashAt(2, 50e-6), func(p *Proc) {
		if p.Rank != 0 {
			return
		}
		p.Sim.Sleep(1e-3) // well past crash + suspicion + sweep quantum
		epochAtWake = p.W.DeathEpoch()
		deadAtWake = p.W.DeadRanks()
	})
	return w, end, epochAtWake, deadAtWake
}

// The heartbeat path declares a crashed rank dead at the first sweep tick
// after the suspicion interval — deterministically, with no sender traffic
// involved.
func TestHeartbeatDeclares(t *testing.T) {
	w, _, epochAtWake, deadAtWake := heartbeatDeclares(t, 1)
	if epochAtWake != 1 {
		t.Errorf("death epoch = %d, want 1", epochAtWake)
	}
	if len(deadAtWake) != 1 || deadAtWake[0] != 2 {
		t.Errorf("DeadRanks = %v, want [2]", deadAtWake)
	}
	reports := w.DeadReports()
	if len(reports) != 1 || reports[0].Via != "heartbeat" {
		t.Fatalf("DeadReports = %v, want one heartbeat verdict", reports)
	}
	// Declaration lands on the first heartbeat tick >= crash + suspicion:
	// crash at 50µs, suspicion 300µs, period 100µs -> t = 400µs exactly.
	want := sim.Time(4 * DefaultHeartbeatPeriod)
	if reports[0].At != want {
		t.Errorf("declaration at %v, want %v", reports[0].At, want)
	}
}

func nodeCrashTeardown(t *testing.T, seed int64) (w *World, end sim.Time, errs [2]error) {
	spec := cluster.Mini(3, 4) // ranks 4..7 = node 1
	plan := fault.Plan{Crashes: []fault.CrashSpec{{Rank: 5, Node: true, At: 30e-6}}}
	w, end = runCrash(t, spec, seed, plan, func(p *Proc) {
		if p.Rank != 0 {
			return
		}
		c := p.W.World()
		p.Sim.Sleep(1e-3) // past the heartbeat declaration
		for i, dst := range []int{4, 7} {
			req := c.Isend(p, Bytes(pattern(64, byte(i))), dst, i)
			p.Wait(req)
			errs[i] = req.Err()
		}
	})
	return w, end, errs
}

// A whole-node crash takes down every rank of the node; sends addressed at
// any of them fast-fail with *PeerDeadError once the batch is declared.
func TestNodeCrashTeardown(t *testing.T) {
	w, _, errs := nodeCrashTeardown(t, 1)
	if got := w.DeadRanks(); len(got) != 4 || got[0] != 4 || got[3] != 7 {
		t.Fatalf("DeadRanks = %v, want [4 5 6 7]", got)
	}
	for i, err := range errs {
		var dead *PeerDeadError
		if !errors.As(err, &dead) {
			t.Errorf("send %d returned %v, want *PeerDeadError", i, err)
			continue
		}
		if dead.Via != "heartbeat" {
			t.Errorf("send %d declared via %q, want heartbeat", i, dead.Via)
		}
	}
}

// A receive posted against a rank that later dies must fail with
// *PeerDeadError at declaration time, and a receive posted after the
// declaration must fast-fail immediately.
func TestRecvFailsOnDeadPeer(t *testing.T) {
	var preErr, postErr error
	runCrash(t, cluster.Mini(2, 2), 1, crashAt(1, 50e-6), func(p *Proc) {
		if p.Rank != 0 {
			return
		}
		c := p.W.World()
		buf := make([]byte, 64)
		pre := c.Irecv(p, Bytes(buf), 1, 3) // posted before the crash
		p.Wait(pre)
		preErr = pre.Err()
		post := c.Irecv(p, Bytes(buf), 1, 4) // posted after declaration
		p.Wait(post)
		postErr = post.Err()
	})
	var dead *PeerDeadError
	if !errors.As(preErr, &dead) || dead.Rank != 1 {
		t.Errorf("pre-crash recv returned %v, want *PeerDeadError for rank 1", preErr)
	}
	if !errors.As(postErr, &dead) || dead.Rank != 1 {
		t.Errorf("post-declaration recv returned %v, want *PeerDeadError for rank 1", postErr)
	}
}

// Shrink returns the world comm before any declaration, then a dense
// survivor communicator cached per death epoch.
func TestShrinkDense(t *testing.T) {
	var (
		before, after *Comm
		again         *Comm
		world         *Comm
	)
	w, _ := runCrash(t, cluster.Mini(3, 4), 1, crashAt(5, 40e-6), func(p *Proc) {
		if p.Rank != 0 {
			return
		}
		world = p.W.World()
		before = p.W.Shrink()
		p.Sim.Sleep(1e-3)
		after = p.W.Shrink()
		again = p.W.Shrink()
	})
	if before != world {
		t.Errorf("Shrink before any declaration should return the world comm")
	}
	if after == world {
		t.Fatalf("Shrink after a declaration should return a new comm")
	}
	if after != again {
		t.Errorf("Shrink must cache the survivor comm per epoch")
	}
	if after.Size() != 11 {
		t.Fatalf("survivor comm size = %d, want 11", after.Size())
	}
	for i := 0; i < after.Size(); i++ {
		wr := after.WorldRank(i)
		if wr == 5 {
			t.Errorf("dead rank 5 present in survivor comm at %d", i)
		}
		if i > 0 && wr <= after.WorldRank(i-1) {
			t.Errorf("survivor ranks not ascending at %d: %d after %d", i, wr, after.WorldRank(i-1))
		}
	}
	if w.DeathEpoch() != 1 {
		t.Errorf("death epoch = %d, want 1", w.DeathEpoch())
	}
}

// Survivors must be able to run a barrier and exchange payloads on the
// shrunk communicator while the dead rank stays dead.
func TestBarrierAndTrafficOnShrunkComm(t *testing.T) {
	spec := cluster.Mini(3, 4)
	got := make([][]byte, spec.Ranks())
	runCrash(t, spec, 1, crashAt(5, 40e-6), func(p *Proc) {
		p.Sim.Sleep(1e-3) // everyone observes the declaration
		if p.Sim.Dying() {
			p.Sim.Exit()
		}
		c := p.W.Shrink()
		c.Barrier(p)
		me := c.Rank(p)
		if me == 0 {
			for dst := 1; dst < c.Size(); dst++ {
				c.Send(p, Bytes(pattern(128, byte(dst))), dst, 7)
			}
		} else {
			buf := make([]byte, 128)
			c.Recv(p, Bytes(buf), 0, 7)
			got[p.Rank] = buf
		}
	})
	for r := 0; r < spec.Ranks(); r++ {
		if r == 0 || r == 5 {
			continue
		}
		cr := r
		if r > 5 {
			cr = r - 1
		}
		if !bytes.Equal(got[r], pattern(128, byte(cr))) {
			t.Errorf("rank %d payload corrupted on shrunk comm", r)
		}
	}
}

func crashReplay(t *testing.T, seed int64) (*World, sim.Time) {
	return runCrash(t, cluster.Mini(3, 4), seed,
		fault.Plan{Crashes: []fault.CrashSpec{{Rank: 4, Node: true, At: 50e-6}}},
		func(p *Proc) {
			p.Sim.Sleep(1e-3)
			if p.Sim.Dying() {
				p.Sim.Exit()
			}
			c := p.W.Shrink()
			c.Barrier(p)
		})
}

// Two runs of the same (seed, plan) must finish at the same simulated time
// with the same verdicts — crashes replay byte-identically.
func TestCrashReplayDeterministic(t *testing.T) {
	run := func() (sim.Time, []DeadRank) {
		w, end := crashReplay(t, 42)
		return end, w.DeadReports()
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 {
		t.Errorf("finish times differ: %v vs %v", t1, t2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("verdict counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("verdict %d differs: %v vs %v", i, r1[i], r2[i])
		}
	}
}

// A crash-on-Nth-collective trigger kills the victim as it enters the Nth
// collective; with the watchdog armed, the timeout report names the dead
// rank so the wedge is attributable.
func TestWatchdogReportsDeadRank(t *testing.T) {
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, cluster.Mini(2, 2)), OpenMPI())
	w.Seed(1)
	w.AttachFaults(fault.Plan{Crashes: []fault.CrashSpec{{Rank: 2, AfterColl: 1}}})
	w.SetFailureDetection(0, 0) // nobody declares: the barrier wedges
	w.SetCollTimeout(1e-3)
	w.Start(func(p *Proc) {
		c := p.W.World()
		end := p.W.CollBegin(p.Rank, c, "barrier")
		if p.Sim.Dying() {
			p.Sim.Exit()
		}
		c.Barrier(p)
		end()
	})
	err := eng.Run()
	var timeout *CollTimeoutError
	if !errors.As(err, &timeout) {
		t.Fatalf("run returned %v, want *CollTimeoutError", err)
	}
	if len(timeout.Dead) != 1 || timeout.Dead[0].Rank != 2 || timeout.Dead[0].Via != "crashed" {
		t.Fatalf("watchdog Dead = %v, want rank 2 via crashed", timeout.Dead)
	}
	if !bytes.Contains([]byte(err.Error()), []byte("dead: rank 2")) {
		t.Errorf("report %q does not name the dead rank", err)
	}
}

// Sends already in flight when the receiver crashes (but not yet declared)
// are dropped on the floor as dead letters, not delivered.
func TestDeadLettersDiscarded(t *testing.T) {
	delivered := false
	runCrash(t, cluster.Mini(2, 2), 1, crashAt(3, 1e-6), func(p *Proc) {
		c := p.W.World()
		switch p.Rank {
		case 0:
			// The crash at 1µs lands before the envelope's wire latency
			// elapses: the payload dies in flight.
			req := c.Isend(p, Bytes(pattern(64, 1)), 3, 5)
			_ = req
		case 3:
			buf := make([]byte, 64)
			c.Recv(p, Bytes(buf), 0, 5)
			delivered = true
		}
	})
	if delivered {
		t.Errorf("message delivered to a crashed rank")
	}
}

// A zero-crash plan must not allocate crash state or perturb the run: the
// finish time matches a plan-free run bit for bit.
func TestZeroCrashPlanIdentical(t *testing.T) {
	body := burst(t, 20, 512)
	clean := runFault(t, cluster.Mini(2, 2), 7, nil, body)
	withPlan := runFault(t, cluster.Mini(2, 2), 7, &fault.Plan{}, body)
	if clean != withPlan {
		t.Errorf("empty plan perturbed the run: %v vs %v", clean, withPlan)
	}
}
