package mpi

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// This file implements permanent-failure tolerance: deterministic rank and
// node crashes (fault.CrashSpec), a failure detector, and the ULFM-style
// World.Shrink survivor communicator.
//
// A crash stops a rank's processes forever (sim.Engine.Kill) and tears its
// matching state down; nothing it was asked to send or receive will ever
// progress again. Survivors learn of the death through two detection paths:
//
//   - heartbeat: a background suspicion sweep, modeled as a single
//     scheduled declaration per crash at the first heartbeat tick after the
//     suspicion interval elapses — one event, not a periodic stream, so a
//     drained queue still terminates and zero-crash plans schedule nothing;
//   - retransmit: a sender whose bounded eager retransmit attempts against
//     the victim exhaust escalates to a peer-dead verdict itself
//     (*PeerUnreachableError), covering worlds with the heartbeat disabled.
//
// Declaration fails every watched outstanding request addressed at the
// victim (*PeerDeadError), unlinks the victim's posted receives, and bumps
// the world's death epoch; internal/han consults the epoch at collective
// boundaries to shrink or abort. All of it is gated on w.crash != nil: a
// plan without crashes leaves every hot path bit-identical to main.

// Failure-detection defaults; override the heartbeat with
// SetFailureDetection.
const (
	// DefaultMaxSendAttempts caps eager transmission attempts per message
	// when crashes are armed. It exceeds fault.DefaultMaxPerMsg so drop
	// plans (whose last drop-capped attempt is forced through to a live
	// peer) never trip it.
	DefaultMaxSendAttempts = 8
	// DefaultHeartbeatPeriod is the suspicion sweep tick in seconds.
	DefaultHeartbeatPeriod = 100e-6
	// DefaultSuspicion is how long a silent peer is suspected before being
	// declared dead, in seconds.
	DefaultSuspicion = 300e-6
)

// DeadRank is one failure-detector verdict: which rank died, which
// detection path declared it, and when.
type DeadRank struct {
	Rank int
	Via  string // "heartbeat", "retransmit", or "crashed" (not yet declared)
	At   sim.Time
}

func (d DeadRank) String() string {
	return fmt.Sprintf("rank %d (via %s, t=%v)", d.Rank, d.Via, d.At)
}

// PeerDeadError fails a send or receive addressed at a peer the failure
// detector has already declared dead.
type PeerDeadError struct {
	Rank int    // world rank of the dead peer
	Via  string // detection path that declared it
}

func (e *PeerDeadError) Error() string {
	return fmt.Sprintf("mpi: peer rank %d is dead (declared via %s)", e.Rank, e.Via)
}

// PeerUnreachableError fails an eager send whose bounded retransmit
// attempts all went unacknowledged: the escalation verdict of the
// retransmit detection path. RTOs records the timeout armed after each
// attempt, so the report shows the full backoff history.
type PeerUnreachableError struct {
	Rank     int // world rank of the unreachable peer
	Attempts int
	RTOs     []float64 // seconds; RTOs[k] followed attempt k
}

func (e *PeerUnreachableError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: peer rank %d unreachable after %d attempts (rto:", e.Rank, e.Attempts)
	for _, r := range e.RTOs {
		fmt.Fprintf(&b, " %.0fµs", r*1e6)
	}
	b.WriteString(")")
	return b.String()
}

// watchEntry is one outstanding request addressed at a crash target. For
// posted receives, rr/ep let declaration unlink the receive so a late
// matching message cannot write into a buffer its owner abandoned.
type watchEntry struct {
	req *Request
	rr  *recvReq
	ep  *endpoint
}

// crashState is the per-world failure-tolerance state, allocated only when
// the attached fault plan contains crashes.
type crashState struct {
	crashed   []bool     // rank stopped executing
	crashedAt []sim.Time // valid where crashed
	dead      []bool     // rank declared dead by the detector
	reports   []DeadRank // declared deaths, in declaration order
	epoch     int        // bumps once per declaration

	isTarget []bool         // rank appears in some crash spec: watch traffic to it
	watch    [][]watchEntry // per target rank, registration order
	eps      [][]*endpoint  // per rank, endpoint creation order (maporder-safe teardown)

	collCrash []int  // per rank: crash on entering the Nth collective (0 = none)
	collNode  []bool // per rank: the AfterColl trigger takes the whole node
	collSeen  []int  // per rank: collectives entered so far

	shrunk      *Comm
	shrunkEpoch int
}

// armCrashes wires the injector's crash schedule into the world: timed
// crashes become engine callbacks, crash-on-Nth-collective triggers are
// recorded for CollBegin, and from here on eager sends are retransmitted
// until acknowledged, requests addressed at a crash target are watched, and
// no request is recycled (p2p.go reads all three off w.crash).
func (w *World) armCrashes() {
	n := w.Size()
	cs := &crashState{
		crashed:   make([]bool, n),
		crashedAt: make([]sim.Time, n),
		dead:      make([]bool, n),
		isTarget:  make([]bool, n),
		watch:     make([][]watchEntry, n),
		eps:       make([][]*endpoint, n),
		collCrash: make([]int, n),
		collNode:  make([]bool, n),
		collSeen:  make([]int, n),
	}
	w.crash = cs
	for _, c := range w.faults.Crashes() {
		if c.Rank >= n {
			continue // plan written for a bigger machine; skip like other specs
		}
		for _, r := range w.crashVictims(c.Rank, c.Node) {
			cs.isTarget[r] = true
		}
		if c.AfterColl > 0 {
			if cs.collCrash[c.Rank] == 0 || c.AfterColl < cs.collCrash[c.Rank] {
				cs.collCrash[c.Rank] = c.AfterColl
				cs.collNode[c.Rank] = c.Node
			}
			continue
		}
		spec := c
		w.Eng().At(sim.Time(spec.At), func() { w.crashNow(spec.Rank, spec.Node) })
	}
}

// crashVictims expands one spec into world ranks: the rank itself, or every
// rank of its node for a whole-node crash.
func (w *World) crashVictims(rank int, node bool) []int {
	if !node {
		return []int{rank}
	}
	ppn := w.Mach.Spec.PPN
	lo := w.Mach.NodeOf(rank) * ppn
	out := make([]int, ppn)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// crashNow executes a crash: every victim's processes are killed, its
// matching state is torn down, and one heartbeat declaration is scheduled
// for the batch at the first sweep tick after the suspicion interval.
func (w *World) crashNow(rank int, node bool) {
	cs := w.crash
	eng := w.Eng()
	victims := w.crashVictims(rank, node)
	fresh := victims[:0]
	for _, r := range victims {
		if cs.crashed[r] {
			continue
		}
		cs.crashed[r] = true
		cs.crashedAt[r] = eng.Now()
		w.m.crashesInjected.Inc()
		w.Tracer.Record(trace.Event{
			T: float64(eng.Now()), Rank: r, Kind: trace.KindCrash, Name: "crash", Peer: -1,
		})
		eng.KillTagged(rankTag(r))
		w.clearEndpoints(r)
		fresh = append(fresh, r)
	}
	if len(fresh) == 0 {
		return
	}
	period, suspicion := w.detection()
	if period <= 0 {
		return // heartbeat disabled: only the retransmit path declares
	}
	t := float64(eng.Now()) + suspicion
	q := math.Ceil(t/period) * period
	if q < t {
		q = t
	}
	batch := append([]int(nil), fresh...)
	eng.At(sim.Time(q), func() {
		for _, r := range batch {
			w.declareDead(r, "heartbeat")
		}
	})
}

// clearEndpoints drops a crashed rank's matching state: posted receives
// will never be satisfied and unexpected messages never consumed, so both
// are released (in endpoint creation order — deterministic, no map range).
func (w *World) clearEndpoints(r int) {
	for _, ep := range w.crash.eps[r] {
		ep.posted = w.recvStash.restart(ep.posted, &ep.post1)
		ep.unexpected = w.msgStash.restart(ep.unexpected, &ep.unexp1)
	}
}

// declareDead records the failure detector's verdict on a crashed rank:
// bump the death epoch, fail every watched outstanding request addressed at
// it, and drop dead letters accumulated since the crash. Idempotent per
// rank; only actually-crashed ranks can be declared (the simulation models
// no false positives).
func (w *World) declareDead(r int, via string) {
	cs := w.crash
	if cs.dead[r] || !cs.crashed[r] {
		return
	}
	cs.dead[r] = true
	cs.epoch++
	cs.reports = append(cs.reports, DeadRank{Rank: r, Via: via, At: w.Eng().Now()})
	if via == "heartbeat" {
		w.m.peerDeadHeartbeat.Inc()
	} else {
		w.m.peerDeadRetransmit.Inc()
	}
	entries := cs.watch[r]
	cs.watch[r] = nil
	eng := w.Eng()
	for _, en := range entries {
		if en.req.Test() {
			continue
		}
		if en.rr != nil {
			for i, pr := range en.ep.posted {
				if pr == en.rr {
					en.ep.posted = w.recvStash.remove(en.ep.posted, i, &en.ep.post1)
					break
				}
			}
		}
		en.req.fail(eng, &PeerDeadError{Rank: r, Via: via})
	}
	w.clearEndpoints(r)
}

// deadVia returns the detection path that declared rank r dead.
func (cs *crashState) deadVia(r int) string {
	for _, d := range cs.reports {
		if d.Rank == r {
			return d.Via
		}
	}
	return "unknown"
}

// detection resolves the heartbeat period and suspicion interval, applying
// defaults when SetFailureDetection was never called.
func (w *World) detection() (period, suspicion float64) {
	if !w.hbConfigured {
		return DefaultHeartbeatPeriod, DefaultSuspicion
	}
	return w.hbPeriod, w.hbSuspicion
}

// SetFailureDetection configures the heartbeat sweep: a crashed rank is
// declared dead at the first multiple of period at least suspicion seconds
// after the crash. period <= 0 disables the heartbeat path entirely,
// leaving detection to retransmit escalation. Call before the engine runs.
// No binary changes the defaults: TestWatchdogReportsDeadRank and
// TestWatchdogNamesDeadRankUnderCrashPlan do.
func (w *World) SetFailureDetection(period, suspicion float64) {
	w.hbPeriod, w.hbSuspicion, w.hbConfigured = period, suspicion, true
}

// CrashArmed reports whether the attached fault plan contains crashes.
func (w *World) CrashArmed() bool { return w.crash != nil }

// DeathEpoch counts declared deaths. Layers above poll it at operation
// boundaries: an epoch change between two observations means the survivor
// set changed in between.
func (w *World) DeathEpoch() int {
	if w.crash == nil {
		return 0
	}
	return w.crash.epoch
}

// DeadRanks returns the declared-dead world ranks, ascending. It returns a
// fresh slice; nil when no rank has been declared.
func (w *World) DeadRanks() []int {
	if w.crash == nil || len(w.crash.reports) == 0 {
		return nil
	}
	out := make([]int, len(w.crash.reports))
	for i, d := range w.crash.reports {
		out[i] = d.Rank
	}
	sort.Ints(out)
	return out
}

// DeadReports returns the failure detector's verdicts in declaration
// order, plus trailing "crashed" entries for ranks that stopped but have
// not been declared yet (ascending rank order) — the full picture a
// watchdog or deadlock report needs.
func (w *World) DeadReports() []DeadRank {
	cs := w.crash
	if cs == nil {
		return nil
	}
	out := append([]DeadRank(nil), cs.reports...)
	for r, c := range cs.crashed {
		if c && !cs.dead[r] {
			out = append(out, DeadRank{Rank: r, Via: "crashed", At: cs.crashedAt[r]})
		}
	}
	return out
}

// Shrink returns the dense survivor communicator: every world rank not
// declared dead, in rank order — the ULFM MPI_Comm_shrink analogue. Before
// any declaration it returns the world communicator itself; afterwards the
// communicator is cached per death epoch, so every survivor observing the
// same epoch gets the same (identical, not merely equal) communicator.
func (w *World) Shrink() *Comm {
	cs := w.crash
	if cs == nil || cs.epoch == 0 {
		return w.world
	}
	if cs.shrunk != nil && cs.shrunkEpoch == cs.epoch {
		return cs.shrunk
	}
	ranks := make([]int, 0, w.Size()-len(cs.reports))
	for r := 0; r < w.Size(); r++ {
		if !cs.dead[r] {
			ranks = append(ranks, r)
		}
	}
	cs.shrunk = w.NewComm(ranks)
	cs.shrunkEpoch = cs.epoch
	return cs.shrunk
}
