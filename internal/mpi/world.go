// Package mpi implements a message-passing runtime on the simulated
// cluster: communicators, tag-matched point-to-point messaging with eager
// and rendezvous protocols, non-blocking requests, and reduction operators.
//
// It is the substrate every collective module in this repository is built
// on, playing the role Open MPI's PML/BTL layers play for the real HAN
// component. Each MPI rank executes as a simulated process; transfers charge
// the hardware resources of cluster.Machine, so contention, congestion, and
// imperfect overlap emerge from the model rather than from assumptions.
//
// The runtime is fully observable without being perturbed: World.Tracer
// records send/deliver/drop timelines (package trace), and
// World.EnableMetrics registers message, retransmit, rendezvous-stall,
// and watchdog counters with a metrics.Registry (see
// docs/OBSERVABILITY.md for the catalog). Both are nil-safe and
// observation-only.
package mpi

import (
	"fmt"
	"math/rand"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/metrics"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// World is one MPI job: a machine, a P2P personality, and the matching
// state shared by all communicators.
type World struct {
	Mach *cluster.Machine
	Pers *Personality
	// Tracer, when non-nil, records message and collective timelines
	// (package trace). A nil tracer costs nothing.
	Tracer *trace.Recorder

	nextCtx int
	rng     *rand.Rand

	// P2P state (p2p.go): the per-pair FIFOs by src<<32|dst (never ranged),
	// the rest of the chunk new ones are carved from, and the record pools.
	pairs    map[uint64]*pairState
	pairFree []pairState
	reqPool  *arena.Pool[Request]
	sendPool *arena.Pool[sendOp]
	recvPool *arena.Pool[recvReq]

	// m holds the metric handles installed by EnableMetrics; always
	// non-nil (the zero value's nil handles no-op) so hot paths hook in
	// unconditionally. mreg is the registry they live in, nil when
	// metrics are disabled.
	m    *worldMetrics
	mreg *metrics.Registry

	// faults, when non-nil, injects the attached fault plan. A nil injector
	// (or one with an all-zero plan) leaves every hot path on its original
	// code: no extra events, no RNG draws.
	faults *fault.Injector

	// crash, when non-nil, holds the permanent-failure state (crash.go):
	// the attached plan contains CrashSpecs. Nil leaves every hot path
	// crash-free.
	crash *crashState
	// Failure-detection knobs; zero values mean the crash.go defaults.
	hbPeriod     float64
	hbSuspicion  float64
	hbConfigured bool

	// Progress watchdog state (SetCollTimeout). Zero timeout disables it.
	collTimeout sim.Time
	collWatch   map[collKey]*collWatch
	collInst    map[collInstKey]int

	// comms lists every communicator of the world, in creation order.
	comms      []*Comm
	world      *Comm
	nodeComms  []*Comm
	leaderComm *Comm
	// socketComms ([node*SocketsPerNode+socket]) and socketLeaderComms
	// ([node]) are the levels of a three-level hierarchy, each made on first
	// lookup.
	socketComms       []*Comm
	socketLeaderComms []*Comm
	cachedComms       map[string]*Comm
}

// defaultSeed seeds a new world's noise generator.
const defaultSeed = 1

// NewWorld creates a world for the given machine and library personality.
func NewWorld(m *cluster.Machine, pers *Personality) *World {
	w := &World{
		Mach:        m,
		Pers:        pers,
		cachedComms: make(map[string]*Comm),
		rng:         rand.New(rand.NewSource(defaultSeed)),
		m:           &worldMetrics{},
	}
	w.initPools()
	all := make([]int, m.Spec.Ranks())
	for i := range all {
		all[i] = i
	}
	w.world = w.NewComm(all)
	return w
}

// Eng returns the simulation engine.
func (w *World) Eng() *sim.Engine { return w.Mach.Eng }

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.Mach.Spec.Ranks() }

// World returns the communicator containing every rank.
func (w *World) World() *Comm { return w.world }

// NodeComm returns the intra-node communicator of the given node (what
// MPI_Comm_split_type(MPI_COMM_TYPE_SHARED) produces).
func (w *World) NodeComm(node int) *Comm {
	if w.nodeComms == nil {
		w.nodeComms = make([]*Comm, w.Mach.Spec.Nodes)
		for n := 0; n < w.Mach.Spec.Nodes; n++ {
			ranks := make([]int, w.Mach.Spec.PPN)
			for i := range ranks {
				ranks[i] = n*w.Mach.Spec.PPN + i
			}
			w.nodeComms[n] = w.NewComm(ranks)
		}
	}
	return w.nodeComms[node]
}

// LeaderComm returns the inter-node communicator of node leaders (local
// rank 0 on each node).
func (w *World) LeaderComm() *Comm {
	if w.leaderComm == nil {
		ranks := make([]int, w.Mach.Spec.Nodes)
		for n := range ranks {
			ranks[n] = n * w.Mach.Spec.PPN
		}
		w.leaderComm = w.NewComm(ranks)
	}
	return w.leaderComm
}

// SocketComm returns the communicator of the ranks sharing one socket of
// one node (the innermost level of a three-level hierarchy). On
// single-socket machines it equals the node communicator.
func (w *World) SocketComm(node, socket int) *Comm {
	spec := w.Mach.Spec
	if !spec.MultiSocket() {
		return w.NodeComm(node)
	}
	if w.socketComms == nil {
		w.socketComms = make([]*Comm, spec.Nodes*spec.SocketsPerNode)
	}
	c := &w.socketComms[node*spec.SocketsPerNode+socket]
	if *c == nil {
		per := spec.RanksPerSocket()
		lo := node*spec.PPN + socket*per
		hi := min(lo+per, (node+1)*spec.PPN)
		ranks := make([]int, 0, hi-lo)
		for r := lo; r < hi; r++ {
			ranks = append(ranks, r)
		}
		*c = w.NewComm(ranks)
	}
	return *c
}

// SocketLeaderComm returns the communicator of a node's socket leaders (the
// middle level of a three-level hierarchy). Its rank 0 is the node leader.
func (w *World) SocketLeaderComm(node int) *Comm {
	spec := w.Mach.Spec
	if !spec.MultiSocket() {
		return w.NodeComm(node)
	}
	if w.socketLeaderComms == nil {
		w.socketLeaderComms = make([]*Comm, spec.Nodes)
	}
	c := &w.socketLeaderComms[node]
	if *c == nil {
		per := spec.RanksPerSocket()
		var ranks []int
		for s := 0; s < spec.SocketsPerNode; s++ {
			if r := node*spec.PPN + s*per; r < (node+1)*spec.PPN {
				ranks = append(ranks, r)
			}
		}
		*c = w.NewComm(ranks)
	}
	return *c
}

// Proc is a rank's execution context: a simulated process bound to a world
// rank. Several Procs may act for the same rank at once (the main process
// plus helper processes progressing non-blocking collectives); they share
// the rank's CPU progress resource.
type Proc struct {
	Sim  *sim.Proc
	W    *World
	Rank int // world rank

	// helper is the name a helper process was spawned under; "" on a rank's
	// main process.
	helper string
	// bar is the state of the barrier this process is blocked in, allocated
	// by its first Barrier (or with the ranks, by StartSteps) and reused by
	// the rest: a process runs one blocking call at a time.
	bar *barrierSteps
	// sp is what Sim points to when the process is step-driven (SpawnSteps,
	// StartSteps): the engine runs it in the storage of whoever holds the
	// Proc. A goroutine process's is the engine's own.
	sp sim.Proc
}

// procName composes a process name — "rank3", or "rank3.ib" for a helper —
// when a deadlock, watchdog or panic report asks for it.
type procName Proc

func (n *procName) String() string {
	if n.helper == "" {
		return fmt.Sprintf("rank%d", n.Rank)
	}
	return fmt.Sprintf("rank%d.%s", n.Rank, n.helper)
}

// Now returns the current virtual time.
func (p *Proc) Now() sim.Time { return p.Sim.Now() }

// Node returns the node hosting this rank.
func (p *Proc) Node() int { return p.W.Mach.NodeOf(p.Rank) }

// Wait blocks until all given requests complete. Nil requests are skipped.
// The process parks at most once, whatever the number of requests. While it
// is blocked, its park site is the first labelled request (a send or
// receive) still incomplete, naming the peer, tag, and comm for
// deadlock/watchdog reports.
func (p *Proc) Wait(reqs ...*Request) {
	p.Arm(reqs)
	p.Sim.WaitArmed()
	p.Release(reqs)
}

// Arm and Release are Wait's two halves, for a step-driven routine
// (sim.Stepper) that blocks without a stack to block on: Arm registers the
// process on the requests still incomplete, the routine blocks
// (sim.Proc.StepWait), and once it runs again — right away, if StepWait found
// nothing to wait for — Release retires them as Wait's return does. Nil
// requests are skipped by both.
func (p *Proc) Arm(reqs []*Request) {
	for _, r := range reqs {
		if r != nil {
			p.Sim.Arm(&r.doneSig, &r.site)
		}
	}
}

// Release recycles the pooled requests of a completed wait; the wait-once
// discipline (hanlint reqwait) makes that safe.
func (p *Proc) Release(reqs []*Request) {
	for _, r := range reqs {
		if r != nil {
			p.W.release(r)
		}
	}
}

// SpawnSteps starts a helper process that has no goroutine: the engine
// advances s in place (sim.Stepper), and the process itself lives in hp,
// which becomes the helper's execution context for s to act through. The
// caller owns hp and may recycle it — as it is, not zeroed: it keeps what the
// process grew — once the engine is through with the helper, which it says
// by calling s's Reclaim (sim.Reclaimer); the hp of a killed helper is never
// used again.
func (p *Proc) SpawnSteps(hp *Proc, name string, s sim.Stepper) {
	hp.W, hp.Rank, hp.helper = p.W, p.Rank, name
	hp.spawnStep(s)
}

// spawnStep starts p's step-driven process, in p.
func (p *Proc) spawnStep(s sim.Stepper) {
	p.Sim = &p.sp
	p.W.Eng().SpawnStep(p.Sim, s)
	p.register()
}

// register names a freshly spawned process, and tags it with its rank for a
// crash to find: whatever acts for a rank dies with it.
func (p *Proc) register() {
	p.Sim.SetNamer((*procName)(p))
	p.Sim.SetTag(rankTag(p.Rank))
}

// rankTag is the tag of a rank's processes on the engine (zero is no tag).
func rankTag(rank int) int { return rank + 1 }

// Start spawns one simulated process per rank, each executing fn. The
// caller still owns the engine and must call Eng().Run().
func (w *World) Start(fn func(*Proc)) {
	w.StartE(func(p *Proc) error { fn(p); return nil })
}

// StartSteps is Start for ranks that have no goroutine: body returns each
// rank's routine (sim.Stepper), which the engine advances in place from the
// rank's start event on — the event Start would start its goroutine at, so
// the two forms of one rank program simulate the same bits. A routine blocks
// through Proc.Arm and sim.Proc.StepWait and runs the blocking calls that
// have a step form (Comm.BarrierSteps, a collective's call routine) as its
// phases; the goroutine forms of those calls panic in it. body runs here,
// once per rank in rank order, before the rank's process exists. The ranks'
// contexts, processes included, and their barrier states are two allocations
// together.
func (w *World) StartSteps(body func(p *Proc) sim.Stepper) {
	procs := make([]Proc, w.Size())
	bars := make([]barrierSteps, w.Size())
	for r := range procs {
		p := &procs[r]
		p.W, p.Rank, p.bar = w, r, &bars[r]
		p.spawnStep(body(p))
	}
}

// StartE is Start for rank bodies that can fail. A rank returning a
// non-nil error stops the engine: Eng().Run() returns the error wrapped in
// a *RankError (first failing rank wins).
func (w *World) StartE(fn func(*Proc) error) {
	procs := make([]Proc, w.Size())
	for r := range procs {
		p := &procs[r]
		p.W, p.Rank = w, r
		p.Sim = w.Eng().Spawn("", func(*sim.Proc) {
			if err := fn(p); err != nil {
				w.Eng().Stop(&RankError{Rank: p.Rank, Err: err})
			}
		})
		p.register()
	}
}

// Run builds a fresh engine+machine+world for spec and pers, runs fn on
// every rank, and returns the virtual time at which the last process
// finished.
func Run(spec cluster.Spec, pers *Personality, fn func(*Proc)) (sim.Time, error) {
	return RunE(spec, pers, func(p *Proc) error { fn(p); return nil })
}

// RunE is Run for rank bodies that can fail: the first rank to return a
// non-nil error aborts the run, and RunE returns that error wrapped in a
// *RankError.
func RunE(spec cluster.Spec, pers *Personality, fn func(*Proc) error) (sim.Time, error) {
	eng := sim.New()
	w := NewWorld(cluster.NewMachine(eng, spec), pers)
	w.StartE(fn)
	if err := eng.Run(); err != nil {
		return eng.Now(), err
	}
	return eng.Now(), nil
}

// RankError wraps an error returned by a rank's body function, recording
// which rank failed.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string { return fmt.Sprintf("mpi: rank %d: %v", e.Rank, e.Err) }
func (e *RankError) Unwrap() error { return e.Err }

// AttachFaults binds a fault plan to the world: flap and straggler windows
// are scheduled onto the engine immediately, and the P2P layer starts
// consulting the injector for eager drops and overhead scaling. The
// injector draws from the world's seeded RNG (lazily, so Seed may be
// called before or after), making (seed, plan) fully determine the run.
// Attaching an all-zero plan schedules nothing and perturbs nothing.
// AttachFaults must be called at most once, normally before the engine
// runs; a plan attached later applies to the sends whose envelope has not
// gone out yet.
func (w *World) AttachFaults(plan fault.Plan) {
	if w.faults != nil {
		panic("mpi: AttachFaults called twice")
	}
	w.faults = fault.NewInjector(plan, func() float64 { return w.rng.Float64() })
	w.faults.Install(w.Mach)
	if w.faults.CrashesEnabled() {
		w.armCrashes()
	}
}

// Seed reseeds the world's noise generator, in place (only meaningful with
// a personality that sets Jitter, or a fault plan that draws).
func (w *World) Seed(seed int64) { w.rng.Seed(seed) }

// Reset returns a world whose run has drained, with its machine and engine,
// to the state NewWorld leaves them in, so that the next run simulates the
// bits a new world would: the engine and the network reset
// (sim.Engine.Reset, flow.Network.Reset), the noise generator reseeded in
// place with NewWorld's seed, every communicator's collective sequence
// counters at zero, the watchdog's instance maps empty. What the world grew
// stays — communicators and their matching state, the chunks of per-pair
// state and its cached paths, the record pools — and no bit depends on it.
//
// It is valid only on a drained world without a fault plan, and panics
// otherwise. Drained means no live process and no pending event (the
// engine's condition) and no record out of the world's pools (LiveRecords):
// a payload queued on a pair's wire or envelope FIFO and a message in a
// matching queue each hold one. A fault plan disqualifies a world for good: a
// crash leaves records out and processes unwound for the rest of the run, and
// the plan's injector keeps state of its own.
func (w *World) Reset() {
	if w.faults != nil {
		panic("mpi: Reset of a world with a fault plan attached")
	}
	if n := w.LiveRecords(); n > 0 {
		panic(fmt.Sprintf("mpi: Reset with %d record(s) out of the world's pools", n))
	}
	w.Eng().Reset()
	w.Mach.Net.Reset()
	w.rng.Seed(defaultSeed)
	for _, c := range w.comms {
		clear(c.seq)
	}
	clear(w.collWatch)
	clear(w.collInst)
}

// latency returns the one-way envelope latency between two ranks, hardware
// plus library software latency, with optional jitter noise.
func (w *World) latency(srcWorld, dstWorld int) float64 {
	m := w.Mach
	lat := m.Spec.InterLatency
	if m.NodeOf(srcWorld) == m.NodeOf(dstWorld) {
		lat = m.Spec.IntraLatency
	}
	lat += w.Pers.SoftLatency
	if j := w.Pers.Jitter; j > 0 {
		lat *= 1 + j*w.rng.Float64()
	}
	return lat
}
