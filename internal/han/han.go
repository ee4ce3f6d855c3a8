// Package han implements the paper's primary contribution: HAN, the
// Hierarchical AutotuNed collective communication framework.
//
// HAN does not implement new collective algorithms. It groups processes by
// node (the two levels reachable through the portable
// MPI_Comm_split_type API), picks suitable existing modules as submodules
// for each level — Libnbc or ADAPT for non-blocking inter-node collectives,
// SM or SOLO for intra-node — and composes their fine-grained operations
// into *tasks* pipelined over message segments:
//
//   - MPI_Bcast (Fig 1): tasks ib, sbib, sb — node leaders run
//     ib(0), sbib(1) … sbib(u-1), sb(u-1); other ranks run sb(0) … sb(u-1).
//   - MPI_Allreduce (Fig 5): tasks sr, irsr, ibirsr, sbibirsr, sbibir,
//     sbib, sb on leaders and sr/sbsr/sb on the other ranks.
//
// # One pipeline
//
// That idea is stated once (pipeline.go). A collective call is described,
// per rank, by a level list — the hierarchy from the innermost level out;
// each level holds its communicator (nil when the rank is not a member),
// its submodule, its root, and through its kind its task names: sb/sr on a
// node or socket, nb/nr among a node's socket leaders, gb/gr on a node's
// GPUs, ib/ir among the node leaders (the block collectives add sg/ss on a
// node and ig/is/iag among the leaders). From the list a stage table {task,
// level, step offset} is derived: a sweep up the levels (the reduces of
// Reduce and Allreduce, the gathers of Gather and Allgather), then a sweep
// down them (the broadcasts of Bcast, Allreduce and Allgather, the scatters
// of Scatter), one offset per stage, with a PCIe staging (d2h, h2d) where a
// sweep crosses between a GPU level and the level above. One step loop runs
// the table: at step t each stage takes segment t-offset, the stages are
// issued in table order, and the step ends when all have completed — the
// task barrier of the figures. The tables, in issue order (a rank's own
// holds the rows of the levels it is a member of):
//
//	Bcast, BcastComm            sb@1  ib@0
//	Bcast3                      ib@0  nb@1  sb@2
//	BcastGPU                    d2h@0 (root)  ib@1  gb@2 (h2d first on the other leaders)
//	Reduce                      sr@0  ir@1
//	Allreduce, AllreduceComm    sr@0  ir@1  ib@2  sb@3
//	Allreduce3                  sr@0  nr@1  ir@2  ib@3  nb@4  sb@5
//	AllreduceGPU                gr@0  d2h@1  ir@2  ib@3  h2d@4  gb@5
//	Gather                      sg@0  ig@1
//	Scatter                     is@0  ss@1
//	Allgather                   sg@0  iag@1  sb@2
//	Allreduce, fused top        sr@0  ia@1  sb@2
//	single-node world           sb@0 | sr@0 | sa@0 | sg@0 | ss@0 | sg@0 sb@1 (one level, with a note)
//	flat top                    no table: the flat tuned module runs the whole collective
//
// Gather, Scatter and Allgather move a block per rank instead of segments
// of one message, which gives a stage the one thing a segment stage lacks,
// an extent that depends on its level: a rank's block below the node level,
// the node's blocks between the two, the world's at the top, each the
// level's communicator size times the one below. They run as one segment.
// Allgather's sweeps meet in one stage on the outermost level, iag in place
// of a gather and a broadcast there; a fused Allreduce meets the same way,
// in one allreduce among the leaders (ia) in place of ir and ib — the
// design section III-B1 argues against. The fused and the flat top are
// not HAN's own choices: they are how the rival libraries of the
// evaluation (package rivals) are expressed as HAN decisions.
//
// Two rules about order are load-bearing, because tasks issued at the same
// instant enter the simulated network in issue order: issue order is table
// order, never offset order — the two-level Bcast lists sb before ib,
// Fig 1's sbib, while the wider broadcasts run outermost level first — and
// a non-leader root's data reaches its node leader through a wait inside
// the leader's ib issue, not through a stage of its own, so sb(i-1) is in
// flight while the leader waits for segment i. golden_test.go pins both.
//
// The entry points differ in what they decompose (the world or a
// communicator, host or device buffers, two levels or three), not in how
// they pipeline: each names its hierarchy and runs as one routine (Call,
// collective.go) — the prologue, the waits of the table and around it, the
// epilogue — which a goroutine rank lends its process to for the length of
// the blocking call, and which a rank that is itself a routine
// (mpi.World.StartSteps) runs as a phase (Start). The autotuner's
// measurements (steps.go) run the same loop: a Series is a derived table
// with step timing on, and a TimeTasks timer is a one-segment table with every offset 0, synchronised on the communicator
// its stages span.
//
// The task structure is what the autotuning component (package autotune)
// benchmarks and what its cost model composes. The Config type is the
// output schema of Table II plus two fields outside it, the top and the
// broadcast side's intra-node module, which only the rivals set.
package han

import (
	"fmt"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// Config is the autotuned parameter set of one HAN collective — the output
// columns of Table II in the paper.
type Config struct {
	// FS is the HAN segment size in bytes (fs): messages are split into
	// ceil(m/fs) segments that pipeline through the task schedule.
	FS int
	// IMod names the inter-node submodule: "libnbc" or "adapt".
	IMod string
	// SMod names the intra-node submodule: "sm" or "solo".
	SMod string
	// IBAlg is the inter-node broadcast algorithm, when IMod supports a
	// choice (ibalg).
	IBAlg coll.Alg
	// IRAlg is the inter-node reduce algorithm, when supported (iralg).
	IRAlg coll.Alg
	// IBS is the inter-node broadcast internal segment size (ibs), 0 for
	// the module default.
	IBS int
	// IRS is the inter-node reduce internal segment size (irs).
	IRS int
	// Top and SBMod are outside Table II: no search sets them, only the
	// rival libraries' decisions do. Top is what the outermost level runs:
	// "" Table II's split stages, TopFused an Allreduce's one inter-node
	// allreduce (task ia) in place of ir and ib, TopFlat the whole
	// collective on the flat tuned module. SBMod names the intra-node
	// module of the broadcast side (sb) when it is not SMod.
	Top   string `json:",omitempty"`
	SBMod string `json:",omitempty"`
}

// The values of Config.Top besides the split default.
const (
	TopFused = "fused"
	TopFlat  = "flat"
)

// String formats the configuration compactly for reports. Top and SBMod
// appear only when set, so a Table II configuration prints as it always has.
func (c Config) String() string {
	s := fmt.Sprintf("fs=%s imod=%s smod=%s ibalg=%v iralg=%v ibs=%s irs=%s",
		SizeString(c.FS), c.IMod, c.SMod, c.IBAlg, c.IRAlg, SizeString(c.IBS), SizeString(c.IRS))
	if c.Top != "" {
		s += " top=" + c.Top
	}
	if c.SBMod != "" {
		s += " sbmod=" + c.SBMod
	}
	return s
}

// SizeString renders a byte count in IMB style (4B, 64KB, 2MB).
func SizeString(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Modules bundles the shared submodule instances of one world. SM and SOLO
// keep per-operation rendezvous state, so all ranks must use the same
// Modules value.
type Modules struct {
	Libnbc *coll.Libnbc
	Adapt  *coll.Adapt
	SM     *coll.SM
	SOLO   *coll.SOLO
	CUDA   *coll.CUDA
	// Tuned is the flat (topology-unaware) module HAN degrades to when a
	// communicator's hierarchy is unusable — the paper's fallback semantics
	// for irregular process placements.
	Tuned *coll.Tuned
}

// NewModules returns a fresh set of submodule instances.
func NewModules() *Modules {
	return &Modules{
		Libnbc: coll.NewLibnbc(),
		Adapt:  coll.NewAdapt(),
		SM:     coll.NewSM(),
		SOLO:   coll.NewSOLO(),
		CUDA:   coll.NewCUDA(),
		Tuned:  coll.NewTuned(),
	}
}

// Inter resolves an inter-node submodule by name; an unknown name returns
// a *ConfigError.
func (m *Modules) Inter(name string) (coll.Module, error) {
	switch name {
	case "libnbc":
		return m.Libnbc, nil
	case "adapt":
		return m.Adapt, nil
	}
	return nil, &ConfigError{Op: "Inter", Param: "imod", Value: fmt.Sprintf("%q (want libnbc or adapt)", name)}
}

// Intra resolves an intra-node submodule by name; an unknown name returns
// a *ConfigError.
func (m *Modules) Intra(name string) (coll.Module, error) {
	switch name {
	case "sm":
		return m.SM, nil
	case "solo":
		return m.SOLO, nil
	}
	return nil, &ConfigError{Op: "Intra", Param: "smod", Value: fmt.Sprintf("%q (want sm or solo)", name)}
}

// interMod is the post-validation form of Inter used on task hot paths:
// every public entry point runs the configuration through resolve first,
// so an unknown name here is a programming error, not user input.
func (m *Modules) interMod(name string) coll.Module {
	mod, err := m.Inter(name)
	if err != nil {
		panic(err)
	}
	return mod
}

// intraMod is the post-validation form of Intra; see interMod.
func (m *Modules) intraMod(name string) coll.Module {
	mod, err := m.Intra(name)
	if err != nil {
		panic(err)
	}
	return mod
}

// InterNames lists the available inter-node submodules.
func InterNames() []string { return []string{"libnbc", "adapt"} }

// IntraNames lists the available intra-node submodules.
func IntraNames() []string { return []string{"sm", "solo"} }

// DecisionFunc maps a collective kind and message size to a configuration.
// The autotuner produces one; DefaultDecision is the untuned fallback.
type DecisionFunc func(kind coll.Kind, msgBytes int) Config

// DefaultDecision is HAN's built-in static decision used before any tuning
// table exists. It encodes the paper's published heuristics: ADAPT trees
// inter-node (binary for latency-bound sizes, chain once there are enough
// segments to fill the pipeline), SM below the 512 KB SOLO threshold, and
// internal segments matching the HAN segment for bandwidth-bound sizes.
func DefaultDecision(kind coll.Kind, msgBytes int) Config {
	cfg := Config{
		FS:    512 << 10,
		IMod:  "adapt",
		SMod:  "sm",
		IBAlg: coll.AlgBinary,
		IRAlg: coll.AlgBinary,
		IBS:   64 << 10,
		IRS:   64 << 10,
	}
	if msgBytes > 512<<10 {
		cfg.SMod = "solo"
	}
	if msgBytes <= 64<<10 {
		cfg.FS = msgBytes
		cfg.IBS, cfg.IRS = 0, 0
	}
	if msgBytes >= 2<<20 {
		// Bandwidth-bound: a pipelined chain across leaders, HAN segments
		// sized for ~8 pipeline stages, and internal segments at a quarter
		// of the HAN segment so chain hops overlap within each task.
		cfg.IBAlg, cfg.IRAlg = coll.AlgChain, coll.AlgChain
		cfg.FS = msgBytes / 8
		if cfg.FS < 512<<10 {
			cfg.FS = 512 << 10
		}
		cfg.IBS = cfg.FS / 4
		if cfg.IBS < 128<<10 {
			cfg.IBS = 128 << 10
		}
		cfg.IRS = cfg.IBS
		if kind == coll.Bcast && msgBytes < 8<<20 {
			// For mid-size broadcasts the intra stage is cheap relative to
			// the inter stage, so per-task pipeline refills outweigh the
			// ib/sb overlap; a single HAN segment with internal chain
			// pipelining wins (the autotuner finds the same).
			cfg.FS = msgBytes
			cfg.IBS, cfg.IRS = 512<<10, 512<<10
		}
	}
	return cfg
}

// HAN is the framework instance bound to one world. All ranks share it.
type HAN struct {
	W    *mpi.World
	Mods *Modules
	// Decide supplies per-call configurations when the caller passes the
	// zero Config; defaults to DefaultDecision.
	Decide DecisionFunc
	// OnFailure selects how collectives respond to ranks the failure
	// detector declared dead: Abort (the default) fails fast with a
	// *RankFailedError, Shrink completes on the survivor communicator.
	// Irrelevant unless the attached fault plan contains crashes.
	OnFailure FailPolicy

	// m holds the metric handles installed by EnableMetrics; always
	// non-nil (the zero value's nil handles no-op).
	m *hanMetrics
	// slots holds, per world rank, the collective call the rank is in
	// (collective.go).
	slots []Call
}

// New creates a HAN instance for the world with fresh submodules and the
// default decision function. If the world has metrics enabled
// (mpi.World.EnableMetrics), HAN's metric families register with the same
// registry automatically.
func New(w *mpi.World) *HAN {
	h := &HAN{W: w, Mods: NewModules(), Decide: DefaultDecision, m: &hanMetrics{}}
	if reg := w.Metrics(); reg != nil {
		h.EnableMetrics(reg)
	}
	return h
}

// Reset returns the instance and its world to the state New leaves them in,
// for the next run to simulate the bits a new instance on a new world would:
// the world is reset (mpi.World.Reset, which refuses one that has not
// drained — and in a drained world no rank is inside a call), and every
// rank's call slot is zeroed, with what a finished call left there. The
// slots and the submodule instances stay.
func (h *HAN) Reset() {
	h.W.Reset()
	clear(h.slots)
}

// resolve fills a zero Config from the decision function, applies
// defaults to a partially-specified one, and validates the submodule
// names, in place. Every public entry point calls it before issuing tasks,
// so a bad tuning table or caller typo surfaces as a returned *ConfigError
// instead of a panic deep inside the pipeline.
func (h *HAN) resolve(kind coll.Kind, msgBytes int, cfg *Config) error {
	if *cfg == (Config{}) {
		d := h.Decide
		if d == nil {
			d = DefaultDecision
		}
		*cfg = d(kind, msgBytes)
	}
	if cfg.FS <= 0 {
		cfg.FS = msgBytes
	}
	if cfg.IMod == "" {
		cfg.IMod = "adapt"
	}
	if cfg.SMod == "" {
		cfg.SMod = "sm"
	}
	if _, err := h.Mods.Inter(cfg.IMod); err != nil {
		return err
	}
	if _, err := h.Mods.Intra(cfg.SMod); err != nil {
		return err
	}
	if cfg.SBMod != "" {
		if _, err := h.Mods.Intra(cfg.SBMod); err != nil {
			return &ConfigError{Op: "Intra", Param: "sbmod", Value: fmt.Sprintf("%q (want sm or solo)", cfg.SBMod)}
		}
	}
	switch cfg.Top {
	case "", TopFused, TopFlat:
	default:
		return &ConfigError{Op: "Top", Param: "top", Value: fmt.Sprintf("%q (want fused or flat)", cfg.Top)}
	}
	if cfg.IBAlg == coll.AlgDefault {
		if cfg.IMod == "adapt" {
			cfg.IBAlg = coll.AlgBinary
		} else {
			cfg.IBAlg = coll.AlgBinomial
		}
	}
	if cfg.IRAlg == coll.AlgDefault {
		cfg.IRAlg = cfg.IBAlg
	}
	return nil
}

// traced brackets a task request with trace events (when the world has a
// tracer attached) and task metrics (when EnableMetrics installed them);
// with neither it returns the request untouched.
func (h *HAN) traced(p *mpi.Proc, op stageOp, kind levelKind, size int, req *mpi.Request) *mpi.Request {
	rec := h.W.Tracer
	h.m.taskCounter(op, kind).Inc()
	hist := h.m.taskSeconds
	if rec == nil && hist == nil {
		return req
	}
	name := taskNames[op][kind]
	begin := p.Now()
	if rec != nil {
		rec.Record(trace.Event{T: float64(begin), Rank: p.Rank, Kind: trace.KindTaskBegin, Name: name, Size: size, Peer: -1})
	}
	eng := h.W.Eng()
	rank := p.Rank
	req.Done().OnFire(sim.Func(func() {
		if rec != nil {
			rec.Record(trace.Event{T: float64(eng.Now()), Rank: rank, Kind: trace.KindTaskEnd, Name: name, Size: size, Peer: -1})
		}
		hist.Observe(float64(eng.Now() - begin))
	}), 0)
	return req
}

// span brackets a whole collective with trace events and registers it with
// the world's progress watchdog (when one is armed via SetCollTimeout);
// the returned func closes the span. With no tracer and no watchdog it is
// free.
func (h *HAN) span(p *mpi.Proc, c *mpi.Comm, name string, size int) func() {
	h.m.collEntered(name)
	endWatch := h.W.CollBegin(p.Rank, c, name)
	if p.Sim.Dying() {
		// A crash-on-Nth-collective trigger just fired on this rank (or its
		// node): unwind before issuing any task, so the victim's traffic
		// stops exactly at the collective boundary.
		p.Sim.Exit()
	}
	rec := h.W.Tracer
	if rec == nil {
		return endWatch
	}
	rec.Record(trace.Event{T: float64(p.Now()), Rank: p.Rank, Kind: trace.KindCollBegin, Name: name, Size: size, Peer: -1})
	return func() {
		endWatch()
		rec.Record(trace.Event{T: float64(p.Now()), Rank: p.Rank, Kind: trace.KindCollEnd, Name: name, Size: size, Peer: -1})
	}
}
