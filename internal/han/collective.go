package han

import (
	"fmt"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// What every pipelined entry point shares: the prologue that validates a
// call and applies the failure policy, the level-list builder, and the
// degradations taken when the hierarchy is unusable.

// shape selects the hierarchy a collective asks for.
type shape uint8

const (
	twoLevel   shape = iota // node, inter-node (Figs 1 and 5)
	threeLevel              // socket, node, inter-node
	gpuLevel                // GPUs over NVLink, inter-node, PCIe between them
)

// call is one collective invocation as the shared prologue sees it.
type call struct {
	span  string // trace and metric name, "han.<EntryPoint>"
	kind  coll.Kind
	shape shape
	comm  *mpi.Comm
	// src is what the rank contributes to a reduction or gather and what a
	// scatter's root hands out; dst is the buffer a broadcast moves and
	// every other collective delivers into.
	src, dst mpi.Buf
	op       mpi.Op
	dt       mpi.Datatype
	root     int // comm rank; 0 for Allreduce and Allgather
	// survivors marks comm as a survivor communicator, for which the
	// uniform-ppn hierarchy check is waived.
	survivors bool
}

// name is the entry point the call runs as, for errors and notes.
func (cl *call) name() string { return cl.span[len("han."):] }

// Call is one collective call on one rank, as a routine (sim.Stepper): the
// prologue on its first Step — buffer validation, the no-op cases,
// degradation of a three-level or GPU request the machine or root cannot
// serve, the failure policy at entry, configuration, the trace span and
// watchdog registration, the level list and stage table — then the waits the
// call blocks in, one Step each time one completes, and on its last Step the
// epilogue that closes what the prologue opened. It lives in the calling
// rank's slot of the HAN instance, so a call allocates nothing and a rank
// needs no stack to be inside one: a rank that is itself a routine
// (mpi.World.StartSteps) runs the Call as a phase, a goroutine rank lends it
// its process (collective). Err holds what the entry point returns.
type Call struct {
	cl  call
	cfg Config

	state callState
	// What the prologue found, for the epilogue: the entry point a degraded
	// request asked for and why it could not be served; the call's name
	// before it moved to the survivor communicator sc; the death epoch at
	// entry; what closes the span, once it is open; the degraded path
	// hierarchy took, and whether a final hop is owed.
	asked, reason string
	name          string
	sc            *mpi.Comm
	epoch0        int
	end           func()
	to            string
	cause         error
	hop           bool
	j             int         // segments a non-leader root has fed its leader
	bar           sim.Stepper // a measurement's barrier (Timed)

	err error
	pl  pipeline
}

// callState is where a call's next Step picks up.
type callState uint8

const (
	callEnter   callState = iota // the prologue has not run
	callFeed                     // a non-leader root is feeding its segments to its node leader
	callFlat                     // the flat module is running the whole collective
	callBarrier                  // a measurement is in the barrier before its table (Timed)
	callTable                    // the stage table, and what follows it
)

// spans names the world collective of each kind.
var spans = [...]string{
	coll.Bcast:     "han.Bcast",
	coll.Reduce:    "han.Reduce",
	coll.Allreduce: "han.Allreduce",
	coll.Gather:    "han.Gather",
	coll.Allgather: "han.Allgather",
	coll.Scatter:   "han.Scatter",
}

// Start begins the two-level world collective of the given kind on rank p —
// what Bcast, Reduce, Allreduce, Gather, Allgather and Scatter run, with
// their buffers (a Bcast's in rbuf) and their notes and errors in Err — and
// returns it as a routine for a rank without a goroutine to run as a phase:
// it calls Step from its own Step until that reports done, and Unwind from
// its own if it is killed before. Nothing is simulated before the first
// Step. The Call is the rank's slot: it is good until the rank's next call.
func (h *HAN) Start(p *mpi.Proc, kind coll.Kind, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int, cfg Config) *Call {
	return h.start(p, &call{span: spans[kind], kind: kind, comm: h.W.World(), src: sbuf, dst: rbuf, op: op, dt: dt, root: root}, &cfg)
}

// start puts a call into the rank's slot.
func (h *HAN) start(p *mpi.Proc, cl *call, cfg *Config) *Call {
	c := h.slot(p)
	c.cl, c.cfg = *cl, *cfg
	return c
}

// collective runs a call on a goroutine rank: the first Step inline, the
// rest on the engine's goroutine while the rank is parked, once. A rank
// killed in between unwinds through here, on its own stack.
func (h *HAN) collective(p *mpi.Proc, cl *call, cfg *Config) error {
	c := h.start(p, cl, cfg)
	defer c.Unwind(p.Sim) // finds nothing to do after a call that finished
	p.Sim.RunSteps(c)
	return c.err
}

// Err returns what the call's entry point returns, once Step has reported
// done: nil, the *FallbackError note of a degraded path, or an error.
func (c *Call) Err() error { return c.err }

// Step runs the call up to its next wait, or to its end.
func (c *Call) Step(sp *sim.Proc) bool {
	pl := &c.pl
	p := pl.p
	if c.state == callEnter && c.enter() {
		return true
	}
	const feedTag, fwdTag = 1, 2
	switch c.state {
	case callFeed:
		// The shuffle real HAN performs: the root sends its segments to its
		// node leader, one after the other, before joining the sb tasks.
		for node := pl.lv[0].comm; c.j < pl.segs(); c.j++ {
			if pl.in == 0 {
				pl.reqs[0] = node.Isend(p, pl.seg(pl.dst, c.j), 0, feedTag)
			}
			if pl.wait(sp, pl.reqs[:1], inCall) {
				return false
			}
		}
	case callFlat:
		if pl.in == 0 {
			pl.reqs[0] = c.cl.flat(p, pl.h.Mods.Tuned)
		}
		if pl.wait(sp, pl.reqs[:1], inCall) {
			return false
		}
	}
	c.state = callTable
	if pl.nst > 0 && !pl.table(sp) { // a table that is through stays through
		return false
	}
	if c.hop {
		// A reduction's or gather's non-leader root gets the result from its
		// leader; the node's other ranks have nothing to wait for.
		if pl.in == 0 {
			var req *mpi.Request
			node, root := pl.lv[0].comm, c.cl.comm.WorldRank(c.cl.root)
			if node.Rank(p) == 0 {
				req = node.Isend(p, pl.dst, node.RankOfWorld(root), fwdTag)
			} else if p.Rank == root {
				req = node.Irecv(p, c.cl.dst, 0, fwdTag)
			}
			pl.reqs[0] = req
		}
		if pl.wait(sp, pl.reqs[:1], inCall) {
			return false
		}
	}
	return c.leave()
}

// enter is the prologue. It reports whether the call is over already: an
// error, or nothing to move. What is left to run it leaves in the pipeline,
// between the guards leave closes.
func (c *Call) enter() (done bool) {
	cl, pl := &c.cl, &c.pl
	h, p := pl.h, pl.p
	n, err := cl.share(p)
	if err != nil {
		return c.finish(err)
	}
	if n == 0 || cl.trivial() {
		return c.finish(nil)
	}
	c.asked, c.reason = cl.degrade(h.W)
	c.name = cl.name()
	// Only a broadcast and an allreduce have a survivor form.
	if c.sc, err = h.enter(cl.comm, c.name, cl.kind == coll.Bcast || cl.kind == coll.Allreduce); err != nil {
		return c.finish(err)
	}
	if c.sc != nil {
		if !cl.shrink(c.sc) {
			return c.finish(h.rankFailed(c.name)) // the root itself died
		}
		if cl.trivial() {
			return c.finish(c.noted(nil))
		}
	}
	if err = h.resolve(cl.kind, n, &c.cfg); err != nil {
		return c.finish(c.noted(err))
	}
	c.epoch0 = h.W.DeathEpoch()
	c.end = h.span(p, cl.comm, cl.span, n)
	pl.init(cl.src, cl.dst, n, cl.op, cl.dt, c.cfg.FS)
	h.hierarchy(p, c)
	if pl.nst > 0 {
		h.m.segsPerColl.Observe(float64(pl.segs()))
	}
	return false
}

// leave is the epilogue of a call that ran: the note of a degraded path,
// the end of the span and of the watchdog registration, the exit half of the
// failure policy.
func (c *Call) leave() (done bool) {
	h, p, name := c.pl.h, c.pl.p, c.cl.name()
	var err error
	if c.to != "" {
		err = h.fallback(p, name, c.to, c.cause)
	}
	c.end()
	return c.finish(c.noted(h.exitCheck(name, c.epoch0, err)))
}

// noted adds to what the call came to the notes the caller is owed: of a
// completion on the survivors, of a degraded request.
func (c *Call) noted(err error) error {
	h, p := c.pl.h, c.pl.p
	if c.sc != nil {
		err = h.recovered(p, c.name, c.sc, err)
	}
	if c.reason != "" && err == nil {
		err = h.fallback(p, c.asked, "two-level "+c.name, &HierarchyError{Op: c.asked, Reason: c.reason})
	}
	return err
}

// finish frees the slot, and lets go of the caller's buffers.
func (c *Call) finish(err error) (done bool) {
	*c = Call{err: err}
	return true
}

// Unwind is what a killed rank leaves behind instead of the epilogue: the
// span closed, the slot free. A goroutine rank gets here through
// collective's defer, also after a call that finished.
func (c *Call) Unwind(*sim.Proc) {
	if c.pl.p == nil {
		return
	}
	if c.end != nil {
		c.end()
	}
	*c = Call{}
}

// share returns the length n of the rank's share of the call, the message
// or its block: what it contributes when data moves up the levels first
// (src), what it is left with when data only moves down (dst). The other
// buffer holds as much, or the blocks of all ranks, and a *BufferSizeError
// says so where it matters: on a rooted collective's root, on every rank of
// the others.
func (cl *call) share(p *mpi.Proc) (n int, err error) {
	f := forms[cl.kind]
	n, other := cl.src.N, cl.dst.N
	if f.up == noOp {
		n, other = other, n
	}
	want := n
	if f.blocks {
		want *= cl.comm.Size()
	}
	if cl.kind != coll.Bcast && other != want && (!f.rooted() || cl.comm.Rank(p) == cl.root) {
		return 0, &BufferSizeError{Op: cl.name(), Got: other, Want: want}
	}
	return n, nil
}

// flat issues the whole call on the flat module m.
func (cl *call) flat(p *mpi.Proc, m coll.Module) *mpi.Request {
	c, pr := cl.comm, coll.Params{}
	switch cl.kind {
	case coll.Bcast:
		return m.Ibcast(p, c, cl.dst, cl.root, pr)
	case coll.Reduce:
		return m.Ireduce(p, c, cl.src, cl.dst, cl.op, cl.dt, cl.root, pr)
	case coll.Allreduce:
		return m.Iallreduce(p, c, cl.src, cl.dst, cl.op, cl.dt, pr)
	case coll.Gather:
		return m.Igather(p, c, cl.src, cl.dst, cl.root, pr)
	case coll.Allgather:
		return m.Iallgather(p, c, cl.src, cl.dst, pr)
	}
	return m.Iscatter(p, c, cl.src, cl.dst, cl.root, pr)
}

// trivial completes a call on a single-rank communicator, where there is
// nothing to move but the rank's own contribution.
func (cl *call) trivial() bool {
	if cl.comm.Size() > 1 {
		return false
	}
	if cl.kind != coll.Bcast {
		cl.dst.CopyFrom(cl.src)
	}
	return true
}

// degrade rewrites a call for a wider hierarchy the machine or the root
// cannot serve into the two-level collective, under that collective's
// name. It returns the entry point that was asked for and, when the caller
// is owed a note about it, the reason.
func (cl *call) degrade(w *mpi.World) (asked, reason string) {
	if cl.shape == twoLevel {
		return "", ""
	}
	switch spec := w.Mach.Spec; {
	case cl.shape == threeLevel && !spec.MultiSocket():
		// One socket per node: two levels are the full hierarchy.
	case cl.shape == gpuLevel && !spec.HasGPUs():
		reason = "machine has no GPUs"
	case cl.kind == coll.Bcast && !w.Mach.IsNodeLeader(cl.root):
		// The two-level Bcast shuffles a general root to its leader.
		reason = fmt.Sprintf("root %d is not a node leader", cl.root)
	default:
		return "", ""
	}
	asked = cl.name()
	cl.shape, cl.span = twoLevel, "han.Bcast"
	if cl.kind == coll.Allreduce {
		cl.span = "han.Allreduce"
	}
	return asked, reason
}

// shrink rewrites a call into the two-level communicator form on the
// survivor communicator sc; false means a broadcast's root is not among
// the survivors.
func (cl *call) shrink(sc *mpi.Comm) bool {
	cl.span = "han.AllreduceComm"
	if cl.kind == coll.Bcast {
		cl.span = "han.BcastComm"
		if cl.root = sc.RankOfWorld(cl.comm.WorldRank(cl.root)); cl.root < 0 {
			return false
		}
	}
	cl.comm, cl.survivors, cl.shape = sc, true, twoLevel
	return true
}

// twoLevels fills pl's level list with the node and inter-node levels of
// hr under cfg, both rooted at their rank 0. Where the configured
// inter-node module lacks the collective (adapt has no block collectives)
// libnbc, which has them all, takes the level.
func (h *HAN) twoLevels(pl *pipeline, hr *hier, kind coll.Kind, cfg *Config) {
	pl.lv[0] = level{kind: lvIntra, comm: hr.node, mod: h.Mods.intraMod(cfg.SMod)}
	if cfg.SBMod != "" {
		pl.lv[0].down = h.Mods.intraMod(cfg.SBMod)
	}
	pl.lv[1] = level{kind: lvInter, mod: h.Mods.interMod(cfg.IMod)}
	if !pl.lv[1].mod.Supports(kind) {
		pl.lv[1].mod = h.Mods.Libnbc
	}
	if hr.isLeader {
		pl.lv[1].comm = hr.leaders
	}
	pl.ib = coll.Params{Alg: cfg.IBAlg, Seg: cfg.IBS}
	pl.ir = coll.Params{Alg: cfg.IRAlg, Seg: cfg.IRS}
	pl.nlv, pl.leafFirst = 2, true
}

// flat is the table of a single-node world's one-level pipeline.
var flat = [...][]stage{
	coll.Bcast:     {{op: opDown}},
	coll.Reduce:    {{op: opUp}},
	coll.Allreduce: {{op: opAll}},
	coll.Gather:    {{op: opGather}},
	coll.Allgather: {{op: opGather}, {op: opDown, off: 1}},
	coll.Scatter:   {{op: opScatter}},
}

// hierarchy fills c's pipeline with the call's level list and stage table
// and says where its Step goes on. When the hierarchy is unusable it records
// the degraded path taken and why: a single-node world gets a one-level
// table, and a communicator with no regular placement leaves the table empty
// for the flat module to serve. A flat top asks for the flat module, so
// takes it without a note. hop asks for the final hop of a reduction or
// gather to a non-leader root.
func (h *HAN) hierarchy(p *mpi.Proc, c *Call) {
	cl, pl, cfg := &c.cl, &c.pl, &c.cfg
	if cfg.Top == TopFlat {
		c.state = callFlat
		return
	}
	c.state = callTable
	w, mach := h.W, h.W.Mach
	name := cl.name()
	world := cl.comm == w.World()
	rootWorld := cl.comm.WorldRank(cl.root)
	hr, herr := h.analyze(p, cl.comm, name, cl.survivors)
	if herr == nil || world {
		h.twoLevels(pl, &hr, cl.kind, cfg)
	}
	f := forms[cl.kind]
	if f.blocks {
		// One segment, of the extent of the world's blocks together: those
		// are dst and the rank's own is src, also in a scatter.
		if cl.kind == coll.Scatter {
			pl.src, pl.dst = pl.dst, pl.src
		}
		pl.n *= cl.comm.Size()
		pl.fs = pl.n
	}

	switch {
	case cl.shape != twoLevel:
		// The wider hierarchies: world collectives with a node-leader root
		// (the prologue checked), so no shuffle and no irregular placement.
		pl.lv[1].root, pl.leafFirst = mach.NodeOf(rootWorld), false
		if cl.shape == gpuLevel {
			pl.lv[0] = level{kind: lvGPU, comm: hr.node, mod: h.Mods.CUDA}
			break
		}
		// The node level splits in two: each socket, and above it the
		// node's socket leaders, both on the intra-node module.
		pl.lv[2], pl.nlv = pl.lv[1], 3
		pl.lv[1] = level{kind: lvNode, mod: pl.lv[0].mod}
		if mach.IsSocketLeader(p.Rank) {
			pl.lv[1].comm = w.SocketLeaderComm(p.Node())
		}
		pl.lv[0].kind, pl.lv[0].comm = lvSocket, w.SocketComm(p.Node(), mach.SocketOf(p.Rank))

	case herr != nil && world:
		// Single-node world: no inter-node level exists, so pipeline the
		// segments through the intra-node module alone.
		pl.lv[0].root, pl.nlv = hr.node.RankOfWorld(rootWorld), 1
		pl.nst = copy(pl.st[:], flat[cl.kind])
		pl.depth = pl.nst - 1
		c.to, c.cause = "intra-node "+cfg.SMod, herr
		return

	case herr != nil || cl.kind == coll.Bcast && !world && hr.leaders.RankOfWorld(rootWorld) < 0:
		// No usable hierarchy: the flat module.
		if herr == nil {
			herr = &HierarchyError{Op: name,
				Reason: fmt.Sprintf("root %d is not a node leader within the communicator", cl.root)}
		}
		c.state, c.to, c.cause = callFlat, "flat tuned", herr
		return

	case f.rooted():
		// The root's node leader roots the inter-node level. A root that is
		// not a leader (world communicator only) is shuffled over its node
		// communicator: fed to the leader before data moves down, one hop
		// from it after data has moved up.
		pl.lv[1].root = hr.leaders.RankOfWorld(rootWorld)
		shuffle := pl.lv[1].root < 0
		if shuffle {
			pl.lv[1].root = mach.NodeOf(rootWorld)
		}
		onRootNode := shuffle && p.Node() == pl.lv[1].root
		// Node partials of a reduction accumulate in a scratch that doubles
		// as the inter-node contribution; a leader root accumulates into
		// rbuf. Of a block collective's leaders only the root's holds the
		// blocks of the world: in its own buffer when it is the root, in a
		// scratch when it stands in for one.
		if cl.kind == coll.Reduce && (shuffle || p.Rank != rootWorld) || f.blocks && onRootNode && hr.isLeader {
			pl.dst = scratch(pl.src, pl.n)
		}
		if onRootNode {
			if c.hop = f.down == noOp; !c.hop && h.feedRoot(p, pl, hr.node.RankOfWorld(rootWorld)) {
				c.state = callFeed
			}
		}
	}
	if f.blocks && hr.isLeader {
		pl.mid = scratch(pl.src, pl.src.N*hr.node.Size())
	}
	pl.derive(p, cl.kind, formOf(cl.kind, cfg))
}

// scratch returns a working buffer of n bytes, real when like is.
func scratch(like mpi.Buf, n int) mpi.Buf {
	if like.Real() {
		return mpi.Bytes(make([]byte, n))
	}
	return mpi.Phantom(n)
}

// feedRoot sets up the move of a non-leader root's segments to its node
// leader over the node communicator, so the inter-node stage can start from
// a leader, and reports whether this rank is the root that sends them (the
// call's callFeed wait) before it joins the sb tasks. The leader posts every
// receive here, up front, and the step loop waits for segment j's inside the
// issue of ib(j). It stays a wait inside that issue rather than a stage of
// its own: sb(j-1) must already be in flight.
func (h *HAN) feedRoot(p *mpi.Proc, pl *pipeline, rootLocal int) (sends bool) {
	const feedTag = 1
	node := pl.lv[0].comm
	switch node.Rank(p) {
	case rootLocal:
		return true
	case 0:
		pl.feed = make([]*mpi.Request, pl.segs())
		for j := range pl.feed {
			pl.feed[j] = node.Irecv(p, pl.seg(pl.dst, j), rootLocal, feedTag)
		}
	}
	return false
}
