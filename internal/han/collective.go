package han

import (
	"fmt"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
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

// collective is the shared prologue: buffer validation, the no-op cases,
// degradation of a three-level or GPU request the machine or root cannot
// serve, and the failure policy at entry. What is left to run goes through
// execute. 4096 rank stacks hold this frame and execute's while the
// pipeline runs, so the call travels by pointer, is rewritten in place,
// and everything bulky happens in helpers that return before then.
func (h *HAN) collective(p *mpi.Proc, cl *call, cfg *Config) error {
	n, err := cl.share(p)
	if err != nil {
		return err
	}
	if n == 0 || cl.trivial() {
		return nil
	}
	asked, reason := cl.degrade(h.W)
	name := cl.name()
	// Only a broadcast and an allreduce have a survivor form.
	sc, err := h.enter(cl.comm, name, cl.kind == coll.Bcast || cl.kind == coll.Allreduce)
	if err != nil {
		return err
	}
	if sc != nil && !cl.shrink(sc) {
		return h.rankFailed(name) // the root itself died
	}
	if sc == nil || !cl.trivial() {
		err = h.execute(p, cl, n, cfg)
	}
	if sc != nil {
		err = h.recovered(p, name, sc, err)
	}
	if reason != "" && err == nil {
		err = h.fallback(p, asked, "two-level "+name, &HierarchyError{Op: asked, Reason: reason})
	}
	return err
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

// execute runs a validated call between its guards: configuration
// resolution, the exit half of the failure policy, the collective's trace
// span and watchdog registration. Inside them the pipeline runs over the
// level list hierarchy builds. The return is nil, the *FallbackError note
// of a degraded path, or what the guards found.
func (h *HAN) execute(p *mpi.Proc, cl *call, n int, cfg *Config) (err error) {
	name := cl.name()
	if err = h.resolve(cl.kind, n, cfg); err != nil {
		return err
	}
	if h.W.CrashArmed() {
		epoch0 := h.W.DeathEpoch()
		defer func() { err = h.exitCheck(name, epoch0, err) }()
	}
	defer h.span(p, cl.comm, cl.span, n)()

	pl := h.pipeline(p)
	defer func() { *pl = pipeline{} }() // free the slot, and let go of the caller's buffers
	pl.init(cl.src, cl.dst, n, cl.op, cl.dt, cfg.FS)
	to, cause, hop := h.hierarchy(p, cl, pl, cfg)
	if pl.nst > 0 {
		h.m.segsPerColl.Observe(float64(pl.segs()))
		pl.run(nil)
	}
	if hop {
		// A reduction's or gather's non-leader root gets the result from its
		// leader.
		const fwdTag = 2
		node, root := pl.lv[0].comm, cl.comm.WorldRank(cl.root)
		if node.Rank(p) == 0 {
			node.Send(p, pl.dst, node.RankOfWorld(root), fwdTag)
		} else if p.Rank == root {
			node.Recv(p, cl.dst, 0, fwdTag)
		}
	}
	if to != "" {
		return h.fallback(p, name, to, cause)
	}
	return nil
}

// hierarchy fills pl with the call's level list and stage table. When the
// hierarchy is unusable it reports the degraded path taken and why: a
// single-node world gets a one-level table, and a communicator with no
// regular placement is served here and now by the flat module, leaving the
// table empty. hop asks for the final hop of a reduction or gather to a
// non-leader root.
func (h *HAN) hierarchy(p *mpi.Proc, cl *call, pl *pipeline, cfg *Config) (to string, cause error, hop bool) {
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
		return "intra-node " + cfg.SMod, herr, false

	case herr != nil || cl.kind == coll.Bcast && !world && hr.leaders.RankOfWorld(rootWorld) < 0:
		// No usable hierarchy: the flat module.
		if herr == nil {
			herr = &HierarchyError{Op: name,
				Reason: fmt.Sprintf("root %d is not a node leader within the communicator", cl.root)}
		}
		if cl.kind == coll.Bcast {
			p.Wait(h.Mods.Tuned.Ibcast(p, cl.comm, cl.dst, cl.root, coll.Params{}))
		} else {
			p.Wait(h.Mods.Tuned.Iallreduce(p, cl.comm, cl.src, cl.dst, cl.op, cl.dt, coll.Params{}))
		}
		return "flat tuned", herr, false

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
			if hop = f.down == noOp; !hop {
				h.feedRoot(p, pl, hr.node.RankOfWorld(rootWorld))
			}
		}
	}
	if f.blocks && hr.isLeader {
		pl.mid = scratch(pl.src, pl.src.N*hr.node.Size())
	}
	pl.derive(p, cl.kind)
	return "", nil, hop
}

// scratch returns a working buffer of n bytes, real when like is.
func scratch(like mpi.Buf, n int) mpi.Buf {
	if like.Real() {
		return mpi.Bytes(make([]byte, n))
	}
	return mpi.Phantom(n)
}

// feedRoot moves a non-leader root's segments to its node leader over the
// node communicator (the shuffle real HAN performs) so the inter-node
// stage can start from a leader: the root sends them all before joining
// the sb tasks; the leader posts every receive up front and run waits for
// segment j's inside the issue of ib(j). It stays a wait inside that issue
// rather than a stage of its own: sb(j-1) must already be in flight.
func (h *HAN) feedRoot(p *mpi.Proc, pl *pipeline, rootLocal int) {
	const feedTag = 1
	node := pl.lv[0].comm
	switch node.Rank(p) {
	case rootLocal:
		for j := 0; j < pl.segs(); j++ {
			node.Send(p, pl.seg(pl.dst, j), 0, feedTag)
		}
	case 0:
		pl.feed = make([]*mpi.Request, pl.segs())
		for j := range pl.feed {
			pl.feed[j] = node.Irecv(p, pl.seg(pl.dst, j), rootLocal, feedTag)
		}
	}
}
