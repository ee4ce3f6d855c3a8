package han

import (
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
)

// This file implements the collectives the paper lists as straightforward
// extensions of the task-based design ("similar designs can be extended to
// other collective operations, such as MPI_Reduce, MPI_Gather, and
// MPI_Allgather"): each is a composition of intra-node and inter-node
// fine-grained operations over the same two-level hierarchy.

// interFor picks the configured inter-node module if it supports the
// collective, falling back to libnbc (which supports everything).
func (h *HAN) interFor(k coll.Kind, cfg Config) coll.Module {
	m := h.Mods.interMod(cfg.IMod)
	if m.Supports(k) {
		return m
	}
	return h.Mods.Libnbc
}

// Reduce performs a hierarchical reduction to the world rank root: the
// upward half of Allreduce's pipeline,
//
//	step t:  sr(t) on the node,  ir(t-1) on the leaders
//
// rooted at the root's node leader, and a final intra-node hop when the
// root is not a node leader. rbuf matters on the root only. A non-nil
// *FallbackError return notes a degraded path (single-node world) that
// still completed correctly. Reduce has no survivor form: once a rank has
// died it returns a *RankFailedError under either OnFailure policy.
func (h *HAN) Reduce(p *mpi.Proc, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int, cfg Config) error {
	return h.collective(p, &call{span: "han.Reduce", kind: coll.Reduce, comm: h.W.World(), src: sbuf, dst: rbuf, op: op, dt: dt, root: root}, &cfg)
}

// Gather collects each rank's sbuf block into rbuf at world rank root
// (blocks laid out in world-rank order): intra-node gather to the leader,
// inter-node gather of node blocks across leaders, and a final intra-node
// hop when the root is not a leader.
func (h *HAN) Gather(p *mpi.Proc, sbuf, rbuf mpi.Buf, root int, cfg Config) error {
	w := h.W
	if w.Size() == 1 {
		rbuf.CopyFrom(sbuf)
		return nil
	}
	if err := h.resolve(coll.Gather, sbuf.N, &cfg); err != nil {
		return err
	}
	defer h.span(p, w.World(), "han.Gather", sbuf.N)()
	node, leaders := h.comms(p)
	mach := w.Mach
	ppn := mach.Spec.PPN
	blk := sbuf.N
	rootNode := mach.NodeOf(root)
	rootIsLeader := mach.IsNodeLeader(root)
	iAmLeader := mach.IsNodeLeader(p.Rank)
	intra := h.Mods.intraMod(cfg.SMod)
	inter := h.interFor(coll.Gather, cfg)

	if p.Rank == root && rbuf.N != w.Size()*blk {
		return &BufferSizeError{Op: "Gather", Got: rbuf.N, Want: w.Size() * blk}
	}
	if mach.Spec.Nodes == 1 {
		p.Wait(intra.Igather(p, node, sbuf, rbuf, node.RankOfWorld(root), coll.Params{}))
		return h.fallback(p, "Gather", "intra-node "+cfg.SMod,
			&HierarchyError{Op: "Gather", Reason: "single-node world"})
	}

	// Stage 1: gather node blocks at leaders.
	nodeBuf := allocLike(mpi.Phantom(ppn * blk))
	if sbuf.Real() {
		nodeBuf = mpi.Bytes(make([]byte, ppn*blk))
	}
	p.Wait(intra.Igather(p, node, sbuf, nodeBuf, 0, coll.Params{}))

	// Stage 2: gather across leaders. With block rank distribution, node
	// blocks concatenate exactly into world-rank order.
	const fwdTag = 3
	if iAmLeader {
		var dst mpi.Buf
		if p.Rank == root && rootIsLeader {
			dst = rbuf
		} else {
			dst = allocLike(mpi.Phantom(w.Size() * blk))
			if rbuf.Real() || sbuf.Real() {
				dst = mpi.Bytes(make([]byte, w.Size()*blk))
			}
		}
		p.Wait(inter.Igather(p, leaders, nodeBuf, dst, rootNode, coll.Params{}))
		if !rootIsLeader && p.Node() == rootNode {
			node.Send(p, dst, node.RankOfWorld(root), fwdTag)
		}
	}
	if p.Rank == root && !rootIsLeader {
		node.Recv(p, rbuf, 0, fwdTag)
	}
	return nil
}

// Scatter distributes root's rbuf-sized blocks of sbuf to every rank:
// an intra-node hop from a non-leader root, an inter-node scatter of node
// blocks, then an intra-node scatter.
func (h *HAN) Scatter(p *mpi.Proc, sbuf, rbuf mpi.Buf, root int, cfg Config) error {
	w := h.W
	if w.Size() == 1 {
		rbuf.CopyFrom(sbuf)
		return nil
	}
	if err := h.resolve(coll.Scatter, rbuf.N, &cfg); err != nil {
		return err
	}
	defer h.span(p, w.World(), "han.Scatter", rbuf.N)()
	node, leaders := h.comms(p)
	mach := w.Mach
	ppn := mach.Spec.PPN
	blk := rbuf.N
	rootNode := mach.NodeOf(root)
	rootIsLeader := mach.IsNodeLeader(root)
	iAmLeader := mach.IsNodeLeader(p.Rank)
	intra := h.Mods.intraMod(cfg.SMod)
	inter := h.interFor(coll.Scatter, cfg)

	if p.Rank == root && sbuf.N != w.Size()*blk {
		return &BufferSizeError{Op: "Scatter", Got: sbuf.N, Want: w.Size() * blk}
	}
	if mach.Spec.Nodes == 1 {
		p.Wait(intra.Iscatter(p, node, sbuf, rbuf, node.RankOfWorld(root), coll.Params{}))
		return h.fallback(p, "Scatter", "intra-node "+cfg.SMod,
			&HierarchyError{Op: "Scatter", Reason: "single-node world"})
	}

	const fwdTag = 4
	src := sbuf
	if p.Rank == root && !rootIsLeader {
		node.Send(p, sbuf, 0, fwdTag)
	}
	if iAmLeader && p.Node() == rootNode && !rootIsLeader {
		src = allocLike(mpi.Phantom(w.Size() * blk))
		if rbuf.Real() {
			src = mpi.Bytes(make([]byte, w.Size()*blk))
		}
		node.Recv(p, src, node.RankOfWorld(root), fwdTag)
	}

	// Inter-node scatter of node blocks, then intra-node scatter.
	nodeBuf := allocLike(mpi.Phantom(ppn * blk))
	if rbuf.Real() {
		nodeBuf = mpi.Bytes(make([]byte, ppn*blk))
	}
	if iAmLeader {
		p.Wait(inter.Iscatter(p, leaders, src, nodeBuf, rootNode, coll.Params{}))
	}
	p.Wait(intra.Iscatter(p, node, nodeBuf, rbuf, 0, coll.Params{}))
	return nil
}

// Allgather concatenates every rank's sbuf into rbuf on all ranks: an
// intra-node gather to leaders, a ring allgather across leaders, then an
// intra-node broadcast of the full result.
func (h *HAN) Allgather(p *mpi.Proc, sbuf, rbuf mpi.Buf, cfg Config) error {
	w := h.W
	if w.Size() == 1 {
		rbuf.CopyFrom(sbuf)
		return nil
	}
	if err := h.resolve(coll.Allgather, sbuf.N, &cfg); err != nil {
		return err
	}
	defer h.span(p, w.World(), "han.Allgather", sbuf.N)()
	node, leaders := h.comms(p)
	mach := w.Mach
	ppn := mach.Spec.PPN
	blk := sbuf.N
	iAmLeader := mach.IsNodeLeader(p.Rank)
	intra := h.Mods.intraMod(cfg.SMod)
	inter := h.interFor(coll.Allgather, cfg)

	if rbuf.N != w.Size()*blk {
		return &BufferSizeError{Op: "Allgather", Got: rbuf.N, Want: w.Size() * blk}
	}
	if mach.Spec.Nodes == 1 {
		p.Wait(intra.Igather(p, node, sbuf, rbuf, 0, coll.Params{}))
		p.Wait(intra.Ibcast(p, node, rbuf, 0, coll.Params{}))
		return h.fallback(p, "Allgather", "intra-node "+cfg.SMod,
			&HierarchyError{Op: "Allgather", Reason: "single-node world"})
	}

	nodeBuf := allocLike(mpi.Phantom(ppn * blk))
	if sbuf.Real() {
		nodeBuf = mpi.Bytes(make([]byte, ppn*blk))
	}
	p.Wait(intra.Igather(p, node, sbuf, nodeBuf, 0, coll.Params{}))
	if iAmLeader {
		p.Wait(inter.Iallgather(p, leaders, nodeBuf, rbuf, coll.Params{}))
	}
	p.Wait(intra.Ibcast(p, node, rbuf, 0, coll.Params{}))
	return nil
}

// allocLike returns a scratch buffer matching b's size and realness.
func allocLike(b mpi.Buf) mpi.Buf {
	if b.Real() {
		return mpi.Bytes(make([]byte, b.N))
	}
	return mpi.Phantom(b.N)
}
