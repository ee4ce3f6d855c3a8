package coll

import "github.com/hanrepro/han/internal/mpi"

// Adapt models the ADAPT module [Luo et al., HPDC'18]: event-driven
// non-blocking collectives with chain, binary, and binomial topologies,
// internal segmentation (the paper's ibs/irs knobs), very low progression
// overhead, and AVX-accelerated reductions.
type Adapt struct{ Base }

// NewAdapt returns the ADAPT module.
func NewAdapt() *Adapt { return &Adapt{Base{ModName: "adapt"}} }

// Event-driven progression: callbacks instead of schedule rounds.
const adaptPerMsg = 0.15e-6

// Context setup for the event-driven state machine.
const adaptSetup = 1.2e-6

// adaptDefaultSeg is used when the caller does not pin an internal segment
// size.
const adaptDefaultSeg = 64 << 10

// Name returns "adapt".
func (m *Adapt) Name() string { return "adapt" }

// Supports reports the collectives ADAPT implements (bcast and reduce, as
// in the published module; allreduce composes them).
func (m *Adapt) Supports(k Kind) bool {
	switch k {
	case Bcast, Reduce, Allreduce:
		return true
	}
	return false
}

// Algs lists ADAPT's tree topologies.
func (m *Adapt) Algs(k Kind) []Alg {
	switch k {
	case Bcast, Reduce, Allreduce:
		return []Alg{AlgChain, AlgBinary, AlgBinomial}
	}
	return nil
}

func (m *Adapt) seg(pr Params) int {
	if pr.Seg > 0 {
		return pr.Seg
	}
	return adaptDefaultSeg
}

func (m *Adapt) avxBps(p *mpi.Proc) float64 { return p.W.Mach.Spec.ReduceAVXBps }

// Ibcast starts an event-driven segmented broadcast.
func (m *Adapt) Ibcast(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, root int, pr Params) *mpi.Request {
	alg := pickAlg(pr, AlgBinary, m.Algs(Bcast))
	s := m.newSeq(c, nil, 0)
	s.cpu(adaptSetup)
	s.bcastTree(p, c, buf, root, treeOf(alg), m.seg(pr), adaptPerMsg, mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "adapt-ibcast")
}

// Ireduce starts an event-driven segmented reduction to root.
func (m *Adapt) Ireduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int, pr Params) *mpi.Request {
	alg := pickAlg(pr, AlgBinary, m.Algs(Reduce))
	s := m.newSeq(c, nil, 0)
	s.cpu(adaptSetup)
	s.reduceTree(p, c, sbuf, rbuf, op, dt, root, treeOf(alg), m.seg(pr), adaptPerMsg, m.avxBps(p), mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "adapt-ireduce")
}

// Iallreduce composes Ireduce and Ibcast rooted at rank 0 with the same
// topology — the same structure HAN exploits at the inter-node level.
func (m *Adapt) Iallreduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, pr Params) *mpi.Request {
	alg := pickAlg(pr, AlgBinary, m.Algs(Allreduce))
	rtag := mpi.TagColl(c.NextSeq(p))
	btag := mpi.TagColl(c.NextSeq(p))
	s := m.newSeq(c, nil, 0)
	s.cpu(adaptSetup)
	s.reduceTree(p, c, sbuf, rbuf, op, dt, 0, treeOf(alg), m.seg(pr), adaptPerMsg, m.avxBps(p), rtag)
	s.bcastTree(p, c, rbuf, 0, treeOf(alg), m.seg(pr), adaptPerMsg, btag)
	return s.start(p, "adapt-iallreduce")
}
