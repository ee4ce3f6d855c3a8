package coll

import "github.com/hanrepro/han/internal/mpi"

// Libnbc models Open MPI's legacy non-blocking collectives module [Hoefler
// et al., SC'07]: simple linear and binomial schedules, no internal
// segmentation, round-based progression (comparatively high per-message
// overhead), and scalar (non-AVX) reduction loops.
type Libnbc struct {
	Base
	// AVX switches the reduction loops to the vectorised throughput;
	// Open MPI's libnbc is scalar, but competitor personalities
	// (internal/rivals) use this to model AVX-enabled libraries.
	AVX bool
}

// NewLibnbc returns the libnbc module.
func NewLibnbc() *Libnbc { return &Libnbc{Base: Base{ModName: "libnbc"}} }

// Per-message progression work of the round-based schedule engine.
const libnbcPerMsg = 0.6e-6

// Per-operation schedule construction cost.
const libnbcSetup = 1.0e-6

// Name returns "libnbc".
func (m *Libnbc) Name() string { return "libnbc" }

// Supports reports the collectives libnbc implements.
func (m *Libnbc) Supports(k Kind) bool {
	switch k {
	case Bcast, Reduce, Allreduce, Gather, Allgather, Scatter:
		return true
	}
	return false
}

// Algs lists libnbc's selectable algorithms per collective.
func (m *Libnbc) Algs(k Kind) []Alg {
	switch k {
	case Bcast, Reduce, Scatter:
		return []Alg{AlgLinear, AlgBinomial}
	case Allreduce:
		return []Alg{AlgRecursiveDoubling, AlgRing}
	case Gather:
		return []Alg{AlgLinear}
	case Allgather:
		return []Alg{AlgRing}
	}
	return nil
}

func (m *Libnbc) scalarBps(p *mpi.Proc) float64 {
	if m.AVX {
		return p.W.Mach.Spec.ReduceAVXBps
	}
	return p.W.Mach.Spec.ReduceScalarBps
}

// Ibcast starts a non-blocking broadcast. Libnbc ignores pr.Seg (no
// internal segmentation).
func (m *Libnbc) Ibcast(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, root int, pr Params) *mpi.Request {
	alg := pickAlg(pr, AlgBinomial, m.Algs(Bcast))
	s := m.newSeq(c, nil, 0)
	s.cpu(libnbcSetup)
	s.bcastTree(p, c, buf, root, treeOf(alg), 0, libnbcPerMsg, mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "libnbc-ibcast")
}

// Ireduce starts a non-blocking reduction to root.
func (m *Libnbc) Ireduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int, pr Params) *mpi.Request {
	alg := pickAlg(pr, AlgBinomial, m.Algs(Reduce))
	s := m.newSeq(c, nil, 0)
	s.cpu(libnbcSetup)
	s.reduceTree(p, c, sbuf, rbuf, op, dt, root, treeOf(alg), 0, libnbcPerMsg, m.scalarBps(p), mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "libnbc-ireduce")
}

// Iallreduce starts a non-blocking allreduce.
func (m *Libnbc) Iallreduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, pr Params) *mpi.Request {
	alg := pickAlg(pr, AlgRecursiveDoubling, m.Algs(Allreduce))
	s := m.newSeq(c, nil, 0)
	s.cpu(libnbcSetup)
	s.allreduce(alg, p, c, sbuf, rbuf, op, dt, libnbcPerMsg, m.scalarBps(p), mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "libnbc-iallreduce")
}

// Igather starts a non-blocking gather to root.
func (m *Libnbc) Igather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, root int, pr Params) *mpi.Request {
	s := m.newSeq(c, nil, 0)
	s.cpu(libnbcSetup)
	s.gatherLinear(p, c, sbuf, rbuf, root, libnbcPerMsg, mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "libnbc-igather")
}

// Iallgather starts a non-blocking allgather.
func (m *Libnbc) Iallgather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, pr Params) *mpi.Request {
	s := m.newSeq(c, nil, 0)
	s.cpu(libnbcSetup)
	s.allgatherRing(p, c, sbuf, rbuf, libnbcPerMsg, mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "libnbc-iallgather")
}

// Iscatter starts a non-blocking scatter from root.
func (m *Libnbc) Iscatter(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, root int, pr Params) *mpi.Request {
	s := m.newSeq(c, nil, 0)
	s.cpu(libnbcSetup)
	s.scatterLinear(p, c, sbuf, rbuf, root, libnbcPerMsg, mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "libnbc-iscatter")
}
