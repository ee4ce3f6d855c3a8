package coll

import "github.com/hanrepro/han/internal/mpi"

// Tuned models Open MPI's default "tuned" collective module [Fagg et al.,
// EuroPVM/MPI'06]: flat (topology-unaware) algorithms selected by a fixed
// decision function whose thresholds were derived long ago on Gigabit
// Ethernet/Myrinet-era clusters. It is the "default Open MPI" baseline in
// every comparison figure of the paper; its weakness on modern hierarchical
// machines is precisely HAN's motivation.
type Tuned struct {
	Base
	// AVX switches the reduction loops to the vectorised throughput (used
	// by competitor personalities; Open MPI 4.0's default is scalar).
	AVX bool
}

// NewTuned returns the tuned module.
func NewTuned() *Tuned { return &Tuned{Base: Base{ModName: "tuned"}} }

const tunedPerMsg = 0.3e-6

// Decision thresholds (bytes), frozen as in the 2006-era decision function:
// binomial for small broadcasts, split-binary (a binary tree with small
// segments) for medium and large ones — choices tuned on Gigabit-era
// hardware that leave bandwidth on the table on modern hierarchical
// machines, which is exactly the gap HAN exploits (Figs 10, 12).
const (
	tunedBcastSmall    = 2 << 10  // binomial below this
	tunedBcastSeg      = 32 << 10 // split-binary segment size
	tunedAllredSmall   = 64 << 10 // recursive doubling below this
	tunedReduceChainSz = 512 << 10
)

// Name returns "tuned".
func (m *Tuned) Name() string { return "tuned" }

// Supports reports the collectives tuned implements.
func (m *Tuned) Supports(k Kind) bool {
	switch k {
	case Bcast, Reduce, Allreduce, Gather, Allgather, Scatter:
		return true
	}
	return false
}

// Algs lists the algorithms the decision function chooses among. No binary
// asks: TestBcastAllModulesAllAlgs, its Reduce and Allreduce siblings and
// the tree goldens enumerate it.
func (m *Tuned) Algs(k Kind) []Alg {
	switch k {
	case Bcast:
		return []Alg{AlgBinomial, AlgChain, AlgLinear, AlgBinary}
	case Reduce:
		return []Alg{AlgBinomial, AlgChain, AlgLinear}
	case Allreduce:
		return []Alg{AlgRecursiveDoubling, AlgRing}
	case Gather:
		return []Alg{AlgLinear}
	case Allgather:
		return []Alg{AlgRing}
	case Scatter:
		return []Alg{AlgLinear}
	}
	return nil
}

func (m *Tuned) scalarBps(p *mpi.Proc) float64 {
	if m.AVX {
		return p.W.Mach.Spec.ReduceAVXBps
	}
	return p.W.Mach.Spec.ReduceScalarBps
}

// Ibcast applies the frozen decision function: binomial for small messages,
// a segmented chain (pipeline) for everything else — reasonable on the
// hardware it was tuned for, oblivious to node boundaries on today's.
func (m *Tuned) Ibcast(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, root int, pr Params) *mpi.Request {
	alg, seg := pr.Alg, pr.Seg
	if alg == AlgDefault {
		if buf.N < tunedBcastSmall {
			alg, seg = AlgBinomial, 0
		} else {
			// Split-binary with 32 KB segments; like the real module, the
			// number of outstanding segments is capped (max_requests), so
			// segments grow for very large payloads.
			alg, seg = AlgBinary, tunedBcastSeg
			if buf.N/seg > 256 {
				seg = buf.N / 256
			}
		}
	}
	s := m.newSeq(c, nil, 0)
	s.bcastTree(p, c, buf, root, treeOf(alg), seg, tunedPerMsg, mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "tuned-ibcast")
}

// Ireduce: binomial for small, segmented chain for large payloads.
func (m *Tuned) Ireduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int, pr Params) *mpi.Request {
	alg, seg := pr.Alg, pr.Seg
	if alg == AlgDefault {
		if sbuf.N < tunedReduceChainSz {
			alg, seg = AlgBinomial, 0
		} else {
			alg, seg = AlgChain, tunedBcastSeg
		}
	}
	s := m.newSeq(c, nil, 0)
	s.reduceTree(p, c, sbuf, rbuf, op, dt, root, treeOf(alg), seg, tunedPerMsg, m.scalarBps(p), mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "tuned-ireduce")
}

// Iallreduce: recursive doubling for small messages, ring for large.
func (m *Tuned) Iallreduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, pr Params) *mpi.Request {
	alg := pr.Alg
	if alg == AlgDefault {
		if sbuf.N < tunedAllredSmall {
			alg = AlgRecursiveDoubling
		} else {
			alg = AlgRing
		}
	}
	s := m.newSeq(c, nil, 0)
	s.allreduce(alg, p, c, sbuf, rbuf, op, dt, tunedPerMsg, m.scalarBps(p), mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "tuned-iallreduce")
}

// Igather uses the linear algorithm.
func (m *Tuned) Igather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, root int, pr Params) *mpi.Request {
	s := m.newSeq(c, nil, 0)
	s.gatherLinear(p, c, sbuf, rbuf, root, tunedPerMsg, mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "tuned-igather")
}

// Iallgather uses the ring algorithm.
func (m *Tuned) Iallgather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, pr Params) *mpi.Request {
	s := m.newSeq(c, nil, 0)
	s.allgatherRing(p, c, sbuf, rbuf, tunedPerMsg, mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "tuned-iallgather")
}

// Iscatter uses the linear algorithm.
func (m *Tuned) Iscatter(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, root int, pr Params) *mpi.Request {
	s := m.newSeq(c, nil, 0)
	s.scatterLinear(p, c, sbuf, rbuf, root, tunedPerMsg, mpi.TagColl(c.NextSeq(p)))
	return s.start(p, "tuned-iscatter")
}
