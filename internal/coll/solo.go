package coll

import (
	"fmt"

	"github.com/hanrepro/han/internal/mpi"
)

// SOLO models Open MPI's experimental one-sided shared-memory module: ranks
// expose their buffers through MPI one-sided windows and peers copy directly
// (a single memory crossing instead of SM's two), with AVX-accelerated
// reduction loops. The window synchronisation makes every operation pay a
// noticeable setup cost, so SOLO loses to SM for small messages and wins as
// messages grow — the behaviour behind the paper's "SOLO only above 512 KB"
// heuristic.
//
// Like SM, SOLO works on single-node communicators only and one instance
// must be shared by all ranks of a world.
type SOLO struct {
	Base
	ops *shmOps
}

// NewSOLO returns a one-sided shared-memory module instance shared by all
// ranks.
func NewSOLO() *SOLO { return &SOLO{Base: Base{ModName: "solo"}, ops: newShmOps()} }

const (
	// soloSetup is the per-operation window synchronisation cost paid by
	// every participant.
	soloSetup = 2.5e-6
	// soloPerPeer is the per-peer bookkeeping of one-sided transfers.
	soloPerPeer = 0.2e-6
)

// Name returns "solo".
func (m *SOLO) Name() string { return "solo" }

// Supports reports the collectives SOLO implements.
func (m *SOLO) Supports(k Kind) bool {
	switch k {
	case Bcast, Reduce, Allreduce, Gather, Scatter:
		return true
	}
	return false
}

// Algs returns the single (one-sided direct) algorithm per collective.
func (m *SOLO) Algs(k Kind) []Alg {
	if m.Supports(k) {
		return []Alg{AlgLinear}
	}
	return nil
}

// Ibcast: the root exposes its buffer; every other rank copies it directly
// (one crossing, concurrent across readers).
func (m *SOLO) Ibcast(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, root int, pr Params) *mpi.Request {
	checkSingleNode("solo.Ibcast", p, c)
	st := m.ops.get(c, c.NextSeq(p), 1, false)
	s := m.newSeq(c, st, 6)
	s.cpu(soloSetup)
	if c.Rank(p) == root {
		st.contribs[root] = snapshot(buf)
		s.fire(st.ready(0)) // window exposed
	} else {
		s.poll(st.ready(0), intraLatency(p))
		s.cpu(soloPerPeer)
		s.copyFrom(buf.N, c.WorldRank(root)) // single direct read
		s.payload(buf, root)
	}
	return s.start(p, "solo-ibcast")
}

// Ireduce: a tree-parallel one-sided reduction. Because every rank can
// read every other rank's exposed buffer directly, the folding work is
// spread over a binomial tree: in round k, rank v (virtual, root at 0)
// with bit k clear reads the partial of v|2^k and folds it with AVX. The
// critical path is log2(p) rounds instead of the O(p) serial folding a
// CICO leader must do — the main reason SOLO wins large reductions.
func (m *SOLO) Ireduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int, pr Params) *mpi.Request {
	checkSingleNode("solo.Ireduce", p, c)
	n := c.Size()
	// ready(v*(rounds+1)+k) fires when virtual rank v's partial for round k
	// is exposed.
	rounds := 0
	for 1<<rounds < n {
		rounds++
	}
	st := m.ops.get(c, c.NextSeq(p), n*(rounds+1), false)
	v := vrank(c.Rank(p), root, n)
	avx := p.W.Mach.Spec.ReduceAVXBps
	lat := intraLatency(p)
	// Every rank exposes a private working copy of its contribution, and
	// folds its peers' partials into it in place.
	part := snapshot(sbuf)
	st.contribs[v] = part
	s := m.newSeq(c, st, 3+7*rounds)
	s.cpu(soloSetup)
	s.fire(st.ready(v * (rounds + 1))) // round-0 partial exposed
	// A rank's partial is consumed in the round of its lowest set bit: it is
	// done then.
	for k := 0; k < rounds && v&(1<<k) == 0; k++ {
		if peer := v | 1<<k; peer < n {
			s.poll(st.ready(peer*(rounds+1)+k), lat)
			s.cpu(soloPerPeer)
			s.copyFrom(sbuf.N, c.WorldRank(unvrank(peer, root, n))) // direct read of the peer partial
			s.cpu(float64(sbuf.N) / avx)                            // AVX fold
			s.fold(op, dt, part, peer)
		}
		s.fire(st.ready(v*(rounds+1) + k + 1))
	}
	if v == 0 {
		// Hold the final result.
		if rbuf.N == sbuf.N {
			s.copy(rbuf, part)
		}
	}
	return s.start(p, "solo-ireduce")
}

// Iallreduce composes Ireduce to rank 0 with Ibcast of the result.
func (m *SOLO) Iallreduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, pr Params) *mpi.Request {
	return m.thenBcast(p, "solo-iallreduce", m.Ireduce(p, c, sbuf, rbuf, op, dt, 0, pr), m, c, rbuf)
}

// Igather: contributors expose their blocks; the root reads them all.
func (m *SOLO) Igather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, root int, pr Params) *mpi.Request {
	checkSingleNode("solo.Igather", p, c)
	st := m.ops.get(c, c.NextSeq(p), 0, true)
	me, n, blk := c.Rank(p), c.Size(), sbuf.N
	if me != root {
		st.contribs[me] = snapshot(sbuf)
		s := m.newSeq(c, st, 2)
		s.cpu(soloSetup)
		s.fire(st.childOK(me))
		return s.start(p, "solo-igather")
	}
	if rbuf.N != n*blk {
		//hanlint:allow typederr the request API has no error channel yet; burn-down tracked in DESIGN.md
		panic(fmt.Sprintf("coll: solo gather buffer %d bytes, want %d", rbuf.N, n*blk))
	}
	lat := intraLatency(p)
	s := m.newSeq(c, st, 2+5*(n-1))
	s.cpu(soloSetup)
	s.copy(rbuf.Slice(me*blk, (me+1)*blk), sbuf)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		s.poll(st.childOK(r), lat)
		s.cpu(soloPerPeer)
		s.copyFrom(blk, c.WorldRank(r))
		s.payload(rbuf.Slice(r*blk, (r+1)*blk), r)
	}
	return s.start(p, "solo-igather")
}

// Iscatter: the root exposes its buffer; rank r reads block r directly.
func (m *SOLO) Iscatter(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, root int, pr Params) *mpi.Request {
	checkSingleNode("solo.Iscatter", p, c)
	st := m.ops.get(c, c.NextSeq(p), 1, false)
	me, n, blk := c.Rank(p), c.Size(), rbuf.N
	s := m.newSeq(c, st, 6)
	s.cpu(soloSetup)
	if me != root {
		s.poll(st.ready(0), intraLatency(p))
		s.cpu(soloPerPeer)
		s.copyFrom(blk, c.WorldRank(root))
		s.payload(rbuf, me)
		return s.start(p, "solo-iscatter")
	}
	if sbuf.N != n*blk {
		//hanlint:allow typederr the request API has no error channel yet; burn-down tracked in DESIGN.md
		panic(fmt.Sprintf("coll: solo scatter buffer %d bytes, want %d", sbuf.N, n*blk))
	}
	for r := 0; r < n; r++ {
		st.contribs[r] = snapshot(sbuf.Slice(r*blk, (r+1)*blk))
	}
	s.copy(rbuf, sbuf.Slice(me*blk, (me+1)*blk))
	s.fire(st.ready(0))
	return s.start(p, "solo-iscatter")
}
