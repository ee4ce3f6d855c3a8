package coll

import (
	"fmt"
	"slices"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// SM models Open MPI's shared-memory collective module: ranks of one node
// exchange data through a small copy-in/copy-out (CICO) shared buffer,
// fragment by fragment. Setup is nearly free, which makes SM the fastest
// intra-node choice for small messages; the double copy and the per-fragment
// synchronisation make it fall behind SOLO as messages grow, and its
// reduction loops are scalar (no AVX) — exactly the trade-offs the paper
// reports.
//
// SM only works on single-node communicators (it panics otherwise), and a
// single SM instance must be shared by all ranks of a world: ranks
// rendezvous through per-operation shared state keyed by the communicator
// context and collective sequence number.
type SM struct {
	Base
	ops *shmOps
	// AVX switches the reduction loop to the vectorised throughput (the
	// real SM module is scalar; competitor personalities use this).
	AVX bool
}

// NewSM returns a shared-memory module instance to be shared by all ranks.
func NewSM() *SM { return &SM{Base: Base{ModName: "sm"}, ops: newShmOps()} }

const (
	// smFragment is the CICO fragment size.
	smFragment = 32 << 10
	// smMaxFrags caps how many fragments the simulation models per
	// operation; beyond it, fragments are coarsened and their
	// synchronisation work aggregated, keeping event counts tractable at
	// 4096 ranks without changing per-byte costs.
	smMaxFrags = 8
	// smPerFrag is the synchronisation work per smFragment bytes on the
	// critical path (flag polling, write-release), aggregated over the real
	// module's 4 KB fragments.
	smPerFrag = 0.6e-6
	// smSetup is the near-zero per-operation cost.
	smSetup = 0.3e-6
)

// smFrags splits n bytes into at most smMaxFrags modelled fragments and
// returns them plus the synchronisation work charged per modelled fragment
// (scaled so total sync work stays proportional to n/smFragment).
func smFrags(n int) (segs, float64) {
	frag := smFragment
	if (n+frag-1)/frag > smMaxFrags {
		frag = (n + smMaxFrags - 1) / smMaxFrags
	}
	sg := segments(n, frag)
	totalSync := smPerFrag * float64(max((n+smFragment-1)/smFragment, 1))
	return sg, totalSync / float64(max(sg.len(), 1))
}

type opKey struct {
	ctx, seq int
}

// shmOp is the rendezvous state of one in-flight shared-memory collective
// (used by SM, SOLO and CUDA). Its flags are one slab, sized by the first
// rank to arrive: the ready flags — indexed by fragment (bcast), comm rank
// (scatter) or tree round (solo reduce) — then, for the operations whose
// root collects, one childOK flag per comm rank: that rank finished its
// part.
type shmOp struct {
	ops      *shmOps // the table holding the operation, under key
	key      opKey
	sigs     []sim.Signal
	nReady   int
	contribs []mpi.Buf // per comm rank: snapshotted payloads (data plane)
	users    int
	slot     arena.Slot
}

// flag names one of an operation's flags, by its index in the slab.
type flag int32

func (st *shmOp) ready(i int) flag {
	_ = st.sigs[:st.nReady][i] // a ready index past nReady must not alias a childOK flag
	return flag(i)
}
func (st *shmOp) childOK(r int) flag     { return flag(st.nReady + r) }
func (st *shmOp) sig(f flag) *sim.Signal { return &st.sigs[f] }

// shmOps holds a module's in-flight operations; every rank's helper holds
// one use of its operation's entry, from get to release. Finished entries
// are recycled with their flag slab and snapshot table.
type shmOps struct {
	live map[opKey]*shmOp
	pool *arena.Pool[shmOp]
}

func newShmOps() *shmOps {
	return &shmOps{live: make(map[opKey]*shmOp), pool: arena.NewPool(arena.Options[shmOp]{
		Name: "coll.shmOp",
		Reset: func(st *shmOp) {
			for i := range st.sigs {
				st.sigs[i].Reset()
			}
			clear(st.contribs) // payload snapshots must not outlive the operation
		},
		Slot: func(st *shmOp) *arena.Slot { return &st.slot },
	})}
}

func (m *shmOps) get(c *mpi.Comm, seq, nReady int, children bool) *shmOp {
	k := opKey{c.Ctx(), seq}
	st := m.live[k]
	if st == nil {
		n := nReady
		if children {
			n += c.Size()
		}
		st = m.pool.Get()
		st.ops, st.key, st.nReady, st.users = m, k, nReady, c.Size()
		st.sigs = slices.Grow(st.sigs[:0], n)[:n]
		st.contribs = slices.Grow(st.contribs[:0], c.Size())[:c.Size()]
		m.live[k] = st
	}
	return st
}

// release gives back one rank's use of the operation; the last one drops it
// from its table.
func (st *shmOp) release() {
	st.users--
	if st.users == 0 {
		delete(st.ops.live, st.key)
		st.ops.pool.Put(st)
	}
}

// intraLatency is how long a raised flag takes to be seen by a polling rank
// of the same node.
func intraLatency(p *mpi.Proc) sim.Time { return sim.Time(p.W.Mach.Spec.IntraLatency) }

// snapshot returns an immutable copy of b (phantoms are already immutable).
func snapshot(b mpi.Buf) mpi.Buf {
	if !b.Real() {
		return b
	}
	cp := make([]byte, b.N)
	copy(cp, b.B)
	return mpi.Bytes(cp)
}

func checkSingleNode(name string, p *mpi.Proc, c *mpi.Comm) {
	node := p.W.Mach.NodeOf(c.WorldRank(0))
	for i := 1; i < c.Size(); i++ {
		if p.W.Mach.NodeOf(c.WorldRank(i)) != node {
			panic(fmt.Sprintf("coll: %s used on a communicator spanning several nodes", name))
		}
	}
}

// Name returns "sm".
func (m *SM) Name() string { return "sm" }

// Supports reports the collectives SM implements.
func (m *SM) Supports(k Kind) bool {
	switch k {
	case Bcast, Reduce, Allreduce, Gather, Scatter:
		return true
	}
	return false
}

// Algs returns the single (flat CICO) algorithm per collective. No binary
// asks: TestBcastAllModulesAllAlgs and its Reduce and Allreduce siblings
// enumerate it.
func (m *SM) Algs(k Kind) []Alg {
	if m.Supports(k) {
		return []Alg{AlgLinear}
	}
	return nil
}

// Ibcast: the root copies each fragment into the shared buffer; every other
// rank polls the fragment flag and copies it out. Fragments pipeline.
func (m *SM) Ibcast(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, root int, pr Params) *mpi.Request {
	checkSingleNode("sm.Ibcast", p, c)
	sg, perFrag := smFrags(buf.N)
	st := m.ops.get(c, c.NextSeq(p), sg.len(), false)
	s := m.newSeq(c, st, 2+4*sg.len())
	s.cpu(smSetup)
	if c.Rank(p) == root {
		st.contribs[root] = snapshot(buf)
		for i := 0; i < sg.len(); i++ {
			s.cpu(perFrag)
			s.copyIn(sg.width(i)) // copy-in
			s.fire(st.ready(i))
		}
	} else {
		lat := intraLatency(p)
		for i := 0; i < sg.len(); i++ {
			s.poll(st.ready(i), lat)
			s.cpu(perFrag)
			s.copyFrom(sg.width(i), c.WorldRank(root)) // copy-out
		}
		s.payload(buf, root)
	}
	return s.start(p, "sm-ibcast")
}

// Ireduce: every non-root rank copies its contribution in; the root copies
// each one out and folds it with the scalar reduction loop.
func (m *SM) Ireduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int, pr Params) *mpi.Request {
	checkSingleNode("sm.Ireduce", p, c)
	st := m.ops.get(c, c.NextSeq(p), 0, true)
	me, n := c.Rank(p), c.Size()
	sg, perFrag := smFrags(sbuf.N)
	if me != root {
		st.contribs[me] = snapshot(sbuf)
		s := m.newSeq(c, st, 2+2*sg.len())
		s.cpu(smSetup)
		for i := 0; i < sg.len(); i++ {
			s.cpu(perFrag)
			s.copyIn(sg.width(i)) // copy contribution in
		}
		s.fire(st.childOK(me))
		return s.start(p, "sm-ireduce")
	}
	scalar := p.W.Mach.Spec.ReduceScalarBps
	if m.AVX {
		scalar = p.W.Mach.Spec.ReduceAVXBps
	}
	lat := intraLatency(p)
	s := m.newSeq(c, st, 2+(4+2*sg.len())*(n-1))
	s.cpu(smSetup)
	if rbuf.N == sbuf.N {
		s.copy(rbuf, sbuf)
	}
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		s.poll(st.childOK(r), lat)
		for i := 0; i < sg.len(); i++ {
			s.cpu(perFrag)
			s.copyFrom(sg.width(i), c.WorldRank(r)) // copy contribution out
		}
		s.cpu(float64(sbuf.N) / scalar) // scalar fold
		s.fold(op, dt, rbuf, r)
	}
	return s.start(p, "sm-ireduce")
}

// Iallreduce composes Ireduce to rank 0 with Ibcast of the result.
func (m *SM) Iallreduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, pr Params) *mpi.Request {
	return m.thenBcast(p, "sm-iallreduce", m.Ireduce(p, c, sbuf, rbuf, op, dt, 0, pr), m, c, rbuf)
}

// Igather: each rank copies its block in; the root copies all blocks out.
func (m *SM) Igather(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, root int, pr Params) *mpi.Request {
	checkSingleNode("sm.Igather", p, c)
	st := m.ops.get(c, c.NextSeq(p), 0, true)
	me, n, blk := c.Rank(p), c.Size(), sbuf.N
	if me != root {
		st.contribs[me] = snapshot(sbuf)
		s := m.newSeq(c, st, 4)
		s.cpu(smSetup)
		s.cpu(smPerFrag)
		s.copyIn(blk)
		s.fire(st.childOK(me))
		return s.start(p, "sm-igather")
	}
	if rbuf.N != n*blk {
		//hanlint:allow typederr the request API has no error channel yet; burn-down tracked in DESIGN.md
		panic(fmt.Sprintf("coll: sm gather buffer %d bytes, want %d", rbuf.N, n*blk))
	}
	lat := intraLatency(p)
	s := m.newSeq(c, st, 2+5*(n-1))
	s.cpu(smSetup)
	s.copy(rbuf.Slice(me*blk, (me+1)*blk), sbuf)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		s.poll(st.childOK(r), lat)
		s.cpu(smPerFrag)
		s.copyFrom(blk, c.WorldRank(r))
		s.payload(rbuf.Slice(r*blk, (r+1)*blk), r)
	}
	return s.start(p, "sm-igather")
}

// Iscatter: the root copies each block in; rank r copies block r out.
func (m *SM) Iscatter(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, root int, pr Params) *mpi.Request {
	checkSingleNode("sm.Iscatter", p, c)
	me, n, blk := c.Rank(p), c.Size(), rbuf.N
	st := m.ops.get(c, c.NextSeq(p), n, false)
	if me != root {
		s := m.newSeq(c, st, 6)
		s.cpu(smSetup)
		s.poll(st.ready(me), intraLatency(p))
		s.cpu(smPerFrag)
		s.copyFrom(blk, c.WorldRank(root))
		s.payload(rbuf, me)
		return s.start(p, "sm-iscatter")
	}
	if sbuf.N != n*blk {
		//hanlint:allow typederr the request API has no error channel yet; burn-down tracked in DESIGN.md
		panic(fmt.Sprintf("coll: sm scatter buffer %d bytes, want %d", sbuf.N, n*blk))
	}
	s := m.newSeq(c, st, 2+3*(n-1))
	s.cpu(smSetup)
	for r := 0; r < n; r++ {
		block := sbuf.Slice(r*blk, (r+1)*blk)
		st.contribs[r] = snapshot(block)
		if r == root {
			s.copy(rbuf, block)
			continue
		}
		s.cpu(smPerFrag)
		s.copyIn(blk)
		s.fire(st.ready(r))
	}
	return s.start(p, "sm-iscatter")
}
