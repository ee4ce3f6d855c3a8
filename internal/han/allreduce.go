package han

import (
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
)

// The allreduces mirror the broadcasts (bcast.go): every segment climbs
// the levels through a reduce each and descends through a broadcast each;
// the inter-node reduce and broadcast share root and algorithm so their
// traffic overlaps on the full-duplex fabric (section III-B1). The
// operation must be commutative; results land in rbuf on every rank.
// Mismatched buffers return a *BufferSizeError; notes and the failure
// policy are as for the broadcasts.

// Allreduce performs the hierarchical allreduce of Fig 5 on the world
// communicator: four stages per segment — sr, ir, ib, sb — overlapped
// across consecutive segments, which is exactly the paper's task schedule:
// on node leaders
//
//	sr(0), irsr(1), ibirsr(2), sbibirsr(3) … sbibirsr(u-1),
//	sbibir, sbib, sb
//
// and on the other ranks sr(0..2), sbsr(3..u-1), sb(u-3..u-1). On a
// single-node world the segments go through the intra-node allreduce
// alone, with a note.
//
// cfg.Levels widens the hierarchy as it does Bcast's. LevelsSocket runs a
// six-stage pipeline over socket, node and inter-node:
//
//	step t:  sr(t), nr(t-1), ir(t-2), ib(t-3), nb(t-4), sb(t-5)
//
// and is Allreduce on a single-socket machine. LevelsGPU reduces
// GPU-resident buffers: an NVLink reduction per node, host staging on the
// leaders, the split ir/ib inter-node exchange, and an NVLink broadcast —
// six pipelined stages per segment:
//
//	step t:  gr(t), d2h(t-1), ir(t-2), ib(t-3), h2d(t-4), gb(t-5)
//
// On a machine without GPUs it runs Allreduce and returns a *FallbackError
// note.
func (h *HAN) Allreduce(p *mpi.Proc, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, cfg Config) error {
	return h.collective(p, &call{span: "han.Allreduce", kind: coll.Allreduce, comm: h.W.World(), src: sbuf, dst: rbuf, op: op, dt: dt}, &cfg)
}

// Reduce performs a hierarchical reduction to the world rank root: the
// upward half of Allreduce's pipeline,
//
//	step t:  sr(t) on the node,  ir(t-1) on the leaders
//
// rooted at the root's node leader, and a final intra-node hop when the
// root is not a node leader. rbuf matters on the root only. Reduce has no
// survivor form: once a rank has died it returns a *RankFailedError under
// either OnFailure policy.
func (h *HAN) Reduce(p *mpi.Proc, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int, cfg Config) error {
	return h.collective(p, &call{span: "han.Reduce", kind: coll.Reduce, comm: h.W.World(), src: sbuf, dst: rbuf, op: op, dt: dt, root: root}, &cfg)
}

// AllreduceComm allreduces over communicator c with Allreduce's pipeline
// when c's member placement is regular, and the flat `tuned` allreduce —
// with a *FallbackError note — when it is not. No binary calls it: the
// AllreduceComm goldens (TestGoldenCollectiveBits) and
// TestAllreduceCommRegularAndIrregular do.
func (h *HAN) AllreduceComm(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, cfg Config) error {
	if c == h.W.World() {
		return h.Allreduce(p, sbuf, rbuf, op, dt, cfg)
	}
	return h.collective(p, &call{span: "han.AllreduceComm", kind: coll.Allreduce, comm: c, src: sbuf, dst: rbuf, op: op, dt: dt}, &cfg)
}
