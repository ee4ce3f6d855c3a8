package han

import (
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
)

// The block collectives the paper lists as straightforward extensions of
// the task-based design ("similar designs can be extended to other
// collective operations, such as MPI_Reduce, MPI_Gather, and
// MPI_Allgather") move one block per rank, laid out in world-rank order,
// over the same two levels, prologue and step loop as the others. A stage's
// extent depends on its level — a rank's block on the node, a node's blocks
// among the leaders, the world's at the top — so they run as one segment,
// and the inter-node level falls back to libnbc where the configured module
// lacks the operation (adapt). Notes and buffer errors are as for the
// allreduces; like Reduce they have no survivor form, so once a rank has
// died they return a *RankFailedError under either OnFailure policy.

// Gather collects each rank's sbuf block into rbuf at world rank root:
//
//	sg on the node,  then ig of the node blocks on the leaders
//
// rooted at the root's node leader, and a final intra-node hop when the
// root is not a node leader. rbuf matters on the root only.
func (h *HAN) Gather(p *mpi.Proc, sbuf, rbuf mpi.Buf, root int, cfg Config) error {
	return h.collective(p, &call{span: "han.Gather", kind: coll.Gather, comm: h.W.World(), src: sbuf, dst: rbuf, root: root}, &cfg)
}

// Scatter distributes the rbuf-sized blocks of world rank root's sbuf, one
// to every rank:
//
//	is of the node blocks on the leaders,  then ss on the node
//
// A root that is not a node leader feeds sbuf to its leader first. sbuf
// matters on the root only.
func (h *HAN) Scatter(p *mpi.Proc, sbuf, rbuf mpi.Buf, root int, cfg Config) error {
	return h.collective(p, &call{span: "han.Scatter", kind: coll.Scatter, comm: h.W.World(), src: sbuf, dst: rbuf, root: root}, &cfg)
}

// Allgather concatenates every rank's sbuf block into rbuf on all ranks:
//
//	sg on the node,  iag of the node blocks on the leaders,  sb of the result on the node
func (h *HAN) Allgather(p *mpi.Proc, sbuf, rbuf mpi.Buf, cfg Config) error {
	return h.collective(p, &call{span: "han.Allgather", kind: coll.Allgather, comm: h.W.World(), src: sbuf, dst: rbuf}, &cfg)
}
