package han

import (
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
)

// The broadcasts share the prologue (collective.go) and the step loop
// (pipeline.go); a stage table lists a step's tasks in issue order. Each
// completes correctly; a non-nil return is a *FallbackError note of a
// degraded path, a *ConfigError, or — once ranks have died — the OnFailure
// policy's verdict: Abort returns a *RankFailedError, Shrink completes on
// the survivors with the two-level pipeline (the root must survive). A
// Config that sets nothing but Levels lets the decision function
// (autotuned or default) pick the configuration.

// Bcast performs the hierarchical broadcast of Fig 1 on the world
// communicator from world rank root. The message is split into u =
// ceil(m/fs) segments; node leaders execute
//
//	ib(0), sbib(1), …, sbib(u-1), sb(u-1)
//
// where sbib(i) runs the inter-node broadcast of segment i concurrently
// with the intra-node broadcast of segment i-1, and the remaining ranks
// execute sb(0) … sb(u-1). A root that is not its node's leader feeds its
// segments to the leader first and still takes part in the sb tasks. On a
// single-node world the segments go through the intra-node module alone,
// with a note.
//
// cfg.Levels widens the hierarchy, the paper's future work. LevelsSocket
// ("an increased number of hardware levels"), on machines whose Spec
// models NUMA sockets, broadcasts over socket, node (the socket leaders)
// and inter-node, with one more task, nb, between ib and sb:
//
//	step t:  ib(t) on the leaders,  nb(t-1) on the socket leaders,  sb(t-2) on the socket
//
// On a single-socket machine that is the two-level broadcast. LevelsGPU
// broadcasts a GPU-resident buffer by combining the intra-node GPU
// submodule (coll.CUDA) with the inter-node ones. Without GPUDirect the
// inter-node stage works on host copies, so the PCIe stagings are tasks of
// the pipeline rather than hidden costs:
//
//	step t:  d2h(t) at the root,  ib(t-1) on the leaders,  gb(t-2) on the node's GPUs
//
// where the leaders that received a segment over the network upload it
// (h2d) as the first half of their gb. Both need a node-leader root; with
// any other root, or LevelsGPU on a machine without GPUs, the call runs the
// two-level broadcast (whose shuffle handles a general root) and returns a
// *FallbackError note.
func (h *HAN) Bcast(p *mpi.Proc, buf mpi.Buf, root int, cfg Config) error {
	return h.collective(p, &call{span: "han.Bcast", kind: coll.Bcast, comm: h.W.World(), dst: buf, root: root}, &cfg)
}

// BcastComm broadcasts buf from comm rank root over communicator c using
// Bcast's two-level pipeline when c's member placement is regular and the
// root leads its node group, and the flat `tuned` broadcast — with a
// *FallbackError note — when not. No binary calls it: the BcastComm
// goldens (TestGoldenCollectiveBits) and TestBcastCommRegularSubcomm do.
func (h *HAN) BcastComm(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, root int, cfg Config) error {
	if c == h.W.World() {
		return h.Bcast(p, buf, root, cfg)
	}
	return h.collective(p, &call{span: "han.BcastComm", kind: coll.Bcast, comm: c, dst: buf, root: root}, &cfg)
}
