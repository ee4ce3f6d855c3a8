package coll

import (
	"fmt"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/mpi"
)

// CUDA models the intra-node GPU collective submodule of the paper's future
// work ("add a new submodule to support intra-node GPU collective
// operations and combine it with the existing inter-node submodules").
// Buffers are GPU-resident; peers move data directly over the node's shared
// NVLink fabric (one crossing, like SOLO but between device memories), and
// reductions run on the GPU at device-memory bandwidth — far above any CPU
// loop, at the price of a kernel-launch latency per operation.
//
// The module also provides the host staging primitives (D2H/H2D over PCIe,
// and H2DBcast, an upload chained to the broadcast) HAN's GPU-aware
// collectives pipeline against the inter-node stages.
//
// Like the other shared-memory modules, one instance must be shared by all
// ranks of a world, and communicators must be single-node.
type CUDA struct {
	Base
	ops *shmOps
}

// NewCUDA returns a GPU collective module instance shared by all ranks.
func NewCUDA() *CUDA { return &CUDA{Base: Base{ModName: "cuda"}, ops: newShmOps()} }

const (
	// cudaLaunch is the kernel-launch plus stream-synchronisation latency
	// paid per operation by every participant.
	cudaLaunch = 8e-6
	// cudaPerPeer is the per-peer copy bookkeeping.
	cudaPerPeer = 0.5e-6
)

// Name returns "cuda".
func (m *CUDA) Name() string { return "cuda" }

// Supports reports the collectives the GPU module implements.
func (m *CUDA) Supports(k Kind) bool {
	switch k {
	case Bcast, Reduce:
		return true
	}
	return false
}

// Algs returns the single (NVLink direct) algorithm per collective.
func (m *CUDA) Algs(k Kind) []Alg {
	if m.Supports(k) {
		return []Alg{AlgLinear}
	}
	return nil
}

// nvPath returns the resources a device-to-device copy between the GPUs of
// two ranks crosses (src HBM, the shared NVLink fabric, dst HBM). Ranks on
// the same GPU copy within one HBM.
func nvPath(mach *cluster.Machine, srcWorld, dstWorld int) []*flow.Resource {
	node := mach.NodeOf(dstWorld)
	sg, dg := mach.GPUOf(srcWorld), mach.GPUOf(dstWorld)
	if sg == dg {
		return []*flow.Resource{mach.GPUMem(node, dg)}
	}
	return []*flow.Resource{mach.GPUMem(node, sg), mach.NVLink(node), mach.GPUMem(node, dg)}
}

// D2H stages n bytes from p's GPU to host memory (PCIe plus the host bus) in
// a helper of p's rank, and returns the request that completes when they
// have landed. H2D is the way back, over the same path.
func (m *CUDA) D2H(p *mpi.Proc, n int) *mpi.Request { return m.stage(p, n, "d2h") }

func (m *CUDA) H2D(p *mpi.Proc, n int) *mpi.Request { return m.stage(p, n, "h2d") }

func (m *CUDA) stage(p *mpi.Proc, n int, name string) *mpi.Request {
	s := m.newSeq(nil, nil, 1)
	s.pcie(n)
	return s.start(p, name)
}

// H2DBcast stages buf from host memory to p's GPU, then broadcasts it over c
// from root as Ibcast does, in one helper: the request completes when both
// have.
func (m *CUDA) H2DBcast(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, root int) *mpi.Request {
	s := m.newSeq(c, nil, 3)
	s.pcie(buf.N)
	s.wait(s.ibcast(m, buf, root), 1)
	return s.start(p, "h2d-gb")
}

// Ibcast: the root GPU exposes its buffer; every peer GPU copies it over
// NVLink (concurrent, fabric-shared).
func (m *CUDA) Ibcast(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, root int, pr Params) *mpi.Request {
	checkSingleNode("cuda.Ibcast", p, c)
	requireGPUs(p)
	st := m.ops.get(c, c.NextSeq(p), 1, false)
	s := m.newSeq(c, st, 5)
	s.cpu(cudaLaunch)
	if c.Rank(p) == root {
		st.contribs[root] = snapshot(buf)
		s.fire(st.ready(0))
	} else {
		s.waitFlag(st.ready(0))
		s.cpu(cudaPerPeer)
		s.devCopy(buf.N, c.WorldRank(root))
		s.payload(buf, root)
	}
	return s.start(p, "cuda-ibcast")
}

// Ireduce: a binomial tree over the node's GPUs; folding runs at HBM
// bandwidth on the consuming GPU.
func (m *CUDA) Ireduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, root int, pr Params) *mpi.Request {
	checkSingleNode("cuda.Ireduce", p, c)
	requireGPUs(p)
	n := c.Size()
	rounds := 0
	for 1<<rounds < n {
		rounds++
	}
	st := m.ops.get(c, c.NextSeq(p), n*(rounds+1), false)
	v := vrank(c.Rank(p), root, n)
	part := snapshot(sbuf)
	st.contribs[v] = part
	s := m.newSeq(c, st, 3+6*rounds)
	s.cpu(cudaLaunch)
	s.fire(st.ready(v * (rounds + 1)))
	// A partial consumed in round k (v's lowest set bit) ends the program.
	for k := 0; k < rounds && v&(1<<k) == 0; k++ {
		if peer := v | 1<<k; peer < n {
			s.waitFlag(st.ready(peer*(rounds+1) + k))
			s.cpu(cudaPerPeer)
			s.devCopy(sbuf.N, c.WorldRank(unvrank(peer, root, n)))
			s.hbm(sbuf.N)
			s.fold(op, dt, part, peer)
		}
		s.fire(st.ready(v*(rounds+1) + k + 1))
	}
	if v == 0 && rbuf.N == sbuf.N {
		s.copy(rbuf, part)
	}
	return s.start(p, "cuda-ireduce")
}

func requireGPUs(p *mpi.Proc) {
	if !p.W.Mach.Spec.HasGPUs() {
		panic(fmt.Sprintf("coll: cuda module on GPU-less machine %s", p.W.Mach.Spec.Name))
	}
}
