package coll

import (
	"fmt"

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
// The module also provides the host staging primitives (D2H/H2D over PCIe)
// HAN's GPU-aware collectives pipeline against the inter-node stages.
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
	case Bcast, Reduce, Allreduce:
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

// cpuWait charges `seconds` of work to p's CPU progress resource and blocks
// until it has been absorbed (sharing the engine with any concurrent work
// on the same rank).
func cpuWait(p *mpi.Proc, seconds float64) {
	if seconds <= 0 {
		return
	}
	f := p.W.Mach.CPUWork(p.Rank, seconds)
	p.Sim.Wait(f.Done())
}

// nvPath returns the resources a device-to-device copy between the GPUs of
// two ranks crosses (src HBM, the shared NVLink fabric, dst HBM). Ranks on
// the same GPU copy within one HBM.
func nvPath(p *mpi.Proc, srcWorld, dstWorld int) []*flow.Resource {
	mach := p.W.Mach
	node := mach.NodeOf(dstWorld)
	sg, dg := mach.GPUOf(srcWorld), mach.GPUOf(dstWorld)
	if sg == dg {
		return []*flow.Resource{mach.GPUMem(node, dg)}
	}
	return []*flow.Resource{mach.GPUMem(node, sg), mach.NVLink(node), mach.GPUMem(node, dg)}
}

// devCopy models an n-byte device-to-device copy and blocks until done.
func devCopy(p *mpi.Proc, n, srcWorld, dstWorld int) {
	if n <= 0 {
		return
	}
	f := p.W.Mach.Net.Start(float64(n), nvPath(p, srcWorld, dstWorld)...)
	p.Sim.Wait(f.Done())
}

// D2H stages n bytes from p's GPU to host memory (PCIe plus the host bus)
// and blocks until done.
func (m *CUDA) D2H(p *mpi.Proc, n int) {
	if n <= 0 {
		return
	}
	mach := p.W.Mach
	node := mach.NodeOf(p.Rank)
	g := mach.GPUOf(p.Rank)
	f := mach.Net.Start(float64(n), mach.GPUPCIe(node, g), mach.InboundBus(p.Rank))
	p.Sim.Wait(f.Done())
}

// H2D stages n bytes from host memory to p's GPU.
func (m *CUDA) H2D(p *mpi.Proc, n int) { m.D2H(p, n) } // symmetric path

// Ibcast: the root GPU exposes its buffer; every peer GPU copies it over
// NVLink (concurrent, fabric-shared).
func (m *CUDA) Ibcast(p *mpi.Proc, c *mpi.Comm, buf mpi.Buf, root int, pr Params) *mpi.Request {
	checkSingleNode("cuda.Ibcast", p, c)
	requireGPUs(p)
	st := m.ops.get(c, c.NextSeq(p), 1, false)
	me := c.Rank(p)
	if me == root {
		st.contribs[root] = snapshot(buf)
	}
	rootWorld := c.WorldRank(root)
	return async(p, "cuda-ibcast", func(hp *mpi.Proc) {
		defer st.release()
		cpuWait(hp, cudaLaunch)
		if me == root {
			st.sig(st.ready(0)).Fire(hp.W.Eng())
			return
		}
		hp.Sim.Wait(st.sig(st.ready(0)))
		cpuWait(hp, cudaPerPeer)
		devCopy(hp, buf.N, rootWorld, hp.Rank)
		if buf.Real() && st.contribs[root].Real() {
			buf.CopyFrom(st.contribs[root])
		}
	})
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
	me := c.Rank(p)
	v := vrank(me, root, n)
	part := snapshot(sbuf)
	return async(p, "cuda-ireduce", func(hp *mpi.Proc) {
		defer st.release()
		cpuWait(hp, cudaLaunch)
		st.contribs[v] = part
		st.sig(st.ready(v * (rounds + 1))).Fire(hp.W.Eng())
		for k := 0; k < rounds; k++ {
			if v&(1<<k) != 0 {
				return // partial consumed in round k
			}
			peer := v | 1<<k
			if peer < n {
				hp.Sim.Wait(st.sig(st.ready(peer*(rounds+1) + k)))
				cpuWait(hp, cudaPerPeer)
				peerWorld := c.WorldRank(unvrank(peer, root, n))
				devCopy(hp, sbuf.N, peerWorld, hp.Rank)
				// GPU fold at HBM speed, contending with concurrent copies
				// through the same device memory.
				f := hp.W.Mach.Net.Start(float64(sbuf.N), hp.W.Mach.GPUMem(hp.Node(), hp.W.Mach.GPUOf(hp.Rank)))
				hp.Sim.Wait(f.Done())
				if part.Real() {
					if pb := st.contribs[peer]; pb.Real() {
						mpi.ReduceBuf(op, dt, part, pb)
					}
				}
			}
			st.contribs[v] = part
			st.sig(st.ready(v*(rounds+1) + k + 1)).Fire(hp.W.Eng())
		}
		if rbuf.N == sbuf.N {
			rbuf.CopyFrom(part)
		}
	})
}

// Iallreduce composes Ireduce to rank 0 with Ibcast of the result.
func (m *CUDA) Iallreduce(p *mpi.Proc, c *mpi.Comm, sbuf, rbuf mpi.Buf, op mpi.Op, dt mpi.Datatype, pr Params) *mpi.Request {
	return thenBcast(p, "cuda-iallreduce", m.Ireduce(p, c, sbuf, rbuf, op, dt, 0, pr), m, c, rbuf)
}

func requireGPUs(p *mpi.Proc) {
	if !p.W.Mach.Spec.HasGPUs() {
		panic(fmt.Sprintf("coll: cuda module on GPU-less machine %s", p.W.Mach.Spec.Name))
	}
}
