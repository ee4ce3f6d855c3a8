// Package cluster describes simulated HPC machines: their node counts,
// processes per node, and the capacities of the hardware resources that
// collective communication contends for (NIC injection ports, memory buses,
// per-rank CPU progress engines).
//
// Two presets mirror the evaluation platforms of the HAN paper — Shaheen II
// (Cray XC40, Aries dragonfly) and Stampede2 (Skylake, Omni-Path) — plus a
// laptop-scale Mini machine used by tests. Capacities are plausible
// published figures; the reproduction targets performance *shapes*, not the
// authors' absolute numbers.
package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/sim"
)

// Spec is the static description of a machine.
type Spec struct {
	// Name identifies the machine in reports.
	Name string
	// Nodes is the number of compute nodes.
	Nodes int
	// PPN is the number of MPI processes per node.
	PPN int

	// NICBandwidth is the per-direction injection bandwidth of a node's
	// network interface, in bytes/s.
	NICBandwidth float64
	// MemBusBandwidth is the effective bandwidth available to memory copies
	// on one node (shared-memory collectives and inbound NIC DMA), bytes/s.
	MemBusBandwidth float64
	// InterLatency is the hardware one-way latency between two nodes, in
	// seconds.
	InterLatency float64
	// IntraLatency is the one-way latency of a shared-memory handoff, in
	// seconds.
	IntraLatency float64

	// ReduceScalarBps is the throughput of a scalar (non-vectorised)
	// reduction loop, bytes/s; ReduceAVXBps is the vectorised equivalent.
	// The paper attributes HAN's small-message Allreduce gap to submodules
	// (SM, Libnbc) lacking AVX reductions.
	ReduceScalarBps float64
	ReduceAVXBps    float64

	// GPUsPerNode enables the GPU level of the paper's future work ("add a
	// new submodule to support intra-node GPU collective operations").
	// Zero keeps a CPU-only machine; larger values give each node that
	// many accelerators, assigned to ranks round-robin by local rank.
	GPUsPerNode int
	// GPUMemBandwidth is the device-memory copy bandwidth of one GPU,
	// bytes/s (HBM, e.g. ~700e9).
	GPUMemBandwidth float64
	// NVLinkBandwidth is the per-direction bandwidth of the intra-node
	// GPU-to-GPU fabric, bytes/s (e.g. ~50e9), shared by all peers.
	NVLinkBandwidth float64
	// PCIeBandwidth is the host<->device bandwidth of one GPU, bytes/s
	// (e.g. ~12e9).
	PCIeBandwidth float64

	// SocketsPerNode enables the third hierarchy level the paper lists as
	// future work. Zero or one keeps the two-level (intra/inter-node)
	// model; larger values split each node's ranks over that many NUMA
	// sockets with per-socket memory buses joined by a UPI-style link.
	SocketsPerNode int
	// SocketBusBandwidth is the per-socket copy bandwidth when
	// SocketsPerNode > 1 (defaults to MemBusBandwidth/SocketsPerNode when
	// zero).
	SocketBusBandwidth float64
	// UPIBandwidth is the cross-socket link bandwidth when SocketsPerNode
	// > 1 (defaults to half of MemBusBandwidth when zero).
	UPIBandwidth float64
}

// MultiSocket reports whether the spec models the NUMA level.
func (s Spec) MultiSocket() bool { return s.SocketsPerNode > 1 }

// RanksPerSocket returns how many ranks share one socket (PPN when the
// NUMA level is disabled).
func (s Spec) RanksPerSocket() int {
	if !s.MultiSocket() {
		return s.PPN
	}
	return (s.PPN + s.SocketsPerNode - 1) / s.SocketsPerNode
}

// Ranks returns the total number of MPI processes.
func (s Spec) Ranks() int { return s.Nodes * s.PPN }

// Validate reports whether the spec is self-consistent.
func (s Spec) Validate() error {
	switch {
	case s.Nodes <= 0:
		return fmt.Errorf("cluster: %s: Nodes must be positive, got %d", s.Name, s.Nodes)
	case s.PPN <= 0:
		return fmt.Errorf("cluster: %s: PPN must be positive, got %d", s.Name, s.PPN)
	case s.NICBandwidth <= 0 || s.MemBusBandwidth <= 0:
		return fmt.Errorf("cluster: %s: bandwidths must be positive", s.Name)
	case s.InterLatency < 0 || s.IntraLatency < 0:
		return fmt.Errorf("cluster: %s: latencies must be non-negative", s.Name)
	case s.ReduceScalarBps <= 0 || s.ReduceAVXBps <= 0:
		return fmt.Errorf("cluster: %s: reduction throughputs must be positive", s.Name)
	}
	return nil
}

// ShaheenII models the Cray XC40 used in the paper: dual-socket 16-core
// Haswell nodes (32 ranks/node in the 4096-process runs) on a Cray Aries
// dragonfly interconnect.
func ShaheenII() Spec {
	return Spec{
		Name:            "ShaheenII",
		Nodes:           128,
		PPN:             32,
		NICBandwidth:    10e9, // Aries ~10 GB/s injection per direction
		MemBusBandwidth: 30e9, // effective copy bandwidth per node
		InterLatency:    1.3e-6,
		IntraLatency:    0.25e-6,
		ReduceScalarBps: 3e9,
		ReduceAVXBps:    12e9,
	}
}

// Stampede2 models the Skylake partition used in the paper: 48-core nodes
// on Intel Omni-Path (1536 processes = 32 nodes).
func Stampede2() Spec {
	return Spec{
		Name:            "Stampede2",
		Nodes:           32,
		PPN:             48,
		NICBandwidth:    12.3e9, // Omni-Path 100 Gb/s
		MemBusBandwidth: 40e9,
		InterLatency:    1.1e-6,
		IntraLatency:    0.2e-6,
		ReduceScalarBps: 3.5e9,
		ReduceAVXBps:    14e9,
	}
}

// Tuning64 is the 64-node, 12-process/node configuration on which the paper
// runs its cost-model validation and autotuning studies (Figs 4, 7, 8, 9).
func Tuning64() Spec {
	s := ShaheenII()
	s.Name = "Tuning64"
	s.Nodes = 64
	s.PPN = 12
	return s
}

// Mini returns a small test machine with the given shape and fast, simple
// round numbers so unit tests can reason about expected costs.
func Mini(nodes, ppn int) Spec {
	return Spec{
		Name:            "Mini",
		Nodes:           nodes,
		PPN:             ppn,
		NICBandwidth:    1e9,
		MemBusBandwidth: 4e9,
		InterLatency:    1e-6,
		IntraLatency:    0.25e-6,
		ReduceScalarBps: 1e9,
		ReduceAVXBps:    4e9,
	}
}

// ByName returns the preset spec for a command-line machine name. The
// "mini" preset defaults to 4 nodes x 8 ppn; callers usually override the
// shape afterwards. It is the single lookup shared by cmd/hanbench and
// cmd/hantrace so both tools accept the same names.
func ByName(name string) (Spec, error) {
	switch name {
	case "shaheen":
		return ShaheenII(), nil
	case "stampede":
		return Stampede2(), nil
	case "tuning64":
		return Tuning64(), nil
	case "mini":
		return Mini(4, 8), nil
	}
	return Spec{}, fmt.Errorf("cluster: unknown machine %q (want one of %s)",
		name, strings.Join(PresetNames(), ", "))
}

// PresetNames lists the machine names ByName accepts, for usage strings.
func PresetNames() []string {
	return []string{"shaheen", "stampede", "tuning64", "mini"}
}

// Machine is a Spec instantiated onto a simulation: one pair of NIC
// resources and one memory bus per node, one CPU progress resource per rank.
type Machine struct {
	Spec Spec
	Eng  *sim.Engine
	Net  *flow.Network

	nicIn  []*flow.Resource
	nicOut []*flow.Resource
	// memBus and cpu are also the one-hop paths IntraPath and CPUWork hand
	// out: memBus[n:n+1] is a copy's path on node n, cpu[r:r+1] rank r's work.
	memBus []*flow.Resource
	cpu    []*flow.Resource
	// intraPath holds what IntraPath returns in NUMA mode, built once:
	// [(node*S+srcSocket)*S+dstSocket].
	intraPath [][]*flow.Resource

	// NUMA-level resources, only populated when Spec.MultiSocket().
	sockBus [][]*flow.Resource // [node][socket]
	upi     []*flow.Resource   // [node]

	// GPU-level resources, only populated when Spec.HasGPUs().
	gpuMem  [][]*flow.Resource // [node][gpu] HBM
	gpuPCIe [][]*flow.Resource // [node][gpu] host link
	nvlink  []*flow.Resource   // [node] shared GPU fabric
}

// HasGPUs reports whether the spec models accelerators.
func (s Spec) HasGPUs() bool { return s.GPUsPerNode > 0 }

// NewMachine builds the resource graph for spec on engine e. What it
// allocates grows by chunk, not by rank: the network carves the resource
// records, every name is cut from one string (names), and each list of
// resources is one array.
func NewMachine(e *sim.Engine, spec Spec) *Machine {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	net := flow.NewNetwork(e)
	m := &Machine{Spec: spec, Eng: e, Net: net}
	nodes, ranks := spec.Nodes, spec.Ranks()
	count := 3*nodes + ranks
	if spec.HasGPUs() {
		count += nodes * (2*spec.GPUsPerNode + 1)
	}
	if spec.MultiSocket() {
		count += nodes * (spec.SocketsPerNode + 1)
	}
	ns := names{net: net, buf: make([]byte, 0, 16*count), made: make([]named, 0, count)}
	m.nicIn = make([]*flow.Resource, nodes)
	m.nicOut = make([]*flow.Resource, nodes)
	m.memBus = make([]*flow.Resource, nodes)
	for n := range nodes {
		m.nicIn[n] = ns.add(spec.NICBandwidth, "node#.nicIn", n)
		m.nicOut[n] = ns.add(spec.NICBandwidth, "node#.nicOut", n)
		m.memBus[n] = ns.add(spec.MemBusBandwidth, "node#.memBus", n)
	}
	m.cpu = make([]*flow.Resource, ranks)
	for r := range ranks {
		// CPU progress engines have capacity 1.0 "work-second per second";
		// flows through them carry work expressed in seconds.
		m.cpu[r] = ns.add(1.0, "rank#.cpu", r)
	}
	if spec.HasGPUs() {
		hbm := spec.GPUMemBandwidth
		if hbm <= 0 {
			hbm = 700e9
		}
		nvl := spec.NVLinkBandwidth
		if nvl <= 0 {
			nvl = 50e9
		}
		pcie := spec.PCIeBandwidth
		if pcie <= 0 {
			pcie = 12e9
		}
		g := spec.GPUsPerNode
		m.gpuMem, m.gpuPCIe = rows(nodes, g), rows(nodes, g)
		m.nvlink = make([]*flow.Resource, nodes)
		for n := range nodes {
			for i := range g {
				m.gpuMem[n][i] = ns.add(hbm, "node#.gpu#.hbm", n, i)
				m.gpuPCIe[n][i] = ns.add(pcie, "node#.gpu#.pcie", n, i)
			}
			m.nvlink[n] = ns.add(nvl, "node#.nvlink", n)
		}
	}
	if spec.MultiSocket() {
		sockBW := spec.SocketBusBandwidth
		if sockBW <= 0 {
			sockBW = spec.MemBusBandwidth / float64(spec.SocketsPerNode)
		}
		upiBW := spec.UPIBandwidth
		if upiBW <= 0 {
			upiBW = spec.MemBusBandwidth / 2
		}
		s := spec.SocketsPerNode
		m.sockBus = rows(nodes, s)
		m.upi = make([]*flow.Resource, nodes)
		for n := range nodes {
			for i := range s {
				m.sockBus[n][i] = ns.add(sockBW, "node#.sock#.bus", n, i)
			}
			m.upi[n] = ns.add(upiBW, "node#.upi", n)
		}
		// A copy between two ranks of a node is started once per
		// shared-memory fragment per rank, and must not build its path each
		// time.
		m.intraPath = make([][]*flow.Resource, 0, nodes*s*s)
		for n := range nodes {
			for ss, sb := range m.sockBus[n] {
				for ds, db := range m.sockBus[n] {
					if ss == ds {
						m.intraPath = append(m.intraPath, m.sockBus[n][ss:ss+1:ss+1])
					} else {
						m.intraPath = append(m.intraPath, []*flow.Resource{sb, m.upi[n], db})
					}
				}
			}
		}
	}
	ns.cut()
	return m
}

// rows returns an n×k table of resources cut from one array.
func rows(n, k int) [][]*flow.Resource {
	all := make([]*flow.Resource, n*k)
	t := make([][]*flow.Resource, n)
	for i := range t {
		t[i] = all[i*k : (i+1)*k : (i+1)*k]
	}
	return t
}

// names creates a machine's resources and names them. Each name is written
// into one buffer as its resource is created; cut then hands the names out
// as pieces of one string, so naming thousands of resources costs a few
// allocations in all.
type names struct {
	net  *flow.Network
	buf  []byte
	made []named
}

// named is a resource created by names.add and where its name ends in buf.
type named struct {
	r   *flow.Resource
	end int
}

// add creates a resource of the given capacity whose name is pattern with
// each '#' replaced by the next of nums in decimal. Until cut the resource
// is named by the pattern itself, which is what a capacity panic prints.
func (ns *names) add(capacity float64, pattern string, nums ...int) *flow.Resource {
	r := ns.net.NewResource(pattern, capacity)
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '#' {
			ns.buf = strconv.AppendInt(ns.buf, int64(nums[0]), 10)
			nums = nums[1:]
			continue
		}
		ns.buf = append(ns.buf, pattern[i])
	}
	ns.made = append(ns.made, named{r, len(ns.buf)})
	return r
}

// cut gives every resource add created its name.
func (ns *names) cut() {
	all, start := string(ns.buf), 0
	for _, x := range ns.made {
		x.r.Name = all[start:x.end]
		start = x.end
	}
}

// SocketOf returns the socket index of world rank r within its node (0 when
// the NUMA level is disabled).
func (m *Machine) SocketOf(r int) int {
	if !m.Spec.MultiSocket() {
		return 0
	}
	return m.LocalRank(r) / m.Spec.RanksPerSocket()
}

// IsSocketLeader reports whether rank r is the first rank on its socket.
func (m *Machine) IsSocketLeader(r int) bool {
	if !m.Spec.MultiSocket() {
		return m.IsNodeLeader(r)
	}
	return m.LocalRank(r)%m.Spec.RanksPerSocket() == 0
}

// SocketBus returns the per-socket memory bus (NUMA mode only).
func (m *Machine) SocketBus(node, socket int) *flow.Resource { return m.sockBus[node][socket] }

// UPI returns the cross-socket link of a node (NUMA mode only).
func (m *Machine) UPI(node int) *flow.Resource { return m.upi[node] }

// IntraPath returns the resources an intra-node copy between two world
// ranks crosses: the shared memory bus on a single-socket node, or the
// per-socket buses plus the UPI link when the copy crosses sockets. The
// slice is the machine's own, shared by every caller: read it or hand it to
// Network.StartOn (which copies it), never modify it.
func (m *Machine) IntraPath(src, dst int) []*flow.Resource {
	n := m.NodeOf(src)
	if !m.Spec.MultiSocket() {
		return m.memBus[n : n+1 : n+1]
	}
	s := m.Spec.SocketsPerNode
	return m.intraPath[(n*s+m.SocketOf(src))*s+m.SocketOf(dst)]
}

// InboundBus returns the resource inbound NIC DMA writes through on rank
// r's node: the node bus, or r's socket bus in NUMA mode.
func (m *Machine) InboundBus(r int) *flow.Resource {
	n := m.NodeOf(r)
	if !m.Spec.MultiSocket() {
		return m.MemBus(n)
	}
	return m.SocketBus(n, m.SocketOf(r))
}

// NodeOf returns the node index hosting world rank r (block distribution,
// as produced by typical batch launchers).
func (m *Machine) NodeOf(r int) int { return r / m.Spec.PPN }

// LocalRank returns r's index within its node.
func (m *Machine) LocalRank(r int) int { return r % m.Spec.PPN }

// IsNodeLeader reports whether rank r is the first rank on its node.
func (m *Machine) IsNodeLeader(r int) bool { return m.LocalRank(r) == 0 }

// NICIn returns the inbound NIC resource of node n.
func (m *Machine) NICIn(n int) *flow.Resource { return m.nicIn[n] }

// NICOut returns the outbound NIC resource of node n.
func (m *Machine) NICOut(n int) *flow.Resource { return m.nicOut[n] }

// MemBus returns the memory-bus resource of node n.
func (m *Machine) MemBus(n int) *flow.Resource { return m.memBus[n] }

// CPU returns the progress-engine resource of world rank r.
func (m *Machine) CPU(r int) *flow.Resource { return m.cpu[r] }

// GPUOf returns the GPU index serving world rank r on its node (round-robin
// over local ranks). Panics when the machine has no GPUs.
func (m *Machine) GPUOf(r int) int {
	if !m.Spec.HasGPUs() {
		panic("cluster: GPUOf on a machine without GPUs")
	}
	return m.LocalRank(r) % m.Spec.GPUsPerNode
}

// GPUMem returns the HBM resource of (node, gpu).
func (m *Machine) GPUMem(node, gpu int) *flow.Resource { return m.gpuMem[node][gpu] }

// GPUPCIe returns the host-link resource of (node, gpu).
func (m *Machine) GPUPCIe(node, gpu int) *flow.Resource { return m.gpuPCIe[node][gpu] }

// NVLink returns the shared intra-node GPU fabric of a node.
func (m *Machine) NVLink(node int) *flow.Resource { return m.nvlink[node] }

// CPUWork starts a flow of `seconds` of work on rank r's CPU. Concurrent
// work on the same rank shares the progress engine — this is how the
// simulation reproduces the paper's observation that ib and sb "share the
// same CPU resource to progress" in single-threaded MPI.
func (m *Machine) CPUWork(r int, seconds float64) *flow.Flow {
	return m.Net.StartOn(seconds, m.cpu[r:r+1])
}
