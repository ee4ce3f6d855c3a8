package cluster

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/hanrepro/han/internal/flow"
	"github.com/hanrepro/han/internal/sim"
)

func TestPresetsValidate(t *testing.T) {
	for _, s := range []Spec{ShaheenII(), Stampede2(), Tuning64(), Mini(2, 2)} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if ShaheenII().Ranks() != 4096 {
		t.Errorf("Shaheen II should model 4096 processes, got %d", ShaheenII().Ranks())
	}
	if Stampede2().Ranks() != 1536 {
		t.Errorf("Stampede2 should model 1536 processes, got %d", Stampede2().Ranks())
	}
	if Tuning64().Nodes != 64 || Tuning64().PPN != 12 {
		t.Error("Tuning64 should be 64 nodes x 12 ppn")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "zero-nodes", PPN: 1, NICBandwidth: 1, MemBusBandwidth: 1, ReduceScalarBps: 1, ReduceAVXBps: 1},
		{Name: "zero-ppn", Nodes: 1, NICBandwidth: 1, MemBusBandwidth: 1, ReduceScalarBps: 1, ReduceAVXBps: 1},
		{Name: "no-nic", Nodes: 1, PPN: 1, MemBusBandwidth: 1, ReduceScalarBps: 1, ReduceAVXBps: 1},
		{Name: "neg-lat", Nodes: 1, PPN: 1, NICBandwidth: 1, MemBusBandwidth: 1, InterLatency: -1, ReduceScalarBps: 1, ReduceAVXBps: 1},
		{Name: "no-reduce", Nodes: 1, PPN: 1, NICBandwidth: 1, MemBusBandwidth: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", s.Name)
		}
	}
}

func TestMachineTopologyMapping(t *testing.T) {
	e := sim.New()
	m := NewMachine(e, Mini(3, 4))
	if m.NodeOf(0) != 0 || m.NodeOf(3) != 0 || m.NodeOf(4) != 1 || m.NodeOf(11) != 2 {
		t.Error("block rank-to-node mapping wrong")
	}
	if !m.IsNodeLeader(0) || !m.IsNodeLeader(4) || m.IsNodeLeader(5) {
		t.Error("node leader detection wrong")
	}
	if m.LocalRank(6) != 2 {
		t.Errorf("LocalRank(6) = %d, want 2", m.LocalRank(6))
	}
	// Distinct per-node resources.
	if m.NICIn(0) == m.NICIn(1) || m.NICIn(0) == m.NICOut(0) || m.MemBus(0) == m.MemBus(1) {
		t.Error("node resources not distinct")
	}
	if m.CPU(0) == m.CPU(1) {
		t.Error("per-rank CPUs not distinct")
	}
}

// IntraPath hands out paths built with the machine: the right resources for
// every pair of ranks of a node, single-socket and NUMA, and no allocation
// per call (it is asked once per shared-memory fragment per rank).
func TestIntraPathPrebuilt(t *testing.T) {
	same := func(got []*flow.Resource, want ...*flow.Resource) bool { return slices.Equal(got, want) }
	flat := NewMachine(sim.New(), Mini(3, 4))
	numa := Mini(2, 6)
	numa.SocketsPerNode = 3
	split := NewMachine(sim.New(), numa)
	for src := 0; src < flat.Spec.Ranks(); src++ {
		n := flat.NodeOf(src)
		for dst := n * 4; dst < (n+1)*4; dst++ {
			if !same(flat.IntraPath(src, dst), flat.MemBus(n)) {
				t.Fatalf("flat IntraPath(%d,%d) is not node %d's memory bus", src, dst, n)
			}
		}
	}
	for src := 0; src < split.Spec.Ranks(); src++ {
		n := split.NodeOf(src)
		for dst := n * 6; dst < (n+1)*6; dst++ {
			ss, ds := split.SocketOf(src), split.SocketOf(dst)
			want := []*flow.Resource{split.SocketBus(n, ss), split.UPI(n), split.SocketBus(n, ds)}
			if ss == ds {
				want = want[:1]
			}
			if !same(split.IntraPath(src, dst), want...) {
				t.Fatalf("NUMA IntraPath(%d,%d) wrong for sockets %d->%d of node %d", src, dst, ss, ds, n)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = flat.IntraPath(5, 6)
		_ = split.IntraPath(7, 11)
	}); n != 0 {
		t.Errorf("IntraPath allocates %v times per call pair, want 0", n)
	}
}

// A machine's build grows by chunk, not by rank: the network carves the
// resource records, the names are cut from one string and the per-rank
// lists are one array each. Every resource keeps the name it always had.
func TestMachineAllocatesPerChunk(t *testing.T) {
	build := func(nodes int) float64 {
		return testing.AllocsPerRun(5, func() { NewMachine(sim.New(), Mini(nodes, 32)) })
	}
	small, large := build(16), build(32)
	per := (large - small) / 512
	t.Logf("512 ranks: %v objects; 1024 ranks: %v; %.3f per extra rank", small, large, per)
	if per >= 0.05 {
		t.Errorf("%.3f objects per extra rank, want < 0.05", per)
	}

	spec := Mini(2, 6)
	spec.GPUsPerNode, spec.SocketsPerNode = 2, 3
	m := NewMachine(sim.New(), spec)
	named := func(r *flow.Resource, format string, args ...any) {
		t.Helper()
		if want := fmt.Sprintf(format, args...); r.Name != want {
			t.Errorf("resource named %q, want %q", r.Name, want)
		}
	}
	for n := range spec.Nodes {
		named(m.NICIn(n), "node%d.nicIn", n)
		named(m.NICOut(n), "node%d.nicOut", n)
		named(m.MemBus(n), "node%d.memBus", n)
		named(m.NVLink(n), "node%d.nvlink", n)
		named(m.UPI(n), "node%d.upi", n)
		for g := range spec.GPUsPerNode {
			named(m.GPUMem(n, g), "node%d.gpu%d.hbm", n, g)
			named(m.GPUPCIe(n, g), "node%d.gpu%d.pcie", n, g)
		}
		for s := range spec.SocketsPerNode {
			named(m.SocketBus(n, s), "node%d.sock%d.bus", n, s)
		}
	}
	for r := range spec.Ranks() {
		named(m.CPU(r), "rank%d.cpu", r)
	}
}

func TestCPUWorkTakesWorkSeconds(t *testing.T) {
	e := sim.New()
	m := NewMachine(e, Mini(1, 1))
	var end sim.Time
	e.Spawn("w", func(p *sim.Proc) {
		f := m.CPUWork(0, 0.25)
		p.Wait(f.Done())
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 0.25 {
		t.Fatalf("0.25s of CPU work finished at %v", end)
	}
}

// Property: rank <-> (node, local) mapping is a bijection.
func TestQuickRankMappingBijective(t *testing.T) {
	f := func(rawNodes, rawPPN uint8) bool {
		nodes := int(rawNodes%8) + 1
		ppn := int(rawPPN%8) + 1
		e := sim.New()
		m := NewMachine(e, Mini(nodes, ppn))
		seen := make(map[[2]int]bool)
		for r := 0; r < nodes*ppn; r++ {
			key := [2]int{m.NodeOf(r), m.LocalRank(r)}
			if seen[key] {
				return false
			}
			seen[key] = true
			if m.NodeOf(r) < 0 || m.NodeOf(r) >= nodes || m.LocalRank(r) < 0 || m.LocalRank(r) >= ppn {
				return false
			}
		}
		return len(seen) == nodes*ppn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
