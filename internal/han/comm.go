package han

import (
	"fmt"

	"github.com/hanrepro/han/internal/mpi"
)

// This file makes HAN communicator-aware: the two-level decomposition of an
// arbitrary communicator, which BcastComm and AllreduceComm pipeline over
// when the member placement supports it. When it does not (single
// node-group, non-uniform processes per node, root not a node leader) they
// degrade to the flat `tuned` module with a typed *FallbackError note. This
// mirrors real HAN, which checks the communicator topology at module
// selection time and lets a flat component take over on irregular
// placements.

// hier is the per-communicator two-level decomposition: the caller's node
// sub-communicator (node-leader first) and the leader sub-communicator
// (one member per node, in node order).
type hier struct {
	node     *mpi.Comm
	leaders  *mpi.Comm
	isLeader bool
}

// analyze decomposes communicator c for rank p. A *HierarchyError reports
// why the two-level pipeline cannot run; the caller then degrades to a
// flat collective. relaxed waives the uniform-ppn requirement — crash
// recovery uses it so a survivor communicator missing single ranks still
// runs hierarchically, with each node group led by its first surviving
// member (the leader re-election of the recovery design).
func (h *HAN) analyze(p *mpi.Proc, c *mpi.Comm, op string, relaxed bool) (hier, error) {
	w := h.W
	if c == w.World() {
		// Fast path: the world communicator is regular by construction and
		// its node/leader comms are already cached. A single-node world
		// still reports its node communicator beside the error.
		hr := hier{node: w.NodeComm(p.Node()), leaders: w.LeaderComm(), isLeader: w.Mach.IsNodeLeader(p.Rank)}
		if w.Mach.Spec.Nodes == 1 {
			return hr, &HierarchyError{Op: op, Reason: "single-node world"}
		}
		return hr, nil
	}

	// Group the communicator's members by machine node, in comm-rank order.
	// Each group's first member acts as that node's leader within c.
	mach := w.Mach
	var nodeOrder []int
	groups := make(map[int][]int)
	for cr, wr := range commRanks(c) {
		n := mach.NodeOf(wr)
		if len(groups[n]) == 0 {
			nodeOrder = append(nodeOrder, n)
		}
		groups[n] = append(groups[n], cr)
	}
	if len(nodeOrder) == 1 {
		return hier{}, &HierarchyError{Op: op, Reason: fmt.Sprintf("all %d ranks on one node", c.Size())}
	}
	if !relaxed {
		per := len(groups[nodeOrder[0]])
		for _, n := range nodeOrder {
			if len(groups[n]) != per {
				return hier{}, &HierarchyError{Op: op, Reason: fmt.Sprintf(
					"non-uniform ppn: node %d has %d ranks, node %d has %d",
					nodeOrder[0], per, n, len(groups[n]))}
			}
		}
	}

	myNode := mach.NodeOf(p.Rank)
	leaderRanks := make([]int, len(nodeOrder))
	for i, n := range nodeOrder {
		leaderRanks[i] = groups[n][0]
	}
	node := c.Sub(fmt.Sprintf("han:node%d", myNode), groups[myNode])
	leaders := c.Sub("han:leaders", leaderRanks)
	return hier{node: node, leaders: leaders, isLeader: c.Rank(p) == groups[myNode][0]}, nil
}

// commRanks returns the communicator's world ranks indexed by comm rank.
func commRanks(c *mpi.Comm) []int {
	out := make([]int, c.Size())
	for i := range out {
		out[i] = c.WorldRank(i)
	}
	return out
}
