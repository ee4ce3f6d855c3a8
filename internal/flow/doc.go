// Package flow implements a flow-level network model on top of the sim
// engine.
//
// A Resource is anything with a finite capacity in bytes per second: a NIC
// injection port, a memory bus, a switch link, or a CPU progress engine
// (where "bytes" are seconds of work times a capacity of 1). A Flow is a
// fixed amount of bytes crossing an ordered set of resources simultaneously
// (store-and-forward pipelining is approximated by the flow occupying its
// whole path at once, the standard flow-level simplification).
//
// Concurrent flows share resources with progressive-filling max-min
// fairness. Whenever a flow starts or completes, rates are recomputed — but
// only inside the affected connected component (flows transitively linked by
// shared resources): exactly the set of flows whose bottleneck can change.
//
// The filler keeps its scratch state resident on the resources themselves,
// validated by an epoch counter, and compacts its scan lists as flows
// freeze — no maps, no per-rebalance allocation. Its oracle is the
// definition of max-min fairness, not a second filler: after every
// rebalance of the package's golden and churn workloads, certificate_test.go
// checks that no resource carries more than its capacity and that every flow
// crosses a saturated resource on which no flow has a higher rate (DESIGN.md
// §4), and the golden rows pin the completion bits.
//
// A component has one completion armed on the engine, not one per flow.
// Between two rebalances its membership and rates are fixed, so only its
// earliest completion can be dispatched; a rebalance computes every flow's
// time to completion but arms the event of the flow that finishes first
// (rounded now+eta, ties to component order), hands the pending event from
// flow to flow when that lead changes, and cancels only the surplus events
// a merge of several components brings. When the lead completes, everything
// its component leaves behind is rebalanced and armed afresh. The event that
// fires is the one a timer per flow would have fired, with the same place
// among the engine's other events (DESIGN.md §4 has the argument;
// golden_test.go and arming_test.go hold it). The armed event calls the flow
// itself back (Flow is a sim.Handler), so a flow carries no closure.
//
// Nothing a network holds is allocated per record: flows come from an arena
// pool, resources are carved from network-owned chunks that never move, and
// a resource's list of flows starts on two slots inside it, so a cold
// machine of thousands of resources allocates per chunk.
//
// This model is what makes the HAN reproduction honest: overlap between
// inter-node and intra-node traffic emerges from resource sharing (memory
// bus, CPU progress) instead of being asserted by a formula.
//
// Network.EnableMonitor attaches an observation-only monitor that samples
// per-resource utilization at every rebalance (the only instants rates
// can change) and accounts per-flow bytes and durations; see monitor.go
// and docs/OBSERVABILITY.md §4.
//
// # Ownership
//
// A Network belongs to the engine it was built on and inherits that
// engine's single-goroutine-group ownership rule (see internal/sim). In a
// partitioned simulation (sim.Parallel, DESIGN.md §14) each partition
// builds its own group-local Network on its own engine; there is no
// network spanning partitions. Cross-partition transfers are modelled
// explicitly at the workload layer: the sending side flows the bytes
// through its local resources (NIC out, an explicit wire Resource), hands
// the completion across a sim.Link, and the receiving side flows them
// through its local NIC-in/membus — so every Resource is still touched by
// exactly one engine, and the max-min filler never needs locks.
package flow
