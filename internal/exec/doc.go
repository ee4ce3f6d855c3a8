// Package exec implements the parallel measurement executor: a
// work-stealing pool that fans independent simulated worlds out across
// host CPUs while preserving the repository's core invariant — results
// are byte-identical regardless of worker count.
//
// The contract has three legs:
//
//  1. Jobs are independent. Each job owns every sim.Engine (world, flow
//     network, seeded RNG) it touches: the engine is created inside the
//     job body and dropped before it returns. Parallelism therefore
//     decides only *when* a measurement runs on the host, never what
//     virtual times it observes.
//  2. The executor is engine-agnostic. It treats jobs as opaque closures
//     and never imports the simulation packages — hanlint's fence pass
//     enforces the import ban, and forbids bare goroutines outside the
//     host packages (this one and internal/serve), so the only host
//     goroutines in the tree run executor jobs or serve requests.
//  3. Callers merge serially. Jobs write results into index-addressed
//     slots; everything order-sensitive (float accumulation, best-so-far
//     tie-breaking, table append order) happens after Run returns, in
//     canonical job-index order. See autotune.RunSearch for the pattern.
//
// Scheduling is work-stealing: the job index space is block-partitioned
// across workers, each worker pops from the tail of its own deque, and a
// worker that runs dry steals the front half of the fullest remaining
// deque. Measurement jobs have wildly uneven costs (a 4 MB exhaustive
// run vs a cache hit), so stealing — not static partitioning — is what
// keeps all cores busy through the tail of a sweep.
//
// Two executors serve two workload shapes. Executor (exec.go) is the
// one-shot fan-out for sweeps: spin workers up, drain one index space,
// tear down. Pool (pool.go) keeps its workers parked between rounds for
// callers that dispatch many small, repeated rounds — the parallel
// simulation coordinator (sim.Parallel, DESIGN.md §14) runs one round
// per synchronization window, thousands of times per run. Pool.Run is a
// full barrier, which is not just a convenience: the barrier's
// happens-before edge is what lets a sim partition's unsynchronized
// engine state migrate between host workers across rounds without a
// race. The same three-legged contract applies to both — Pool jobs own
// what they touch during the round and communicate only through their
// caller's per-index state.
package exec
