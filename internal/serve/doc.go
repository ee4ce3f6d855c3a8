// Package serve is the tuning-decision service behind cmd/hand: a
// long-running, wall-clock-concurrent server answering HAN's decision
// function — (cluster, collective, message size) → module/segment choice —
// at high QPS over immutable autotune.Table snapshots.
//
// The read path takes no lock. Every published table lives in one
// immutable map keyed by (cluster, collective) behind an atomic.Pointer
// that publishers swap RCU-style (install: copy the map, insert, store),
// so a reader's Decide is a load, a map lookup and the snapshot's
// binary-search index — it allocates nothing, never waits for a
// publisher and never observes a half-published table. A table's kinds
// are installed by one store, so they change together. Nothing caches
// decisions: autotune.Table.Decide costs less than a cache probe would.
//
// Misses collapse through an exec.Flight: when a query names a cluster
// with no published table, exactly one requester runs the configured
// Tuner (an on-demand autotune sweep in cmd/hand) while concurrent
// requesters block on its result; failed tunes are forgotten
// (Flight.Forget) so a later request can retry. A background re-tuner
// (StartRetuner) rebuilds every known table off the hot path and
// publishes fresh snapshots atomically — readers are never blocked by a
// re-tune, they just start seeing the new generation.
//
// This is the repository's first wall-clock subsystem: unlike everything
// under internal/sim, serve's concurrency is real goroutines and its
// clock is the host's. The boundary is fenced both ways — the fence lint
// pass forbids serve from importing internal/sim, and lifts its clock and
// goroutine bans for this package and internal/exec alone. Determinism here
// means semantic determinism, not bit-replay: every Decide answer equals
// the pure function of exactly one published table generation, which the
// snapshot-swap race test pins under -race.
//
// Instrumentation is exported as the hand_* metric families
// (docs/OBSERVABILITY.md): counters accumulate in atomics, Decide's latency
// histogram in one stripe per reader (a Client, a wire connection) so that
// readers write no common cache line, and PublishMetrics folds both into an
// internal/metrics registry at export time. The closed-loop load
// harness (RunLoad, wired to hanbench -serve) measures end-to-end
// QPS and latency percentiles against either an in-process client or a
// real socket speaking the length-prefixed wire protocol (wire.go).
package serve
