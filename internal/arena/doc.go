// Package arena provides typed slab/freelist pools for the simulator's
// hot-path records (flows, requests, message envelopes), so a steady-state
// collective allocates near zero per iteration.
//
// A Pool[T] owns slabs of T and hands out slot pointers with Get/Put. Slots
// are initialised exactly once, when their slab is carved — the Init hook
// wires the slot to its owner and builds no closure: a slot's callbacks are
// its own methods, reached through the engine's one callback form
// (sim.Handler), so a slab costs one allocation however many steps its
// records drive. The Reset hook runs on every Put and must return the slot
// to its ready-for-reuse state (truncate slices in place, clear references
// so the slab does not pin dead objects).
//
// Ownership and lifecycle rules are deliberately strict (DESIGN.md §11):
// a pool, like the engine it serves, belongs to one goroutine-group; no
// locking anywhere. Objects are returned exactly once, by their owning
// package, at a point where no live reference remains. Debug builds verify
// both: every slot embedding a Slot header carries a generation counter
// bumped on Put, double-Put panics, and with Debug set slots are
// quarantined (never reused) so stale generation-tagged Handles keep
// failing loudly instead of aliasing a reincarnation.
//
// In a partitioned simulation (sim.Parallel, DESIGN.md §14) pools follow
// their owners: each partition's flow network and mpi world create their
// own pools on construction, so a pool is only ever touched by the
// goroutine-group of the one engine it serves — partition migration
// between host workers is safe because the coordinator's round barrier
// orders each partition's windows.
package arena
