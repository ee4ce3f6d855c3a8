// Package sim implements a deterministic process-oriented discrete-event
// simulation engine.
//
// The engine owns a virtual clock and an event queue ordered by (time,
// sequence number), so two runs of the same program observe identical event
// orderings. Simulated processes are goroutines that cooperate with the
// engine through a strict baton-passing protocol — or Steppers, state
// machines the engine advances in place: at any instant at most one
// goroutine (either the engine or a single process) is running, which means
// all engine and process state can be mutated without locks.
//
// Processes block with Proc.Sleep and Proc.Wait (a Stepper with
// Proc.StepSleep and Proc.StepWait); other code wakes them by firing
// Signals or scheduling callbacks. A process spawned as a Stepper has no
// goroutine to park, and the parking calls on it (Sleep, Wait, WaitArmed,
// WaitAny, RunSteps) panic naming it instead of blocking the engine
// goroutine.
//
// A callback has one form, a Handler: the record it belongs to, called back
// with the op it was registered under (Engine.Call, Engine.AtInto,
// Signal.OnFire). A record that drives a protocol registers each of its
// steps as itself and an op and switches over them in Handle, so it builds
// no closure per instance; a closure registers as a Func, and At, After,
// Schedule and Subscribe take one directly. Storing either form allocates
// nothing.
//
// Routines compose. A goroutine process lends its Proc to one for the length
// of a blocking call (RunSteps); a process that is a Stepper runs another
// Stepper as a phase of its own, calling its Step until that reports done
// and passing Unwind on. Both queue the events the routine queues and no
// other, so it does not matter to the simulation which of the two a caller
// is: an MPI rank is either (mpi.World.Start, StartSteps), around the same
// barrier and collective routines.
//
// # Dispatch
//
// Five invariants hold on the dispatch path, and everything built on the
// engine (bit-identical replay, the parallel engine's oracle) leans on
// them:
//
//   - Dispatch order is (t, seq) and nothing else. The queue is a binary
//     heap written out over []*event; sequence numbers are unique, so the
//     order is total and independent of the heap's layout. Which goroutine
//     pops an event never changes which event is popped. It is one heap on
//     purpose: a FIFO beside it for events scheduled at the current instant
//     (44 % of a 4096-rank Bcast's pushes; such events are in (t, seq) order
//     as pushed) kept every golden and measured 5-14 % faster at the median,
//     but won 8 of its ten alternated pairs (17 of 20 over two series) where
//     a kept optimisation needs nine in ten (EXPERIMENTS.md "A same-instant
//     FIFO"). Keys inline in a 4-ary heap measured slower: the heap is ~3 k
//     entries and sits in L2.
//   - Scheduled callbacks (At, After, Schedule, Call, AtInto) and process
//     starts run only on the engine goroutine — the one inside Run or
//     RunUntil.
//   - A process that parks or exits may dispatch the next event itself
//     when, and only when, it is a resume the run in progress would
//     dispatch next: inside the RunUntil limit and the MaxEvents budget,
//     with no Stop or panic pending. It then wakes the target directly
//     (or just keeps running, if the resume is its own). It never
//     dispatches a callback; anything else goes back to the engine
//     goroutine. A wake-up therefore costs one goroutine switch, not two,
//     and process stacks never carry callback frames.
//   - A blocking call parks once. WaitAll — and mpi.Proc.Wait over several
//     requests — registers on every unfired signal (Arm), then parks
//     (WaitArmed); each firing signal counts the process down and the last
//     one schedules its single resume. Kill clears the count and pushes the
//     one unwind resume; Signal.Fire skips dying waiters.
//   - A step-driven process is dispatched by the same events as a goroutine
//     one. SpawnStep queues the start event Spawn queues; StepSleep queues
//     the resume Sleep queues; Arm registers on the same signals and
//     StepWait parks on them or, all having fired, carries on without an
//     event, as WaitArmed does — so a body rewritten as a Stepper moves no
//     (t, seq), and the differential in step_test.go holds the two forms to
//     the same dispatch log under Run, RunUntil, MaxEvents, Stop, Kill and
//     a panic. What changes is who runs it: the engine goroutine calls
//     Step in place at the start and resume events, and nobody else does. A
//     parking process leaves a step-driven top-of-queue to the engine
//     goroutine, so a Step never runs on another process's stack; the one
//     exception is RunSteps, where a goroutine process runs the first Step
//     of its own routine inline — it is that process's code, in its own
//     dispatch slot — before lending its Proc and parking once for the
//     rest; the engine hands the baton back in the dispatch slot of the
//     Step that reports done. Kill is the same three cases: a parked
//     Stepper gets the one unwind resume, a sleeping or unstarted one
//     already holds its event, one killed while running unwinds at its
//     next StepWait; at that event the engine calls Unwind instead of Step
//     (a lent Proc goes back to its goroutine, which unwinds out of its
//     park), and the process never runs again.
//
// Event records are pooled: large simulations (the 4096-rank HAN runs
// schedule tens of millions of events) recycle event structs instead of
// churning the garbage collector, and carve new ones in chunks, so an engine
// whose queue grows to thousands of events allocates per chunk, not per
// event. Timer handles stay safe across recycling through a generation
// counter. A Signal holds its first waiting process and its first OnFire
// callback in fields, the rest in slices that keep their capacity across
// Fire and Reset, so the signal of a pooled record — which most often has
// one of each — registers without allocating even the first time.
//
// # Processes, their list and their storage
//
// The engine keeps one list of processes: the live ones, in spawn order,
// linked through the Procs themselves. A process goes on it at its spawn and
// comes off at its finish — a goroutine process in the defer that ends its
// goroutine, a step-driven one in the dispatch of its last Step or of its
// Unwind — so the list never holds a finished process, nothing sweeps it, and
// it stays as long as what is alive however many short-lived helpers a run
// spawns. Deadlock and watchdog reports (ParkedSites) read it, and so does
// KillTagged: a layer that runs several processes for one owner tags them
// (SetTag; mpi tags a rank's main process and its helpers with the rank), and
// a crash kills the owner's live processes in the order they were spawned in.
//
// A goroutine process's Proc is the engine's own allocation. A step-driven
// process runs in storage its spawner supplies (SpawnStep): a record the
// spawner holds anyway — the rank slab of mpi.World.StartSteps, the pooled
// program of a collective's helper — so such a process costs no allocation,
// and a recycled record keeps the list of armed signals its last process
// grew. One rule makes that safe. The storage is the engine's from SpawnStep
// until the engine says it is through with the process: it ran to its end,
// is marked finished and off the list, holds no queued event and is armed on
// nothing. That moment is after the last Step has returned — which is where
// the engine's final writes are, and what the last Step completes (a
// request, whose callbacks run inline) may already want to spawn the next
// process — so an owner that recycles implements Reclaimer and returns the
// record to its pool there, not in Step. A killed process is exempt, for
// good: Kill leaves it on the waiter list of every signal it was armed on
// (Fire skips dying waiters; that is how a parked victim gets exactly one
// resume), so a later Fire must find the victim, dying, and not a successor
// in the same bytes. The engine never calls Reclaim for it, and SpawnStep
// panics on the record of a process that is still live or was killed. None
// of this moves an event: which memory a Proc occupies and when it leaves the
// list decide no (t, seq).
//
// Every yieldEvery events the engine goroutine offers its turn to the Go
// scheduler (runtime.Gosched). Step-driven processes never block, so an
// engine of them alone would run until preempted, and on a host whose every P
// runs such an engine the collector's mark workers would be scheduled once a
// preemption tick: mark phases would last 10 ms instead of well under one,
// and the simulation would pay the write barrier on its pointer stores for
// most of the run.
//
// # Ownership
//
// An Engine — together with every Proc, network, and world attached to it
// — is owned by exactly one goroutine-group at a time: the goroutine that
// calls Run plus the process goroutines Run serialises through the baton
// protocol. Nothing in the engine is locked, so touching an engine from
// any other goroutine is a data race. Engine.Run asserts it is not
// re-entered, and hanlint's fence pass enforces the invariant statically:
// it forbids bare `go` statements everywhere except internal/exec and
// internal/serve, and forbids internal/exec from importing any
// engine-owning package and internal/serve from importing this one — so
// the only host concurrency that can reach an engine runs opaque executor
// jobs, each of which builds and drains a private engine (DESIGN.md §10).
//
// # Partitioned simulation
//
// Parallel (parallel.go) runs several engines side by side under
// conservative lookahead synchronization (DESIGN.md §14): each partition
// owns a private Engine with disjoint state, partitions exchange messages
// only through Link FIFOs with declared minimum latencies, and a windowed
// coordinator advances every partition to a common horizon per round. The
// incremental-advance Engine methods this requires — RunUntil,
// NextEventTime, LiveProcs — belong to the coordinator's window loop
// alone: a row of hanlint's fence pass forbids them outside this package,
// because interleaving two RunUntil drivers (or branching on
// NextEventTime outside the barrier protocol) silently breaks the
// bit-identity contract with the serial oracle. Everyone else drives an
// engine with Engine.Run or through a Parallel coordinator. Within a
// window a partition's goroutine-group migrates to whichever host worker
// the coordinator's Runner assigns — safe because the round barrier
// establishes a happens-before edge between a partition's consecutive
// windows (exec.Pool provides exactly that barrier).
//
// NewOracle builds the reference configuration: the same partitions and
// links multiplexed onto one shared serial engine, whose event interleaving
// defines the bit-identity contract the windowed engine is held to.
package sim
