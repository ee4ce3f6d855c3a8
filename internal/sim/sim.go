package sim

import (
	"fmt"
	"runtime"
	"sort"
)

// Time is a point in virtual time, in seconds since the start of the run.
type Time float64

// Event kinds.
const (
	evCallback = iota // run fn inline in the engine goroutine
	evStart           // start a process: its goroutine, or its first Step
	evResume          // hand the baton to a parked process, or run its next Step
)

// Handler is the engine's one callback form: the record a callback belongs
// to, called back with the op it was registered under. Events and Signal
// callbacks hold a Handler and an op, so a record that drives a protocol — a
// flow, a send, a receive — registers each of its steps as itself and a
// small integer, and a pool of such records builds no closure per slot.
// Func adapts a closure; At and Schedule take one and hold it as a Func,
// which allocates nothing beyond the closure.
type Handler interface {
	Handle(op int)
}

// Func is a closure as a Handler: Handle calls it and ignores the op.
type Func func()

// Handle calls f.
func (f Func) Handle(int) { f() }

// callback is a registered Handler and the op it is called back with; a
// zero callback is none.
type callback struct {
	h  Handler
	op int
}

func (c callback) run() { c.h.Handle(c.op) }

type event struct {
	t         Time
	seq       uint64
	kind      uint8
	cancelled bool
	cb        callback
	p         *Proc
	body      func(*Proc)
	// in is the instant the event is queued in (nil once it is not), and
	// prev and next its neighbours there (queue.go): a pending timer is
	// rearmed by taking it out and queueing it again, not by leaving a
	// lazily-cancelled tombstone behind.
	in         *instant
	prev, next *event
	// gen increments every time the struct is returned to the pool, so a
	// stale Timer that outlived its event cannot cancel an unrelated
	// reincarnation of the same struct.
	gen uint64
}

// Timer is a handle to a scheduled callback that can be cancelled before it
// fires. Cancelling an already-fired or already-cancelled timer is a no-op,
// as is cancelling the zero Timer or a nil *Timer. The zero Timer value is
// valid and represents "nothing scheduled"; Engine.AfterInto rearms it in
// place without allocating.
type Timer struct {
	ev  *event
	gen uint64
	at  Time
}

// Cancel prevents the timer's callback from running.
func (t *Timer) Cancel() {
	if t != nil && t.ev != nil && t.ev.gen == t.gen {
		t.ev.cancelled = true
	}
}

// When reports the virtual time the timer was most recently scheduled to
// fire at. It is nil-safe: a nil or never-armed timer reports 0. No binary
// asks: the flow arming walker (checkComponent in flow's arming_test.go)
// checks each component's armed time with it, and TestTimerWhenNilSafe
// pins it.
func (t *Timer) When() Time {
	if t == nil {
		return 0
	}
	return t.at
}

// Active reports whether the timer's callback is still pending (armed, not
// fired, not cancelled).
func (t *Timer) Active() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen && !t.ev.cancelled
}

// Engine is a discrete-event simulation scheduler. The zero value is not
// usable; create engines with New.
type Engine struct {
	now Time
	// instants is the event queue's heap of distinct times, newest its
	// table of the instant last opened per slot, and spare the instant
	// records not in use (queue.go).
	instants []*instant
	newest   [1 << newestBits]*instant
	spare    *instant
	seq      uint64
	live     int // processes spawned and not yet finished
	// head and tail are the ends of the list of those processes, in spawn
	// order, linked through the processes themselves: a process is on it from
	// its spawn to its finish, so reports and KillTagged walk what is alive
	// and nothing holds a finished process.
	head, tail *Proc
	yield      chan struct{} // baton: process -> engine
	free       []*event      // recycled event structs
	carved     int           // event records carved so far (carve)
	// panicVal carries a panic out of a process goroutine so that Run can
	// re-panic in the caller's goroutine with useful context.
	panicVal interface{}
	// MaxEvents, when non-zero, aborts Run with ErrEventBudget after
	// dispatching that many events. It is a guard against accidental
	// non-termination in tests.
	MaxEvents  uint64
	dispatched uint64
	// stopErr, when set via Stop, aborts Run with that error after the
	// current event finishes dispatching.
	stopErr error
	// running guards against two goroutines driving one engine: Run
	// asserts it is not already set. It is a plain bool on purpose — the
	// ownership contract says a second concurrent Run must never happen,
	// so a racy read only affects how reliably the violation is reported,
	// never a correct program.
	running bool
	// limit and bounded are the window of the run in progress (see run),
	// kept here so a parking process dispatches under the same limit as
	// the engine goroutine.
	limit   Time
	bounded bool
	// goroutines and parks count what the host pays for process-oriented
	// code: goroutines started, and blocking calls that gave the baton up;
	// rearms counts pending timers retargeted where they sat in the queue.
	goroutines, parks, rearms uint64
}

// New returns a ready-to-use Engine with the clock at zero.
func New() *Engine {
	return &Engine{yield: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Reset returns a drained engine to the state New leaves it in, so that the
// next run draws exactly the (t, seq) a new engine would: the clock, the
// sequence counter, the dispatch count and the host-cost counters go back to
// zero. What the engine grew stays — the event records it recycles. It is
// valid only between runs, with no live process and no pending event (a
// clean Run leaves neither), and panics otherwise.
func (e *Engine) Reset() {
	switch {
	case e.running:
		panic("sim: Reset of a running engine")
	case e.live > 0:
		panic(fmt.Sprintf("sim: Reset with %d live process(es)", e.live))
	case e.top() != nil:
		panic("sim: Reset with pending events")
	case e.stopErr != nil || e.panicVal != nil:
		panic("sim: Reset of a stopped engine")
	}
	e.now, e.seq, e.dispatched = 0, 0, 0
	e.goroutines, e.parks, e.rearms = 0, 0, 0
}

// Goroutines reports how many process goroutines the engine has started.
// Step-driven processes (SpawnStep) start none.
func (e *Engine) Goroutines() uint64 { return e.goroutines }

// Parks reports how many times a goroutine process has parked — each one a
// host context switch away from it and, later, back. Step-driven processes
// never park, and one that lends its Proc (RunSteps) parks once per routine.
func (e *Engine) Parks() uint64 { return e.parks }

// Rearms reports how many times AtInto found its timer still queued and
// retargeted the event — taken out of its instant and queued again, for an
// event that had not yet fired. A caller that re-arms timers which could
// never have fired first shows up here, not in the count of dispatched
// events. No binary reads it:
// TestTimerHandOverAndRevive, TestFanInRearmsAtMostTwicePerFlow and
// TestBcastRearmsAtMostOncePerRebalance bound it.
func (e *Engine) Rearms() uint64 { return e.rearms }

// Stop requests that Run return err after the event currently being
// dispatched completes. The first Stop wins; later calls are no-ops.
// Watchdogs use it to abort a wedged simulation gracefully instead of
// letting it drain to a bare deadlock report.
func (e *Engine) Stop(err error) {
	if e.stopErr == nil {
		e.stopErr = err
	}
}

// ParkedProc describes one blocked process in a deadlock or watchdog report.
type ParkedProc struct {
	Name string
	Site string // what the process is waiting on; "" when unlabelled
}

// ParkedSites returns a snapshot of every currently parked process together
// with its park-site label, sorted by name. It allocates and is meant for
// report construction, not hot paths.
func (e *Engine) ParkedSites() []ParkedProc {
	var out []ParkedProc
	for p := e.head; p != nil; p = p.next {
		if !p.parked {
			continue
		}
		pp := ParkedProc{Name: p.Name()}
		if site := p.parkSite(); site != nil {
			pp.Site = site.String()
		}
		out = append(out, pp)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (e *Engine) alloc() *event {
	n := len(e.free)
	if n == 0 {
		e.carve()
		n = len(e.free)
	}
	ev := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	return ev
}

// eventChunk is the most event records the engine carves at once.
const eventChunk = 256

// record is what carve allocates: an event record and an instant record side
// by side, so the queue's instants cost no allocation of their own.
type record struct {
	ev event
	in instant
}

// carve adds a chunk of new event and instant records to the free lists, as
// many as the engine has carved so far, between 16 and eventChunk: an engine
// that stays small carves little, and one whose queue grows to thousands of
// events allocates per chunk, not per event. A chunk never moves, so a
// record's address is stable for as long as the engine lives.
func (e *Engine) carve() {
	chunk := make([]record, min(max(e.carved, 16), eventChunk))
	e.carved += len(chunk)
	for i := len(chunk) - 1; i >= 0; i-- {
		e.free = append(e.free, &chunk[i].ev)
		chunk[i].in.next = e.spare
		e.spare = &chunk[i].in
	}
}

// release returns a dispatched or cancelled event to the pool.
func (e *Engine) release(ev *event) {
	ev.cb = callback{}
	ev.p = nil
	ev.body = nil
	ev.cancelled = false
	ev.gen++
	e.free = append(e.free, ev)
}

func (e *Engine) schedule(t Time, cb callback) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now=%v)", t, e.now))
	}
	ev := e.alloc()
	ev.t = t
	ev.kind = evCallback
	ev.cb = cb
	e.push(ev)
	return ev
}

// At schedules fn to run at virtual time t (which must not be in the past)
// and returns a cancellable Timer.
func (e *Engine) At(t Time, fn func()) *Timer {
	ev := e.schedule(t, callback{Func(fn), 0})
	return &Timer{ev: ev, gen: ev.gen, at: t}
}

// AtInto schedules h.Handle(op) at virtual time t, rearming tm in place. It
// is the allocation-free form of At for records that keep a Timer embedded
// (e.g. the completion timer of the flow a component finishes next,
// retargeted when a rebalance moves that time). A callback still pending on
// tm is replaced, not left behind: the queued event is taken out of its
// instant and queued again at the fresh sequence number a new event would
// get, so dispatch order is unchanged, instead of tombstoning the queue with
// a cancelled entry — and that holds for a pending event that was cancelled,
// which is revived with the new time and callback. A Timer is a value: a
// caller may move one between its records (the flow layer hands a pending
// event from one flow to another that way) as long as each handle lives in
// one place.
func (e *Engine) AtInto(tm *Timer, t Time, h Handler, op int) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now=%v)", t, e.now))
	}
	if ev := tm.ev; ev != nil && ev.gen == tm.gen && ev.in != nil {
		e.unlink(ev)
		ev.t = t
		ev.cb = callback{h, op}
		ev.cancelled = false
		e.rearms++
		e.push(ev)
		tm.at = t
		return
	}
	ev := e.schedule(t, callback{h, op})
	tm.ev = ev
	tm.gen = ev.gen
	tm.at = t
}

// AfterInto is AtInto d seconds from now.
func (e *Engine) AfterInto(tm *Timer, d Time, h Handler, op int) { e.AtInto(tm, e.now+d, h, op) }

// Schedule runs fn d seconds from now with no cancellation handle. It is
// the cheapest way to schedule fire-and-forget work.
func (e *Engine) Schedule(d Time, fn func()) { e.schedule(e.now+d, callback{Func(fn), 0}) }

// Call is Schedule for a Handler: h.Handle(op) runs d seconds from now. It
// is how a record schedules its own protocol continuations (latency
// expiries, acknowledgements) without a closure.
func (e *Engine) Call(d Time, h Handler, op int) { e.schedule(e.now+d, callback{h, op}) }

// Proc is a simulated process. It runs either in its own goroutine (Spawn)
// or as a Stepper the engine calls in place (SpawnStep); either way it
// executes strictly interleaved with the engine and all other processes.
type Proc struct {
	e    *Engine
	name string
	// namer, when set, composes the name at report time (SetNamer).
	namer fmt.Stringer
	// resume is the baton channel of a goroutine process; nil for a process
	// that only ever runs as steps.
	resume chan struct{}
	// step, while non-nil, makes the process step-driven: its start and
	// resume events call step.Step on the engine goroutine instead of waking
	// a goroutine. SpawnStep sets it for the life of the process, RunSteps
	// for one blocking routine of a goroutine process.
	step Stepper
	// armed lists the signals the process registered on for its current
	// blocking call, each with its park-site label; pending counts those
	// that have not fired yet. Signal.Fire decrements pending and resumes
	// the process only at zero, so a wait on N signals parks once. The
	// list stays intact until the process runs again, so deadlock and
	// watchdog reports can name the first signal still outstanding — what
	// the process would be parked on had it waited for them one by one.
	// Formatting is deferred to report time so the hot path never
	// allocates a string. armBuf backs the list for the common one- and
	// two-signal waits; longer waits grow it once per process.
	armed   []armedSignal
	armBuf  [2]armedSignal
	pending int
	// parked marks a process blocked on signals (not sleeping): it holds no
	// queued resume, so Kill must push one and a drained queue with parked
	// processes is a deadlock.
	parked bool
	// dying marks a process killed by Kill (or one that called Exit): its
	// goroutine unwinds at the next scheduling point and never runs again.
	dying bool
	// finished is set once the process has run to its end or unwound, so Kill
	// on a completed process is a no-op instead of a hang.
	finished bool
	// prev and next link the process into the engine's list of live
	// processes; tag is what its spawner grouped it under (SetTag).
	prev, next *Proc
	tag        int
}

// armedSignal is one registration of a blocking call: the signal and what
// reports should call it.
type armedSignal struct {
	s    *Signal
	site fmt.Stringer
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Name returns the name given at Spawn time, or composed by the namer.
func (p *Proc) Name() string {
	if p.namer != nil {
		return p.namer.String()
	}
	return p.name
}

// SetNamer makes Name call n.String() instead of returning the Spawn-time
// string. Names are read by deadlock, watchdog and panic reports only, so a
// caller that spawns many short-lived processes passes "" to Spawn and
// formats the name here, when somebody asks.
func (p *Proc) SetNamer(n fmt.Stringer) { p.namer = n }

// SetTag groups the process with the others carrying the same tag, for
// KillTagged to find: a layer that runs several processes on behalf of one
// owner (a rank's main process and its helpers) tags them with the owner.
// Zero, the default, is no tag.
func (p *Proc) SetTag(tag int) { p.tag = tag }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Spawn registers a new process whose body is fn. The process starts at the
// current virtual time, once the engine reaches its start event.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is like Spawn but delays the process start until virtual time t.
func (e *Engine) SpawnAt(t Time, name string, fn func(*Proc)) *Proc {
	if t < e.now {
		panic(fmt.Sprintf("sim: SpawnAt(%v) is in the past (now=%v)", t, e.now))
	}
	p := &Proc{e: e, name: name, resume: make(chan struct{})}
	p.armed = p.armBuf[:0]
	e.start(p, t, fn)
	return p
}

// start appends p to the list of live processes and queues its start event.
func (e *Engine) start(p *Proc, t Time, body func(*Proc)) {
	if p.prev = e.tail; p.prev != nil {
		p.prev.next = p
	} else {
		e.head = p
	}
	e.tail = p
	e.live++
	ev := e.alloc()
	ev.t = t
	ev.kind = evStart
	ev.p = p
	ev.body = body
	e.push(ev)
}

// finish is the engine's last write to a process that has run to its end or
// unwound: it is marked and taken off the list of live processes.
func (e *Engine) finish(p *Proc) {
	p.finished = true
	e.live--
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		e.tail = p.prev
	}
	p.prev, p.next = nil, nil
}

// Stepper is the body of a step-driven process: a state machine the engine
// advances in place, on the engine goroutine, at the process's start event
// and at every resume event — the same events, queued at the same points,
// that would start or wake a goroutine process, so replacing a goroutine
// body by an equivalent Stepper moves no (t, seq) and no simulated bit. What
// it saves is the goroutine: no stack, no channel, no host context switch
// per blocking call.
type Stepper interface {
	// Step runs the process from where it last blocked until it blocks again
	// or finishes, and reports whether it finished. It blocks by calling
	// p.StepSleep, or p.Arm followed by p.StepWait, and returning false right
	// after; it must not call the parking forms (Sleep, Wait, WaitArmed,
	// RunSteps), which panic on a process that has no goroutine to park. A
	// routine runs another as one of its phases by calling the other's Step
	// from its own until that reports done, and the other's Unwind from its
	// own if it is unwound in that phase. Otherwise only the
	// engine calls Step (and RunSteps, once, on the lending process's own
	// goroutine).
	Step(p *Proc) (done bool)
	// Unwind is what a goroutine body would have deferred: the engine calls
	// it instead of Step, once, at the event where a killed process would
	// have unwound — its start event included, so what the spawner acquired
	// on the process's behalf is released even if it never ran. A process
	// that lent its Proc through RunSteps unwinds on its own stack instead,
	// and Unwind is not called.
	Unwind(p *Proc)
}

// Reclaimer is a Stepper whose process runs in storage that is recycled: the
// engine calls Reclaim, once, when it is through with the process — it ran to
// its end, is off the list of live processes, has no event queued and is
// armed on nothing — which is the earliest the record p lives in may go back
// to a pool. The last Step is too early: the engine's final writes to p come
// after it returns, and whatever that Step completes may spawn the next
// process into the same record. A killed process is never reclaimed: a signal
// it was armed on still lists it, and a late Fire must find the victim, dying,
// not a successor.
type Reclaimer interface {
	Stepper
	Reclaim(p *Proc)
}

// SpawnStep registers a process that has no goroutine, in storage its
// spawner supplies — a record the spawner holds anyway, so a step-driven
// process costs no allocation: the engine calls s.Step at the process's start
// event (now) and at each of its resumes until Step reports done. p is a zero
// Proc or one whose last process ran to its end (see Reclaimer), which leaves
// it the signal list that one grew; it must stay where it is while the
// process lives.
func (e *Engine) SpawnStep(p *Proc, s Stepper) {
	if p.e != nil && (!p.finished || p.dying) {
		panic(fmt.Sprintf("sim: SpawnStep into the storage of process %q, which is live or was killed", p.Name()))
	}
	armed := p.armed[:0]
	*p = Proc{e: e, step: s, armed: armed}
	if armed == nil {
		p.armed = p.armBuf[:0]
	}
	e.start(p, e.now, nil)
}

// RunSteps runs s as one blocking routine of the calling goroutine process:
// the first Step runs inline, in the caller's own dispatch slot as its
// straight-line code would, and if it blocks the process lends its Proc to s
// and parks once — the engine drives the remaining Steps from the process's
// resume events and switches back to the goroutine, in the dispatch slot of
// the Step that reports done. A routine of N blocking calls costs one
// goroutine switch instead of N.
func (p *Proc) RunSteps(s Stepper) {
	if s.Step(p) {
		return
	}
	p.step = s
	p.park()
}

// StepSleep schedules the running step-driven process's next Step d seconds
// from now: Sleep for a process without a stack. Negative durations are
// treated as zero. The Step must return false right after.
func (p *Proc) StepSleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.e.resumeAt(p.e.now+d, p)
}

// StepWait is WaitArmed for a step-driven process. It reports whether the
// process has to block on the signals armed since its last wait: if so the
// Step must return false, and runs again once all of them have fired; if
// every one had fired already the process carries on, and no event is
// queued. A process killed while running unwinds here, as in WaitArmed.
func (p *Proc) StepWait() (blocked bool) {
	if p.dying {
		panic(procExit{})
	}
	if p.pending > 0 {
		p.parked = true
		return true
	}
	p.disarm()
	return false
}

// procExit is the panic sentinel that unwinds a killed process goroutine at
// its next scheduling point. The spawn wrapper recovers it and treats the
// unwind as a clean process exit (deferred functions still run).
type procExit struct{}

// Exit terminates the calling process immediately: its goroutine unwinds
// through deferred functions and never runs again. Must be called from
// process context (inside the process's own body).
func (p *Proc) Exit() {
	p.dying = true
	panic(procExit{})
}

// Dying reports whether the process has been killed (or called Exit) and is
// unwinding or waiting to unwind.
func (p *Proc) Dying() bool { return p.dying }

// Kill terminates a process from engine context (or from another process).
// The victim's goroutine unwinds — running deferred functions — at its next
// scheduling point and never executes user code again:
//
//   - signal-parked victims get exactly one unwind resume here, however many
//     signals they are registered on: the pending count is cleared, and
//     Signal.Fire skips dying waiters, so no later fire can resume them again;
//   - sleeping, pending-start, and mid-dispatch victims already hold a queued
//     start/resume event and unwind when it fires;
//   - a process killing itself unwinds at its next Sleep/Wait.
//
// Killing a finished or already-dying process is a no-op.
func (e *Engine) Kill(p *Proc) {
	if p == nil || p.dying || p.finished {
		return
	}
	p.dying = true
	if p.parked {
		p.parked = false
		p.pending = 0
		e.resumeAt(e.now, p)
	}
}

// KillTagged kills every live process carrying tag (SetTag), in the order
// they were spawned in.
func (e *Engine) KillTagged(tag int) {
	for p := e.head; p != nil; p = p.next {
		if p.tag == tag {
			e.Kill(p)
		}
	}
}

// park gives up the baton and blocks until the process is resumed. Only a
// process with a goroutine can: called from a Step it would block the engine
// goroutine on its own yield channel, so that is a panic naming the process.
func (p *Proc) park() {
	if p.resume == nil {
		panic(fmt.Sprintf("sim: process %q has no goroutine: blocking call inside a Step", p.Name()))
	}
	p.e.parks++
	p.e.passBaton(p)
	if p.dying {
		panic(procExit{})
	}
}

// passBaton is called by a process that parks (from != nil) or has exited
// (from == nil) and must hand the baton on. If the next event in (t, seq)
// order is a resume the run in progress may dispatch, the process
// dispatches it itself and wakes the target directly — one goroutine
// switch instead of two through the engine goroutine, or none when the
// event is its own resume. Anything else (a callback, a process start, a
// cancelled top, the window limit, the event budget, a Stop or a panic)
// goes back to the engine goroutine, so callbacks run only there and
// process stacks stay shallow. A parking process then blocks until its own
// resume is dispatched.
func (e *Engine) passBaton(from *Proc) {
	switch next := e.popResume(); next {
	case nil:
		e.yield <- struct{}{}
	case from:
		return // its own resume was next: keep running
	default:
		next.resume <- struct{}{}
	}
	if from != nil {
		<-from.resume
	}
}

// popResume dispatches the top event if the engine loop would dispatch it
// next and it is the resume of a goroutine process, and returns the process
// to wake; nil otherwise. A step-driven process's resume is left to the
// engine goroutine, so a Step never runs on another process's stack. The
// other conditions mirror the head of the loop in run.
func (e *Engine) popResume() *Proc {
	if e.stopErr != nil || e.panicVal != nil {
		return nil
	}
	top := e.top()
	if top == nil || top.kind != evResume || top.cancelled || top.p.step != nil ||
		(e.bounded && top.t >= e.limit) ||
		(e.MaxEvents != 0 && e.dispatched >= e.MaxEvents) {
		return nil
	}
	e.pop(top)
	e.dispatched++
	e.now = top.t
	p := top.p
	e.release(top)
	return p
}

// resumeAt schedules an evResume for p at time t.
func (e *Engine) resumeAt(t Time, p *Proc) {
	ev := e.alloc()
	ev.t = t
	ev.kind = evResume
	ev.p = p
	e.push(ev)
}

// Sleep suspends the process for d seconds of virtual time. Negative
// durations are treated as zero.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	e := p.e
	e.resumeAt(e.now+d, p)
	p.park()
}

// Wait blocks the process until the signal fires. It returns immediately if
// the signal has already fired.
func (p *Proc) Wait(s *Signal) { p.WaitAt(s, nil) }

// WaitAt is Wait with a park-site label: while the process is blocked, site
// describes what it is waiting on (a receive, a collective stage, ...), and
// deadlock/watchdog reports include it. site.String() is only called at
// report time.
func (p *Proc) WaitAt(s *Signal, site fmt.Stringer) {
	p.Arm(s, site)
	p.WaitArmed()
}

// Arm registers the process on s for its next WaitArmed, labelled site for
// deadlock/watchdog reports (nil for none). A signal that has already fired
// is skipped. A process that waits on several signals arms each and parks
// once (mpi.Proc.Wait over its requests); its signals sit inside other
// records, so no slice of signals has to be built.
func (p *Proc) Arm(s *Signal, site fmt.Stringer) {
	if s.fired || p.dying {
		return
	}
	if s.first == nil {
		s.first = p
	} else {
		s.waiters = append(s.waiters, p)
	}
	p.armed = append(p.armed, armedSignal{s, site})
	p.pending++
}

// WaitArmed blocks until every signal armed since the last wait has fired.
// It parks once: each firing signal counts the process down, and the last
// one to fire schedules its resume.
func (p *Proc) WaitArmed() {
	if p.dying {
		// Killed while running (self-Kill or a fired-signal fast path kept
		// it going): unwind now rather than parking on signals whose Fire
		// would skip us forever.
		panic(procExit{})
	}
	if p.pending > 0 {
		p.parked = true
		p.park()
	}
	p.disarm()
}

// disarm drops the registrations of a completed wait. A killed process
// unwinds out of park without it: it never waits again, and only parked
// processes are reported.
func (p *Proc) disarm() {
	clear(p.armed)
	p.armed = p.armed[:0]
}

// parkSite returns the label of the first armed signal still unfired: what
// a parked process is waiting on.
func (p *Proc) parkSite() fmt.Stringer {
	for _, a := range p.armed {
		if !a.s.fired {
			return a.site
		}
	}
	return nil
}

// Signal is a one-shot broadcast condition. Once fired it stays fired;
// waiting on a fired signal returns immediately.
type Signal struct {
	fired bool
	// first is the first process waiting, waiters the second onwards, and
	// cb and cbs are the same split of the permanent registrations (OnFire):
	// most signals have one of each, and a field costs no allocation where a
	// one-element slice does.
	first   *Proc
	waiters []*Proc
	cb      callback
	cbs     []callback
}

// NewSignal returns an unfired Signal.
func NewSignal() *Signal { return &Signal{} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire fires the signal at the engine's current time, waking all waiters and
// running all registered callbacks. Firing twice is a no-op. Callbacks run
// in registration order.
//
// The registration slices are detached before their callbacks run, then
// zeroed element-wise and restored truncated: a fired signal keeps its
// capacity (so a Reset signal embedded in a pooled record re-registers
// without allocating) but never pins dead records or processes in the
// capacity tail.
func (s *Signal) Fire(e *Engine) {
	if s.fired {
		return
	}
	s.fired = true
	cb0, cbs := s.cb, s.cbs
	s.cb, s.cbs = callback{}, nil
	if cb0.h != nil {
		cb0.run()
	}
	for _, cb := range cbs {
		cb.run()
	}
	clear(cbs)
	if s.cbs == nil {
		s.cbs = cbs[:0]
	}
	first, waiters := s.first, s.waiters
	s.first, s.waiters = nil, nil
	if first != nil {
		first.countDown(e)
	}
	for _, p := range waiters {
		p.countDown(e)
	}
	for i := range waiters {
		waiters[i] = nil
	}
	if s.waiters == nil {
		s.waiters = waiters[:0]
	}
}

// countDown counts one armed signal of p as fired, and queues p's resume
// when it was the last one p is parked on.
func (p *Proc) countDown(e *Engine) {
	if p.dying {
		// Killed while parked here: Kill already scheduled the one unwind
		// resume; a second resume would wedge the baton.
		return
	}
	if p.pending--; p.pending == 0 && p.parked {
		p.parked = false
		e.resumeAt(e.now, p)
	}
}

// Reset returns the signal to the unfired state, retaining registration
// slice capacity. It is for owners recycling a signal-bearing record
// through an arena pool (internal/arena): the caller must guarantee no
// live registration or waiter remains — resetting a signal someone still
// holds silently detaches them. Fire has already cleared the slices, so
// Reset on a fired signal is allocation-free.
func (s *Signal) Reset() {
	s.fired = false
	s.cb = callback{}
	clear(s.cbs)
	s.cbs = s.cbs[:0]
	s.first = nil
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// OnFire registers h.Handle(op) to run (in engine context, at fire time)
// when the signal fires. If the signal already fired, it runs immediately.
// A closure registers as Func(fn).
func (s *Signal) OnFire(h Handler, op int) {
	if s.fired {
		h.Handle(op)
		return
	}
	if s.cb.h == nil {
		s.cb = callback{h, op}
		return
	}
	s.cbs = append(s.cbs, callback{h, op})
}

// pending reports how many OnFire callbacks the signal holds.
// TestSignalFirstCallbackInline asserts with it that Fire and Reset drop
// them all.
func (s *Signal) pending() int {
	n := len(s.cbs)
	if s.cb.h != nil {
		n++
	}
	return n
}

// DeadlockError is returned by Run when the event queue drains while
// processes are still parked on signals that can never fire.
type DeadlockError struct {
	// Parked lists the names of the stuck processes, sorted.
	Parked []string
	// Sites lists, aligned with Parked, what each stuck process was waiting
	// on (the WaitAt label, or "" when the process parked unlabelled).
	Sites []string
}

func (d *DeadlockError) Error() string {
	labelled := make([]string, len(d.Parked))
	for i, name := range d.Parked {
		if i < len(d.Sites) && d.Sites[i] != "" {
			labelled[i] = name + " waiting on " + d.Sites[i]
		} else {
			labelled[i] = name
		}
	}
	return fmt.Sprintf("sim: deadlock: %d process(es) parked forever: %v", len(d.Parked), labelled)
}

// ErrEventBudget is returned by Run when MaxEvents is exceeded.
type ErrEventBudget struct{ Dispatched uint64 }

func (e *ErrEventBudget) Error() string {
	return fmt.Sprintf("sim: event budget exceeded after %d events", e.Dispatched)
}

// Run dispatches events until the queue is empty. It must be called from the
// goroutine that owns the engine (the "engine goroutine"). It returns nil on
// a clean drain, a *DeadlockError if processes remain parked, an
// *ErrEventBudget if MaxEvents was exceeded, or the error passed to Stop if
// the run was aborted. A panic inside a process is re-panicked from Run.
func (e *Engine) Run() error {
	if err := e.run(0, false); err != nil {
		return err
	}
	if e.live > 0 {
		procs := e.ParkedSites()
		names := make([]string, len(procs))
		sites := make([]string, len(procs))
		for i, pp := range procs {
			names[i] = pp.Name
			sites[i] = pp.Site
		}
		return &DeadlockError{Parked: names, Sites: sites}
	}
	return nil
}

// RunUntil dispatches every event with time strictly less than limit and
// returns. Unlike Run it does not diagnose deadlock: a process parked when
// the queue drains below limit may legitimately be waiting for input that a
// later window delivers. It is the window primitive of the parallel engine
// (see Parallel); ordinary simulations should call Run. The same ownership
// contract applies — between RunUntil calls the engine may migrate to
// another host goroutine only through a happens-before edge (the parallel
// engine's round barrier provides one).
//
// RunUntil returns nil when the queue is empty or the next event is at or
// past limit, an *ErrEventBudget if MaxEvents was exceeded, or the error
// passed to Stop (a stopped engine keeps returning that error and dispatches
// nothing further). A panic inside a process is re-panicked.
func (e *Engine) RunUntil(limit Time) error {
	return e.run(limit, true)
}

// NextEventTime reports the time of the earliest pending event, lazily
// discarding cancelled events at the head of the queue on the way. ok is
// false when no live event is queued.
func (e *Engine) NextEventTime() (t Time, ok bool) {
	for ev := e.top(); ev != nil; ev = e.top() {
		if !ev.cancelled {
			return ev.t, true
		}
		e.pop(ev)
		e.release(ev)
	}
	return 0, false
}

// LiveProcs reports how many spawned processes have not yet finished. The
// parallel engine uses it after global quiescence to tell a clean drain from
// a cross-partition deadlock.
func (e *Engine) LiveProcs() int { return e.live }

// yieldEvery is how many events the engine goroutine dispatches between two
// offers of its turn to the Go scheduler. An engine whose processes are all
// step-driven never blocks, and when every P of the host runs one (a tuning
// sweep at nproc workers) the collector's mark workers, which on a small
// host only run when the scheduler does, would wait for the 10 ms preemption
// tick: each mark phase would then last that long instead of the fraction of
// a millisecond its work takes, and every pointer the simulation stores in
// the meantime pays the write barrier (13 % of a sweep's CPU, measured;
// EXPERIMENTS.md "Simulator wall clock"). A thousand events are a few hundred
// microseconds; the yield itself costs well under one.
const yieldEvery = 1024

// run is the dispatch core shared by Run and RunUntil. When bounded is set,
// dispatch stops (returning nil) once the earliest pending event is at or
// past limit; when clear, limit is ignored and the queue drains fully.
func (e *Engine) run(limit Time, bounded bool) error {
	if e.running {
		panic("sim: Engine.Run re-entered; an Engine is owned by one goroutine-group at a time (see the package ownership contract)")
	}
	if e.stopErr != nil {
		return e.stopErr
	}
	e.running = true
	defer func() { e.running = false }()
	e.limit, e.bounded = limit, bounded
	for ev := e.top(); ev != nil; ev = e.top() {
		if e.MaxEvents != 0 && e.dispatched >= e.MaxEvents {
			return &ErrEventBudget{Dispatched: e.dispatched}
		}
		// Peek before popping: an event at or past the window limit must keep
		// its place in the queue untouched (a pop/re-push would assign a fresh
		// sequence number and reorder it after same-instant peers it
		// originally preceded, breaking replay identity).
		if ev.cancelled {
			e.pop(ev)
			e.release(ev)
			continue
		} else if e.bounded && ev.t >= e.limit {
			return nil
		}
		e.pop(ev)
		e.dispatched++
		if e.dispatched%yieldEvery == 0 {
			runtime.Gosched()
		}
		e.now = ev.t
		switch ev.kind {
		case evCallback:
			cb := ev.cb
			e.release(ev)
			cb.run()
		case evStart:
			p, body := ev.p, ev.body
			e.release(ev)
			if p.step != nil {
				e.runStep(p)
				break
			}
			e.goroutines++
			//hanlint:allow fence the one real goroutine per simulated process; the baton handoff below serialises it
			go func() {
				defer func() {
					if r := recover(); r != nil {
						if _, killed := r.(procExit); !killed {
							e.panicVal = fmt.Sprintf("sim: process %q panicked: %v", p.Name(), r)
						}
					}
					e.finish(p)
					e.passBaton(nil)
				}()
				if !p.dying {
					body(p)
				}
			}()
			<-e.yield
		case evResume:
			p := ev.p
			e.release(ev)
			if p.step != nil {
				e.runStep(p)
				break
			}
			p.resume <- struct{}{}
			<-e.yield
		}
		if e.panicVal != nil {
			panic(e.panicVal)
		}
		if e.stopErr != nil {
			return e.stopErr
		}
	}
	return e.stopErr
}

// runStep dispatches the start or resume event of a step-driven process on
// the engine goroutine: the next Step — or, for a killed process, its
// unwinding. When the steps are done, a process that lent its Proc
// (RunSteps) gets the baton back within this same dispatch; one without a
// goroutine is finished, and its storage, unless it was killed, its owner's
// again.
func (e *Engine) runStep(p *Proc) {
	p.disarm()
	if !p.dying && !e.callStep(p) {
		return
	}
	if p.resume != nil {
		// Lent: a killed process unwinds out of its park, on its own stack.
		p.step = nil
		p.resume <- struct{}{}
		<-e.yield
		return
	}
	killed := p.dying
	if killed {
		p.step.Unwind(p)
	}
	e.finish(p)
	if r, ok := p.step.(Reclaimer); ok && !killed {
		r.Reclaim(p)
	}
}

// callStep runs one Step and reports whether the process is done. A process
// that called Exit, or was killed while running and reached its next wait, is
// done; any other panic is re-raised naming the process, as a goroutine
// process's is.
func (e *Engine) callStep(p *Proc) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, killed := r.(procExit); !killed {
				panic(fmt.Sprintf("sim: process %q panicked: %v", p.Name(), r))
			}
			done = true
		}
	}()
	return p.step.Step(p)
}
