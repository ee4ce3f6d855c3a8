package mpi

import (
	"fmt"
	"strings"

	"github.com/hanrepro/han/internal/sim"
)

// collKey identifies one collective instance: the k-th operation named Op
// on a given communicator.
type collKey struct {
	ctx  int
	op   string
	inst int
}

// collInstKey counts, per rank, how many instances of (ctx, op) the rank
// has entered, so ranks entering the same collective at different times
// still join the same instance.
type collInstKey struct {
	ctx  int
	op   string
	rank int
}

// collWatch tracks one in-flight collective instance for the progress
// watchdog.
type collWatch struct {
	timer   sim.Timer
	entered int
	done    int
	size    int
}

// CollTimeoutError is returned (via Eng().Run()) when a collective fails to
// complete within the watchdog timeout. It names the operation and every
// process still parked, with its park site (peer/tag/comm) when labelled.
type CollTimeoutError struct {
	Op      string
	Ctx     int
	Timeout sim.Time
	Entered int // ranks that entered the collective
	Done    int // ranks that finished it
	Size    int // communicator size
	Blocked []sim.ParkedProc
	// Dead lists crashed ranks (declared or not) at the moment the watchdog
	// fired, so the report names the cause of the wedge, not just the
	// parked survivors.
	Dead []DeadRank
}

func (e *CollTimeoutError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: collective %s on comm ctx %d timed out after %v: %d/%d ranks entered, %d finished",
		e.Op, e.Ctx, e.Timeout, e.Entered, e.Size, e.Done)
	if len(e.Dead) > 0 {
		b.WriteString("; dead: ")
		for i, d := range e.Dead {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(d.String())
		}
	}
	if len(e.Blocked) > 0 {
		b.WriteString("; blocked: ")
		for i, pp := range e.Blocked {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(pp.Name)
			if pp.Site != "" {
				b.WriteString(" waiting on ")
				b.WriteString(pp.Site)
			}
		}
	}
	return b.String()
}

// SetCollTimeout arms the per-collective progress watchdog: any collective
// whose instance does not complete on all participating ranks within d of
// the first rank entering it aborts the run with a *CollTimeoutError.
// Zero disables the watchdog (the default). The watchdog complements the
// engine's whole-world deadlock detector: a fault plan can wedge a
// collective while unrelated traffic keeps the event queue busy, which the
// drain-based detector would never flag.
func (w *World) SetCollTimeout(d sim.Time) {
	w.collTimeout = d
	if d > 0 && w.collWatch == nil {
		w.collWatch = make(map[collKey]*collWatch)
		w.collInst = make(map[collInstKey]int)
	}
}

// CollBegin registers rank's entry into the named collective on comm c and
// returns the matching completion func. With the watchdog disabled it is a
// no-op returning a cheap shared closure. Collective implementations call
// it once per rank per operation.
func (w *World) CollBegin(rank int, c *Comm, op string) (end func()) {
	if cs := w.crash; cs != nil && cs.collCrash[rank] > 0 && !cs.crashed[rank] {
		cs.collSeen[rank]++
		if cs.collSeen[rank] == cs.collCrash[rank] {
			// Crash-on-Nth-collective trigger: the victim (and, for a node
			// spec, its whole node) dies as it enters this collective. The
			// calling process is now dying; the collective entry point
			// unwinds it before issuing any operation.
			w.crashNow(rank, cs.collNode[rank])
			return noopEnd
		}
	}
	if w.collTimeout <= 0 {
		return noopEnd
	}
	ik := collInstKey{c.ctx, op, rank}
	inst := w.collInst[ik]
	w.collInst[ik] = inst + 1
	key := collKey{c.ctx, op, inst}
	cw := w.collWatch[key]
	if cw == nil {
		cw = &collWatch{size: c.Size()}
		w.collWatch[key] = cw
		w.m.watchdogArmed.Inc()
		timeout := w.collTimeout
		w.Eng().AfterInto(&cw.timer, timeout, sim.Func(func() {
			w.m.watchdogFired.Inc()
			w.Eng().Stop(&CollTimeoutError{
				Op: op, Ctx: c.ctx, Timeout: timeout,
				Entered: cw.entered, Done: cw.done, Size: cw.size,
				Blocked: w.Eng().ParkedSites(),
				Dead:    w.DeadReports(),
			})
		}), 0)
	}
	cw.entered++
	return func() {
		if cs := w.crash; cs != nil && cs.crashed[rank] {
			// A dying rank's deferred span closer must not count as done.
			return
		}
		cw.done++
		if cw.done == cw.size {
			cw.timer.Cancel()
			delete(w.collWatch, key)
		}
	}
}

func noopEnd() {}
