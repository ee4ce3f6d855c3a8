package mpi

import (
	"fmt"

	"github.com/hanrepro/han/internal/arena"
	"github.com/hanrepro/han/internal/sim"
)

// WaitSite labels what a blocked request is waiting on, so deadlock and
// watchdog reports can name the comm, tag, and peer instead of a bare rank
// ID. Formatting is deferred to report time; parking on a labelled request
// costs no allocation.
type WaitSite struct {
	Op   string // "send", "recv", ...; "" for an unlabelled request
	Peer int    // comm rank of the peer, AnySource for wildcards
	Tag  int
	Ctx  int // communicator context id
}

func (s *WaitSite) String() string {
	if s.Op == "" {
		return ""
	}
	return fmt.Sprintf("%s(peer=%d, tag=%d, ctx=%d)", s.Op, s.Peer, s.Tag, s.Ctx)
}

// Request is the handle of a non-blocking operation (point-to-point or
// collective). It completes exactly once.
//
// Requests handed out by Isend, Irecv and World.NewRequest are recycled
// through the world's arena the moment Proc.Wait observes their completion:
// a waited request must not be touched again (the wait-once discipline
// hanlint's reqwait pass enforces), except to read Err under a crash plan
// (see there). Requests from the package-level NewRequest are heap-allocated
// and never recycled.
type Request struct {
	doneSig sim.Signal
	site    WaitSite
	// err records a failed completion (peer declared dead, retransmit
	// attempts exhausted). The request still completes — waiters wake — but
	// the operation did not happen; Err exposes the verdict.
	err error

	pooled bool
	slot   arena.Slot
}

// NewRequest returns an incomplete heap request, for a completion handle
// whose holder may look at it again after waiting.
func NewRequest() *Request { return &Request{} }

// NewRequest returns an incomplete request from the world's pool. Collective
// modules hand these out as the completion handles of operations they
// progress internally; the waiter's Wait recycles them.
func (w *World) NewRequest() *Request { return w.reqPool.Get() }

// Done returns the signal fired at completion.
func (r *Request) Done() *sim.Signal { return &r.doneSig }

// Test reports whether the request has completed (MPI_Test semantics,
// without the progress side effects — the simulation progresses requests
// autonomously).
func (r *Request) Test() bool { return r.doneSig.Fired() }

// Complete marks the request complete at the current virtual time.
func (r *Request) Complete(e *sim.Engine) { r.doneSig.Fire(e) }

// Err returns the failure recorded on the request: a *PeerDeadError or
// *PeerUnreachableError when the operation's peer died, nil for a normal
// (or still pending) completion. A request can only fail while a crash plan
// is armed, and for as long as one is the world recycles no request
// (World.release), so Err stays readable after Wait returns on every
// request that can fail.
func (r *Request) Err() error { return r.err }

// fail completes the request with an error. First failure wins; failing an
// already-complete request is a no-op.
func (r *Request) fail(e *sim.Engine, err error) {
	if r.err != nil || r.doneSig.Fired() {
		return
	}
	r.err = err
	r.doneSig.Fire(e)
}

// CompletedRequest returns an already-complete request, useful for
// zero-work fast paths (empty buffers, single-rank communicators).
func CompletedRequest(e *sim.Engine) *Request {
	r := NewRequest()
	r.doneSig.Fire(e)
	return r
}
