package han

import (
	"fmt"

	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/trace"
)

// HierarchyError reports why a communicator cannot be executed through the
// two-level task pipeline: a single-node group, non-uniform processes per
// node, or a root that is not a node leader. It is recoverable — HAN
// responds by falling back to a flat collective, never by panicking.
type HierarchyError struct {
	Op     string
	Reason string
}

func (e *HierarchyError) Error() string {
	return fmt.Sprintf("han: %s: irregular hierarchy: %s", e.Op, e.Reason)
}

// BufferSizeError reports a caller-supplied buffer whose size does not
// match what the collective requires. It is returned (not panicked) so an
// application-level mistake surfaces through mpi.Run instead of killing
// the simulation.
type BufferSizeError struct {
	Op        string
	Got, Want int
}

func (e *BufferSizeError) Error() string {
	return fmt.Sprintf("han: %s buffer is %d bytes, want %d", e.Op, e.Got, e.Want)
}

// ConfigError reports a configuration a collective cannot execute: an
// unknown submodule name or a task schedule asked to run without its
// required parameters. It is returned (not panicked) from the public
// entry points so a bad autotuning table or caller typo surfaces as a
// diagnosable error instead of killing the simulation.
type ConfigError struct {
	Op    string // the entry point that rejected the configuration
	Param string // the offending Config field ("imod", "smod", "sbmod", "top", "fs")
	Value string // the rejected value, already formatted
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("han: %s: bad config: %s=%s", e.Op, e.Param, e.Value)
}

// RankFailedError reports a collective that could not (or, under the
// Abort policy, was not allowed to) complete because ranks died: each dead
// world rank with the detection path that declared it. Returned at entry
// under OnFailure: Abort, and at exit — under either policy — when a rank
// died mid-collective and the result is suspect. The application reissues
// the collective; under Shrink the reissue completes on the survivors.
type RankFailedError struct {
	Op    string
	Ranks []int    // dead world ranks, ascending
	Via   []string // detection path per rank, parallel to Ranks
}

func (e *RankFailedError) Error() string {
	s := fmt.Sprintf("han: %s: %d rank(s) failed:", e.Op, len(e.Ranks))
	for i, r := range e.Ranks {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf(" rank %d (via %s)", r, e.Via[i])
	}
	return s
}

// FallbackError is a note, not a failure: the collective completed
// correctly, but through a degraded path (typically the flat `tuned`
// module or a lower-level HAN pipeline) because the hierarchy could not be
// used — the paper's fallback semantics for irregular process placements.
// Callers that only care about correctness may ignore it; callers that
// care about the path taken can errors.As for it and inspect Cause.
type FallbackError struct {
	Op    string
	To    string // the path used instead
	Cause error  // why the hierarchy was unusable, often a *HierarchyError
}

func (e *FallbackError) Error() string {
	s := fmt.Sprintf("han: %s degraded to %s", e.Op, e.To)
	if e.Cause != nil {
		s += ": " + e.Cause.Error()
	}
	return s
}

func (e *FallbackError) Unwrap() error { return e.Cause }

// fallback records a trace note for the degraded path and returns the
// typed FallbackError the collective hands back alongside its (correct)
// result.
func (h *HAN) fallback(p *mpi.Proc, op, to string, cause error) error {
	h.m.fallbackTaken(op)
	if rec := h.W.Tracer; rec != nil {
		rec.Record(trace.Event{
			T: float64(p.Now()), Rank: p.Rank, Kind: trace.KindNote,
			Name: op + "->" + to, Peer: -1,
		})
	}
	return &FallbackError{Op: op, To: to, Cause: cause}
}
