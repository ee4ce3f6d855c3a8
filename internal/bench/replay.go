package bench

import (
	"bytes"
	"fmt"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/fault"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
	"github.com/hanrepro/han/internal/trace"
)

// This file implements the replay-determinism harness: the executable form
// of the repo's core invariant that a (seed, plan, machine) triple fully
// determines a simulation. ReplayStream runs one collective under a tracer
// and serializes the complete event timeline; CheckReplay runs it twice
// per seed and demands byte identity. The hanlint passes (fence,
// maporder, detflow) keep code from breaking this property statically;
// this harness catches whatever slips through them dynamically.

// ReplayOpts parameterizes one replay run.
type ReplayOpts struct {
	// Faults, when non-nil and non-zero, is attached to the world before
	// ranks start, so the RNG-driven drop/heal schedule is exercised too.
	Faults *fault.Plan
}

// ReplayStream runs one collective of the given kind and size on a fresh
// world seeded with seed, and returns the full trace event stream
// serialized as JSON. Two calls with identical arguments must return
// byte-identical streams; any divergence means hidden state (wall clock,
// global RNG, map iteration order) leaked into the simulation. No binary
// links it: TestReplayDeterminism, TestReplayDeterminismUnderFaults and
// TestReplaySeedsMatter run it.
func ReplayStream(spec cluster.Spec, sys System, kind coll.Kind, size int, seed int64, o ReplayOpts) ([]byte, error) {
	eng := sim.New()
	w := mpi.NewWorld(cluster.NewMachine(eng, spec), sys.Pers)
	w.Seed(seed)
	rec := trace.New()
	w.Tracer = rec
	if o.Faults != nil && !o.Faults.IsZero() {
		w.AttachFaults(*o.Faults)
	}
	ops := sys.Setup(w)
	w.Start(func(p *mpi.Proc) { ops.run(p, kind, size) })
	if err := eng.Run(); err != nil {
		return nil, fmt.Errorf("bench: replay run failed: %w", err)
	}
	if rec.Len() == 0 {
		return nil, fmt.Errorf("bench: replay of %s recorded no events; the check would be vacuous", kind)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// CheckReplay runs the collective twice for every seed and returns a
// descriptive error on the first divergence between the two event streams
// (or on a failed/vacuous run). A nil return certifies that, for these
// seeds, the simulation replayed to byte-identical timelines. It is the
// check of TestReplayDeterminism and TestReplayDeterminismUnderFaults.
func CheckReplay(spec cluster.Spec, sys System, kind coll.Kind, size int, o ReplayOpts, seeds ...int64) error {
	for _, seed := range seeds {
		first, err := ReplayStream(spec, sys, kind, size, seed, o)
		if err != nil {
			return err
		}
		second, err := ReplayStream(spec, sys, kind, size, seed, o)
		if err != nil {
			return err
		}
		if !bytes.Equal(first, second) {
			return fmt.Errorf("bench: %s/%s seed %d: replay diverged: %s",
				sys.Name, kind, seed, firstDiff(first, second))
		}
	}
	return nil
}

// firstDiff locates the first differing byte and renders the surrounding
// line of each stream, so a failure message points at the offending event
// rather than dumping two full timelines, in the failures of CheckReplay's
// tests (TestReplayDeterminism and its fault twin).
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	if i == n {
		return fmt.Sprintf("stream lengths differ: %d vs %d bytes", len(a), len(b))
	}
	return fmt.Sprintf("byte %d: %q vs %q", i, lineAround(a, i), lineAround(b, i))
}

// lineAround is the line of s holding byte i, for firstDiff (and so for
// TestReplayDeterminism's failure message).
func lineAround(s []byte, i int) string {
	lo := bytes.LastIndexByte(s[:i], '\n') + 1
	hi := i + bytes.IndexByte(s[i:], '\n')
	if hi < i {
		hi = len(s)
	}
	return string(s[lo:hi])
}
