package bench

import (
	"errors"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"

	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/sim"
)

// This file implements the phantom scale tier: a payload-free run at
// ~100k simulated ranks, far past the paper's 4096-process evaluation.
// Nothing in the simulator's hot path depends on payload bytes existing —
// phantom buffers carry only a length — so the only real limits are event
// churn and per-rank bookkeeping, which the arena allocators keep flat.
// The tier exists to pin that memory budget in BENCH_allocator.json and to
// catch regressions that only show up super-linearly with rank count. Its
// one call on every rank (runOnce) is also the single-call measurement
// hanexp's ablations take of any kind under a fixed configuration (Once).

// ScaleResult is the outcome of one phantom scale run, including the
// process-footprint accounting the scale tier's memory budget is stated
// against.
type ScaleResult struct {
	// Ranks is the simulated world size.
	Ranks int
	// SimSeconds is the virtual duration of the collective.
	SimSeconds float64
	// AllocBytes and Mallocs are the run's total allocation volume
	// (cumulative, not live — everything the run churned through).
	AllocBytes uint64
	Mallocs    uint64
	// HeapPeakBytes approximates the peak live heap: the high-water
	// HeapAlloc observed across GC cycles during the run.
	HeapPeakBytes uint64
	// SysBytes is the total memory the Go runtime obtained from the OS by
	// the end of the run — the hard upper bound on footprint, and the
	// number the documented budget bounds.
	SysBytes uint64
	// Goroutines and Parks are the engine's counts of process goroutines
	// started and of blocking calls that gave the baton up. The tier's
	// ranks are routines (mpi.World.StartSteps): both are zero.
	Goroutines, Parks uint64
	// StackBytes is how much goroutine stack memory the process had gained
	// since the start of the run when the first rank came out of the
	// broadcast, every other rank still inside it. Ranks that are
	// goroutines hold 8 KiB each at that moment.
	StackBytes uint64
}

func (r ScaleResult) String() string {
	return fmt.Sprintf("%d ranks: sim %.1f us, %.1f MB allocated (%d mallocs), heap peak %.1f MB, sys %.1f MB, %d goroutines, %d parks",
		r.Ranks, r.SimSeconds*1e6, float64(r.AllocBytes)/1e6, r.Mallocs,
		float64(r.HeapPeakBytes)/1e6, float64(r.SysBytes)/1e6, r.Goroutines, r.Parks)
}

// ScaleNodes is the node count of the headline tier: 3072 x 32 = 98304
// ranks.
const ScaleNodes = 3072

// ScaleSpec is the scale tier's machine: ShaheenII hardware ratios at the
// requested node count and 32 ranks per node.
func ScaleSpec(nodes int) cluster.Spec {
	s := cluster.ShaheenII()
	s.Nodes = nodes
	return s
}

// ScaleBcast runs one payload-free HAN broadcast at spec's scale and
// returns the simulated time plus the run's memory accounting. Unlike the
// IMB harness there are no barriers and no warm-up iteration: at 100k
// ranks a barrier costs as much as the collective, and the tier measures
// the simulator, not the schedule.
//
// The run is deterministic: same (spec, size, seed) in, same SimSeconds
// out, on either allocator path.
func ScaleBcast(spec cluster.Spec, size int, seed int64) (ScaleResult, error) {
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	stacks0 := stackBytes()
	w := mpi.NewWorld(cluster.NewMachine(sim.New(), spec), mpi.OpenMPI())
	if seed != 0 {
		w.Seed(seed)
	}
	tier, err := runOnce(w, coll.Bcast, size, han.Config{})
	if err != nil {
		return ScaleResult{}, err
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res := ScaleResult{
		Ranks:      spec.Ranks(),
		SimSeconds: float64(tier.end),
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
		SysBytes:   after.Sys,
		Goroutines: w.Eng().Goroutines(),
		Parks:      w.Eng().Parks(),
	}
	if tier.stacks > stacks0 {
		res.StackBytes = tier.stacks - stacks0
	}
	// HeapAlloc at this instant includes not-yet-collected garbage, so it
	// is an upper bound on live heap; the GC high-water mark over the
	// run's cycles would need GODEBUG instrumentation, and the Sys bound
	// above already caps the footprint.
	res.HeapPeakBytes = after.HeapAlloc
	return res, nil
}

// stackBytes reads the memory the runtime holds for goroutine stacks.
func stackBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/stacks:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// once is one single-call run: what its ranks report into.
type once struct {
	end    sim.Time // when the last rank came out of the collective
	stacks uint64   // stackBytes when the first did
}

// onceRank is one rank of a single-call run: the collective, and a note of
// when it was through. A rank whose collective returns an error stops the
// run, as mpi.World.StartE has it, unless the error is a *han.FallbackError:
// that collective completed, on the path the note names.
type onceRank struct {
	run  *once
	p    *mpi.Proc
	call *han.Call
}

func (r *onceRank) Step(sp *sim.Proc) bool {
	if !r.call.Step(sp) {
		return false
	}
	o := r.run
	if o.stacks == 0 {
		o.stacks = stackBytes()
	}
	if err := r.call.Err(); err != nil && !errors.As(err, new(*han.FallbackError)) {
		sp.Engine().Stop(&mpi.RankError{Rank: r.p.Rank, Err: err})
	} else if now := sp.Now(); now > o.end {
		o.end = now
	}
	return true
}

func (r *onceRank) Unwind(sp *sim.Proc) { r.call.Unwind(sp) }

// runOnce runs one collective of kind under cfg on every rank of w, each a
// routine started at time zero: phantom buffers with IMB's meaning of size,
// rooted at rank 0, no barrier and no warm-up.
func runOnce(w *mpi.World, kind coll.Kind, size int, cfg han.Config) (*once, error) {
	h := han.New(w)
	o := new(once)
	ranks := make([]onceRank, w.Size())
	sbuf, rbuf := phantoms(kind, size, w.Size())
	w.StartSteps(func(p *mpi.Proc) sim.Stepper {
		r := &ranks[p.Rank]
		*r = onceRank{o, p, h.Start(p, kind, sbuf, rbuf, mpi.OpSum, mpi.Float64, 0, cfg)}
		return r
	})
	if err := w.Eng().Run(); err != nil {
		return nil, fmt.Errorf("bench: single-call run failed: %w", err)
	}
	return o, nil
}

// Once runs one HAN collective of kind under cfg on a new world of spec on
// Open MPI's P2P layer, as runOnce has it, and returns the simulated time at
// which the last rank came out of it: the single-call measurement of the
// ablations. A HAN configuration error panics, as IMB's run failures do.
func Once(spec cluster.Spec, kind coll.Kind, size int, cfg han.Config) float64 {
	o, err := runOnce(mpi.NewWorld(cluster.NewMachine(sim.New(), spec), mpi.OpenMPI()), kind, size, cfg)
	if err != nil {
		panic(err.Error())
	}
	return float64(o.end)
}
