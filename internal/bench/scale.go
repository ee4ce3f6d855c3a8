package bench

import (
	"fmt"
	"runtime"

	"github.com/hanrepro/han/internal/cluster"
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
// catch regressions that only show up super-linearly with rank count.

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
}

func (r ScaleResult) String() string {
	return fmt.Sprintf("%d ranks: sim %.1f us, %.1f MB allocated (%d mallocs), heap peak %.1f MB, sys %.1f MB",
		r.Ranks, r.SimSeconds*1e6, float64(r.AllocBytes)/1e6, r.Mallocs,
		float64(r.HeapPeakBytes)/1e6, float64(r.SysBytes)/1e6)
}

// ScaleSpec is the scale tier's machine: ShaheenII hardware ratios at the
// requested node count and 32 ranks per node. ScaleRanks nodes gives the
// headline 3072 x 32 = 98304-rank phantom world.
const ScaleNodes = 3072

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

	w := mpi.NewWorld(cluster.NewMachine(sim.New(), spec), mpi.OpenMPI())
	if seed != 0 {
		w.Seed(seed)
	}
	end, err := scaleRun(w, size)
	if err != nil {
		return ScaleResult{}, err
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res := ScaleResult{
		Ranks:      spec.Ranks(),
		SimSeconds: float64(end),
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
		SysBytes:   after.Sys,
	}
	// HeapAlloc at this instant includes not-yet-collected garbage, so it
	// is an upper bound on live heap; the GC high-water mark over the
	// run's cycles would need GODEBUG instrumentation, and the Sys bound
	// above already caps the footprint.
	res.HeapPeakBytes = after.HeapAlloc
	return res, nil
}

// scaleRun runs the tier's one broadcast on every rank of w and returns the
// time the last rank came out of it.
func scaleRun(w *mpi.World, size int) (sim.Time, error) {
	h := han.New(w)
	var end sim.Time
	w.StartE(func(p *mpi.Proc) error {
		if err := h.Bcast(p, mpi.Phantom(size), 0, han.Config{}); err != nil {
			return err
		}
		if t := p.Now(); t > end {
			end = t
		}
		return nil
	})
	if err := w.Eng().Run(); err != nil {
		return 0, fmt.Errorf("bench: scale run failed: %w", err)
	}
	return end, nil
}
