package exec

import (
	"sync/atomic"

	"github.com/hanrepro/han/internal/metrics"
)

// Stats collects an executor's scheduling counters. All fields
// are updated with atomics so workers never serialise on bookkeeping; the
// accessors may be read at any time, but Publish must only run once the
// executor is quiescent (the metrics registry is single-threaded by
// design). All methods are no-ops / zero on a nil *Stats.
type Stats struct {
	jobs   atomic.Uint64
	steals atomic.Uint64
	stolen atomic.Uint64

	running      atomic.Int64
	peakParallel atomic.Int64
	peakQueue    atomic.Int64
}

// Jobs returns the number of jobs executed.
func (s *Stats) Jobs() uint64 {
	if s == nil {
		return 0
	}
	return s.jobs.Load()
}

// Steals returns the number of work-stealing events; Stolen the number of
// jobs those events moved between deques.
func (s *Stats) Steals() uint64 {
	if s == nil {
		return 0
	}
	return s.steals.Load()
}

// Stolen returns the number of jobs moved by steals.
func (s *Stats) Stolen() uint64 {
	if s == nil {
		return 0
	}
	return s.stolen.Load()
}

// PeakParallel returns the most jobs ever running simultaneously.
func (s *Stats) PeakParallel() int64 {
	if s == nil {
		return 0
	}
	return s.peakParallel.Load()
}

// PeakQueueDepth returns the deepest any worker deque has been (its
// initial partition, or a post-steal refill).
func (s *Stats) PeakQueueDepth() int64 {
	if s == nil {
		return 0
	}
	return s.peakQueue.Load()
}

func (s *Stats) noteRunning(d int64) {
	if s == nil {
		return
	}
	r := s.running.Add(d)
	if d > 0 {
		maxInto(&s.peakParallel, r)
	}
}

func (s *Stats) noteQueueDepth(n int64) {
	if s == nil {
		return
	}
	maxInto(&s.peakQueue, n)
}

// maxInto lifts v into the atomic maximum a.
func maxInto(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Publish registers the executor's counter families with the registry —
// the exec_* catalog of docs/OBSERVABILITY.md. Call it once per
// Stats, after the last Run returns: the registry is single-threaded, and
// counters are cumulative, so publishing twice would double-count.
func (s *Stats) Publish(reg *metrics.Registry, workers int) {
	if s == nil || reg == nil {
		return
	}
	reg.Counter(metrics.Opts{
		Name: "exec_jobs",
		Help: "measurement jobs executed by the parallel executor",
	}).Add(float64(s.Jobs()))
	reg.Counter(metrics.Opts{
		Name: "exec_steals",
		Help: "work-stealing events (one idle worker taking half of another's deque)",
	}).Add(float64(s.Steals()))
	reg.Counter(metrics.Opts{
		Name: "exec_stolen_jobs",
		Help: "jobs moved between worker deques by steals",
	}).Add(float64(s.Stolen()))
	reg.Gauge(metrics.Opts{
		Name: "exec_workers",
		Help: "worker goroutines in the most recent executor pool",
	}).Set(float64(workers))
	reg.Gauge(metrics.Opts{
		Name: "exec_parallel_peak",
		Help: "most jobs ever running simultaneously in the most recent sweep",
	}).Set(float64(s.PeakParallel()))
	reg.Gauge(metrics.Opts{
		Name: "exec_queue_depth_peak",
		Help: "deepest any worker deque has been in the most recent sweep",
	}).Set(float64(s.PeakQueueDepth()))
}
