package flow

import "github.com/hanrepro/han/internal/sim"

// This file implements the flow layer's observability hooks: per-resource
// utilization sampling and per-flow byte/duration accounting. The monitor
// is event-driven — utilization only changes at rebalances, so it records
// one piecewise-constant sample per (rebalance, resource) instead of
// polling on a timer (which would keep the event loop alive forever).
// Everything is stamped with virtual time and visited in resource
// creation order, so two replays produce identical sample streams. The
// monitor does not change rates, timers, or traversal order: enabling it
// never perturbs the simulation.

// UtilSample is one point of a resource's utilization series: the
// fraction of capacity allocated from time T until the next sample.
type UtilSample struct {
	T    sim.Time
	Util float64 // 0..1
}

// ResourceStats accumulates one resource's activity.
type ResourceStats struct {
	Res *Resource
	// Bytes is the integral of allocated rate over time: bytes the
	// resource actually carried (for CPU progress engines, seconds of
	// work, since their capacity is 1 work-second per second).
	Bytes float64
	// BusySeconds is the total virtual time with nonzero allocation.
	BusySeconds float64
	// Peak is the highest utilization observed.
	Peak float64
	// Samples is the piecewise-constant utilization series, in
	// non-decreasing time order with at most one sample per instant.
	// Its length is bounded (Monitor.SetSampleCap): once the cap is hit
	// the series is decimated in place to every other point and further
	// samples are recorded at the doubled stride. The decimation is a
	// pure function of the note sequence, so two replays always produce
	// identical series — and a cap at least as large as the raw series
	// length never decimates at all, leaving the series byte-identical
	// to the unbounded one. Bytes, BusySeconds, and Peak are exact
	// integrals regardless of the cap.
	Samples []UtilSample

	lastT    sim.Time
	lastUtil float64
	cap      int // max len(Samples); 0 = unbounded
	stride   int // record every stride-th distinct-time sample (1 = all)
	skip     int // distinct-time samples dropped since the last recorded one
}

// note closes the piecewise-constant interval [lastT, t] under lastUtil
// and starts a new one at util. Multiple notes at one instant keep only
// the final value (intermediate allocations at the same virtual time are
// not observable states).
func (s *ResourceStats) note(t sim.Time, util float64) {
	s.accrue(t, util)
	s.addSample(t, util, false)
}

// accrue closes the utilization integrals up to t and makes util current.
// It is exact and independent of the sample cap.
func (s *ResourceStats) accrue(t sim.Time, util float64) {
	if dt := float64(t - s.lastT); dt > 0 {
		s.Bytes += s.lastUtil * s.Res.Capacity * dt
		if s.lastUtil > 0 {
			s.BusySeconds += dt
		}
		s.lastT = t
	}
	s.lastUtil = util
	if util > s.Peak {
		s.Peak = util
	}
}

// addSample appends one point of the bounded series. Multiple samples at
// one instant collapse onto the last recorded point; at stride > 1 only
// every stride-th distinct instant is kept (final forces the append, so
// the series always ends on the closing sample).
func (s *ResourceStats) addSample(t sim.Time, util float64, final bool) {
	if n := len(s.Samples); n > 0 && s.Samples[n-1].T == t {
		s.Samples[n-1].Util = util
		return
	}
	if s.stride > 1 && !final {
		s.skip++
		if s.skip < s.stride {
			return
		}
		s.skip = 0
	}
	s.Samples = append(s.Samples, UtilSample{T: t, Util: util})
	if s.cap > 0 && len(s.Samples) >= s.cap {
		s.decimate()
	}
}

// decimate halves the series in place, keeping even indices (the series
// start stays fixed), and doubles the recording stride.
func (s *ResourceStats) decimate() {
	w := 0
	for i := 0; i < len(s.Samples); i += 2 {
		s.Samples[w] = s.Samples[i]
		w++
	}
	tail := s.Samples[w:]
	for i := range tail {
		tail[i] = UtilSample{}
	}
	s.Samples = s.Samples[:w]
	if s.stride == 0 {
		s.stride = 1
	}
	s.stride *= 2
	s.skip = 0
}

// util returns the resource's current utilization from live flow rates.
func (s *ResourceStats) util() float64 {
	u := 0.0
	for _, f := range s.Res.flows {
		u += f.rate
	}
	return u / s.Res.Capacity
}

// FlowTotals aggregates per-flow accounting.
type FlowTotals struct {
	Started, Completed int
	// Bytes and Seconds sum the sizes and durations of completed flows.
	Bytes, Seconds float64
	// MaxSeconds is the longest completed flow's duration.
	MaxSeconds float64
}

// DefaultSampleCap bounds every resource's utilization series unless
// overridden with Monitor.SetSampleCap. Runs whose raw series stay under
// the cap are unaffected; longer runs decimate to coarser strides instead
// of growing without bound (a 100k-rank world cannot afford one sample
// per rebalance per resource).
const DefaultSampleCap = 8192

// Monitor observes a Network. Obtain one with Network.EnableMonitor.
type Monitor struct {
	res       []*ResourceStats // resource creation order
	snap      []*Resource      // pre-fill component snapshot (rebalance scratch)
	totals    FlowTotals
	sampleCap int
}

// EnableMonitor attaches a monitor to the network (idempotent). Existing
// and future resources are tracked; enable before starting flows to
// observe them from their first byte.
func (n *Network) EnableMonitor() *Monitor {
	if n.mon == nil {
		n.mon = &Monitor{sampleCap: DefaultSampleCap}
		for _, r := range n.resources {
			n.mon.track(r, n.e.Now())
		}
	}
	return n.mon
}

// SetSampleCap bounds every resource's Samples series to at most cap
// points (0 = unbounded), applying to already-tracked resources too. A cap
// at least as large as a run's raw series length records the identical
// series; smaller caps decimate deterministically. Exact totals (Bytes,
// BusySeconds, Peak, FlowTotals) are unaffected. Call before the run;
// lowering the cap mid-series takes effect at the next sample. No binary
// sets a cap: the TestMonitorSampleCap* tests do.
func (m *Monitor) SetSampleCap(cap int) {
	if cap < 0 {
		cap = 0
	}
	m.sampleCap = cap
	for _, s := range m.res {
		s.cap = cap
	}
}

func (m *Monitor) track(r *Resource, now sim.Time) {
	r.stats = &ResourceStats{Res: r, lastT: now, cap: m.sampleCap, stride: 1}
	m.res = append(m.res, r.stats)
}

// Resources returns per-resource stats in resource creation order.
func (m *Monitor) Resources() []*ResourceStats {
	if m == nil {
		return nil
	}
	return m.res
}

// Totals returns the aggregate per-flow accounting.
func (m *Monitor) Totals() FlowTotals {
	if m == nil {
		return FlowTotals{}
	}
	return m.totals
}

// Finish records a final sample for every resource at the given time,
// closing all utilization integrals. Call once after the run.
func (m *Monitor) Finish(now sim.Time) {
	if m == nil {
		return
	}
	for _, s := range m.res {
		u := s.util()
		s.accrue(now, u)
		s.addSample(now, u, true) // the closing sample is always recorded
	}
}

// snapshot copies the rebalanced component's resource list before the
// filler compacts it in place.
func (m *Monitor) snapshot(res []*Resource) {
	m.snap = append(m.snap[:0], res...)
}

// noteComponent samples every resource of the snapshotted component under
// the just-computed rates.
func (m *Monitor) noteComponent(now sim.Time) {
	for _, r := range m.snap {
		r.stats.note(now, r.stats.util())
	}
}

func (m *Monitor) flowStarted() {
	m.totals.Started++
}

func (m *Monitor) flowDone(seconds, bytes float64) {
	m.totals.Completed++
	m.totals.Bytes += bytes
	m.totals.Seconds += seconds
	if seconds > m.totals.MaxSeconds {
		m.totals.MaxSeconds = seconds
	}
}
