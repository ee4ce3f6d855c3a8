package serve

import (
	"sync/atomic"
	"time"

	"github.com/hanrepro/han/internal/metrics"
)

// latBuckets are the shared upper bounds (seconds) of every serving
// latency histogram: exponential from 250ns, factor 2, up to ~8ms, which
// brackets the contract's p99 < 1ms target with headroom on both sides.
var latBuckets = func() []float64 {
	b := make([]float64, 16)
	v := 250e-9
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// latHist is a fixed-bucket latency histogram safe for concurrent
// observation: one atomic counter per bucket, so its count is the sum of
// its buckets. Observing is one atomic add and allocates nothing.
type latHist struct {
	counts [17]atomic.Uint64 // len(latBuckets) buckets + overflow
}

func (h *latHist) observe(d time.Duration) {
	s, i := d.Seconds(), 0
	for i < len(latBuckets) && s > latBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
}

// since observes the time since start.
func (h *latHist) since(start time.Time) { h.observe(time.Since(start)) }

// merge folds other into h: per-reader histograms into one for a report.
func (h *latHist) merge(other *latHist) {
	for i := range h.counts {
		h.counts[i].Add(other.counts[i].Load())
	}
}

// count returns the number of observations: the sum of the buckets.
func (h *latHist) count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q <= 1) — the standard conservative histogram estimate.
// The overflow bucket reports twice the last bound.
func (h *latHist) quantile(q float64) time.Duration {
	total := h.count()
	if total == 0 {
		return 0
	}
	target := max(1, uint64(q*float64(total)))
	var cum uint64
	for i := range latBuckets {
		cum += h.counts[i].Load()
		if cum >= target {
			return time.Duration(latBuckets[i] * 1e9)
		}
	}
	return time.Duration(latBuckets[len(latBuckets)-1] * 2e9)
}

// publish replays the bucket counts into a registry histogram, each
// bucket folded in at its upper bound.
func (h *latHist) publish(reg *metrics.Registry, o metrics.Opts) {
	mh := reg.Histogram(o, latBuckets)
	for i := range latBuckets {
		mh.ObserveN(latBuckets[i], h.counts[i].Load())
	}
	mh.ObserveN(latBuckets[len(latBuckets)-1]*2, h.counts[len(latBuckets)].Load())
}

// latencySampleEvery is the rate at which a reader's decisions are timed:
// the 1st, 17th, 33rd, … decision of each stripe. Two clock reads cost
// more than the lookup they would time, so the histogram is a sample and
// the decision count beside it is exact.
const latencySampleEvery = 16

// stripe is one reader's share of the hot-path counters. Each local Client
// and wire connection counts into a stripe of its own (stripe 0 also counts
// direct Server.Decide calls), so concurrent readers write no common cache
// line: on shared counters two readers decide no faster than one, and how
// much slower depends on how they interleave.
type stripe struct {
	decisions  atomic.Uint64 // every decision, exactly
	wireReqs   atomic.Uint64 // frames decoded on the stripe's connections
	wireErrors atomic.Uint64 // frames answered with an error status
	lat        latHist       // decide latency, one decision in latencySampleEvery
	_          [64]byte      // neighbours in counters.stripes share no cache line
}

// count counts one decision and reports whether to time it: the 1st,
// 17th, 33rd, … of the stripe.
func (st *stripe) count() bool { return (st.decisions.Add(1)-1)%latencySampleEvery == 0 }

// counters is the server's hot-path instrumentation: plain atomics,
// folded into hand_* metric families by Server.PublishMetrics. The
// internal/metrics registry itself is single-threaded by design, so the
// wall-clock side accumulates here and exports on demand.
type counters struct {
	tableMisses atomic.Uint64 // queries naming a cluster with no snapshot
	flights     atomic.Uint64 // requesters collapsed onto an in-flight tune
	tunes       atomic.Uint64 // on-demand tunes performed
	tuneErrors  atomic.Uint64 // on-demand tunes that failed
	swaps       atomic.Uint64 // snapshots published (preload, on-demand, re-tune)
	retunes     atomic.Uint64 // background re-tune rounds completed

	stripes [16]stripe
	readers atomic.Uint64 // stripes handed out so far
}

// totals is the stripes' counters added up, for a report.
type totals struct {
	decisions, wireReqs, wireErrors uint64
	lat                             latHist
}

// sum adds up the stripes.
func (c *counters) sum() *totals {
	t := &totals{}
	for i := range c.stripes {
		st := &c.stripes[i]
		t.decisions += st.decisions.Load()
		t.wireReqs += st.wireReqs.Load()
		t.wireErrors += st.wireErrors.Load()
		t.lat.merge(&st.lat)
	}
	return t
}

// Counters is a plain-value snapshot of the server's instrumentation,
// for tests and reports.
type Counters struct {
	Decisions                                uint64
	TableMisses, Flights, Tunes, TuneErrors  uint64
	Swaps, Retunes, WireRequests, WireErrors uint64
	// LatencyP50 and LatencyP99 are read from the sampled histogram: one
	// decision in latencySampleEvery per reader.
	LatencyP50, LatencyP99 time.Duration

	// The server has no decision cache. These four stay only because
	// benchmark/serveload.go reads them and a change to the program may
	// not edit the benchmark: CacheMisses equals Decisions (which keeps the
	// benchmark's CacheHits/(CacheHits+CacheMisses) a finite 0), the others
	// are always 0. They go with the benchmark PR that drops the
	// serve.cache_{hit_ratio,stale} and serve.evictions rows (ROADMAP item 2).
	CacheHits, CacheMisses, CacheStale, Evictions uint64
}

// Counters returns a snapshot of the server's hot-path counters.
func (s *Server) Counters() Counters {
	c := &s.c
	t := c.sum()
	return Counters{
		Decisions:    t.decisions,
		CacheMisses:  t.decisions,
		TableMisses:  c.tableMisses.Load(),
		Flights:      c.flights.Load(),
		Tunes:        c.tunes.Load(),
		TuneErrors:   c.tuneErrors.Load(),
		Swaps:        c.swaps.Load(),
		Retunes:      c.retunes.Load(),
		WireRequests: t.wireReqs,
		WireErrors:   t.wireErrors,
		LatencyP50:   t.lat.quantile(0.50),
		LatencyP99:   t.lat.quantile(0.99),
	}
}

// PublishMetrics folds the server's counters into reg as the hand_*
// families of docs/OBSERVABILITY.md. Like exec.Stats.Publish it must run
// off the hot path — after a load run, or with the server quiescent —
// because the registry is single-threaded; counters are cumulative, so
// publishing into one registry twice would double-count.
func (s *Server) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c := &s.c
	t := c.sum()
	for _, row := range []struct {
		name, help string
		v          uint64
	}{
		{"hand_decisions", "decision queries answered by the serving layer", t.decisions},
		{"hand_table_misses", "queries naming a (cluster, collective) with no published snapshot", c.tableMisses.Load()},
		{"hand_flights", "requesters collapsed onto another requester's in-flight tune", c.flights.Load()},
		{"hand_tunes", "on-demand tunes triggered by table misses", c.tunes.Load()},
		{"hand_tune_errors", "on-demand tunes that failed (entry forgotten for retry)", c.tuneErrors.Load()},
		{"hand_snapshot_swaps", "table snapshots atomically published (preload, on-demand, re-tune)", c.swaps.Load()},
		{"hand_retunes", "background re-tune rounds completed", c.retunes.Load()},
		{"hand_wire_requests", "frames decoded by the wire server", t.wireReqs},
		{"hand_wire_errors", "frames answered with an error status", t.wireErrors},
	} {
		reg.Counter(metrics.Opts{Name: row.name, Help: row.help}).Add(float64(row.v))
	}
	reg.Gauge(metrics.Opts{
		Name: "hand_tables",
		Help: "table snapshots currently published",
	}).Set(float64(s.TableCount()))
	t.lat.publish(reg, metrics.Opts{
		Name: "hand_decide_latency_seconds",
		Help: "wall-clock latency of Server.Decide, one decision in 16 per reader (p50/p99 come from these buckets)",
		Unit: "seconds",
	})
}
