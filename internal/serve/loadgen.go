package serve

import (
	"fmt"
	"sync"
	"time"

	"github.com/hanrepro/han/internal/coll"
)

// LoadOpts configures a closed-loop load run against a decision server.
type LoadOpts struct {
	// Clients is the number of concurrent closed-loop workers (each with
	// its own Client). 0 means 4.
	Clients int
	// QPS is the aggregate target query rate across all clients; 0 runs
	// unthrottled (each worker fires its next query the moment the
	// previous answer lands — the pure closed loop).
	QPS float64
	// Duration bounds the run. 0 means 1 second.
	Duration time.Duration
	// Clusters is the cluster-name mix queries cycle through. Required.
	Clusters []string
	// Kinds is the collective mix. Empty means {Bcast, Allreduce}.
	Kinds []coll.Kind
	// Sizes is the message-size mix. Empty means a 64-point sweep from
	// 1KiB to 56MiB: sixteen power-of-two bases (1KiB..32MiB), each with
	// four quarter steps — wide enough to exercise interpolation.
	Sizes []int
	// NewClient builds one transport per worker (loopback or socket).
	// Required.
	NewClient func() (*Client, error)
}

// LoadReport summarizes one load run.
type LoadReport struct {
	Clients  int
	Requests uint64
	Errors   uint64
	Elapsed  time.Duration
	// QPS is the achieved rate: Requests / Elapsed.
	QPS float64
	// Client-observed latency quantiles (includes the wire round trip on
	// socket transports).
	P50, P90, P99 time.Duration

	lat *latHist // every request's latency, merged over the workers
}

func (r LoadReport) String() string {
	return fmt.Sprintf("clients=%d requests=%d errors=%d elapsed=%s qps=%.0f p50=%s p90=%s p99=%s",
		r.Clients, r.Requests, r.Errors, r.Elapsed.Round(time.Millisecond),
		r.QPS, r.P50, r.P90, r.P99)
}

// mix64 is splitmix64's finalizer: a deterministic integer mixer the
// workers use to pick query points. The simulation-side rule against
// ambient randomness (hanlint's fence) holds here too — load runs are
// repeatable by construction, with no RNG state to seed or share.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RunLoad drives the closed-loop load: Clients workers issue decide
// queries over their own transports until Duration elapses, each picking
// (cluster, kind, size) by deterministic index mixing. Per-worker latency
// histograms are merged into the report's quantiles.
func RunLoad(o LoadOpts) (LoadReport, error) {
	if len(o.Clusters) == 0 {
		return LoadReport{}, fmt.Errorf("serve: RunLoad needs at least one cluster")
	}
	if o.NewClient == nil {
		return LoadReport{}, fmt.Errorf("serve: RunLoad needs a NewClient transport factory")
	}
	clients := o.Clients
	if clients <= 0 {
		clients = 4
	}
	dur := o.Duration
	if dur <= 0 {
		dur = time.Second
	}
	kinds := o.Kinds
	if len(kinds) == 0 {
		kinds = []coll.Kind{coll.Bcast, coll.Allreduce}
	}
	sizes := o.Sizes
	if len(sizes) == 0 {
		sizes = make([]int, 64)
		for i := range sizes {
			base := 1024 << (uint(i) / 4)  // 16 power-of-two bases, 1KiB..32MiB
			sizes[i] = base + base/4*(i%4) // quarter steps; tops out at 56MiB
		}
	}
	// Pacing: with a QPS target each worker owns an equal slice of the
	// rate and sleeps out the remainder of its per-request period.
	var period time.Duration
	if o.QPS > 0 {
		period = time.Duration(float64(clients) / o.QPS * float64(time.Second))
	}

	type workerOut struct {
		requests, errors uint64
		lat              latHist
		err              error
	}
	outs := make([]workerOut, clients)
	deadline := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			out := &outs[self]
			cl, err := o.NewClient()
			if err != nil {
				out.err = err
				return
			}
			defer cl.Close()
			next := time.Now()
			for seq := uint64(0); ; seq++ {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				if period > 0 {
					if now.Before(next) {
						time.Sleep(next.Sub(now))
					}
					next = next.Add(period)
				}
				h := mix64(uint64(self)<<32 | seq)
				cluster := o.Clusters[h%uint64(len(o.Clusters))]
				kind := kinds[(h>>16)%uint64(len(kinds))]
				m := sizes[(h>>32)%uint64(len(sizes))]
				t0 := time.Now()
				_, err := cl.Decide(cluster, kind, m)
				out.lat.observe(time.Since(t0))
				out.requests++
				if err != nil {
					out.errors++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var rep LoadReport
	rep.Clients = clients
	rep.Elapsed = elapsed
	merged := &latHist{}
	for i := range outs {
		if outs[i].err != nil {
			return rep, fmt.Errorf("serve: load worker %d: %w", i, outs[i].err)
		}
		rep.Requests += outs[i].requests
		rep.Errors += outs[i].errors
		merged.merge(&outs[i].lat)
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Requests) / elapsed.Seconds()
	}
	rep.lat = merged
	rep.P50 = merged.quantile(0.50)
	rep.P90 = merged.quantile(0.90)
	rep.P99 = merged.quantile(0.99)
	return rep, nil
}
