package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
	"github.com/hanrepro/han/internal/metrics"
)

// tinyTable builds a hand-written decision table with three sampled sizes
// per kind. fs lets tests distinguish table versions by their decisions.
func tinyTable(fs int, kinds ...coll.Kind) *autotune.Table {
	t := &autotune.Table{Machine: "test", Method: "handmade"}
	for _, k := range kinds {
		for _, m := range []int{1 << 10, 1 << 16, 1 << 20} {
			t.Entries = append(t.Entries, autotune.Entry{
				In: autotune.Input{N: 2, P: 2, M: m, T: k},
				Cfg: han.Config{
					FS: fs, IMod: "adapt", SMod: "sm",
					IBAlg: coll.AlgBinary, IRAlg: coll.AlgBinary,
					IBS: 1 << 12, IRS: 1 << 12,
				},
			})
		}
	}
	return t
}

func TestServerPublishDecide(t *testing.T) {
	s := NewServer(Options{})
	table := tinyTable(1<<20, coll.Bcast)
	s.PublishTable("mini", table)
	if gen := s.Generation(); gen == 0 {
		t.Fatal("PublishTable left generation 0")
	}
	for _, m := range []int{512, 1 << 10, 3 << 10, 1 << 19, 1 << 22} {
		got, err := s.Decide("mini", coll.Bcast, m)
		if err != nil {
			t.Fatalf("Decide(%d): %v", m, err)
		}
		if want := table.Decide(coll.Bcast, m); got != want {
			t.Fatalf("Decide(%d) = %+v, want table decision %+v", m, got, want)
		}
	}
	if _, err := s.Decide("nowhere", coll.Bcast, 1024); err == nil {
		t.Fatal("Decide on unknown cluster with no tuner succeeded")
	} else {
		var ue *UnknownTableError
		if !errors.As(err, &ue) {
			t.Fatalf("unknown-cluster error is %T, want *UnknownTableError", err)
		}
	}
	if n := s.TableCount(); n != 1 {
		t.Fatalf("TableCount = %d, want 1", n)
	}
}

// randTable builds a table with a random number of sampled sizes per kind
// and random configurations, so two draws differ in both the index shape
// and the answers.
func randTable(r *rand.Rand, kinds ...coll.Kind) *autotune.Table {
	t := &autotune.Table{Machine: "test", Method: "random"}
	algs := []coll.Alg{coll.AlgBinary, coll.AlgChain}
	for _, k := range kinds {
		for i, n := 0, 1+r.Intn(8); i < n; i++ {
			t.Entries = append(t.Entries, autotune.Entry{
				In: autotune.Input{N: 2, P: 2, M: 1 + r.Intn(1<<24), T: k},
				Cfg: han.Config{
					FS: 1 << (10 + r.Intn(14)), IMod: "adapt", SMod: "sm",
					IBAlg: algs[r.Intn(2)], IRAlg: algs[r.Intn(2)],
					IBS: r.Intn(1 << 16), IRS: r.Intn(1 << 16),
				},
			})
		}
	}
	return t
}

// TestServerDecideMatchesTable is the read path's whole contract: whatever
// sits between a query and the published table, Server.Decide answers what
// the key's current table answers — in process and through the wire client,
// across republishes of different tables, with several keys published side
// by side.
func TestServerDecideMatchesTable(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	s := NewServer(Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(s.Start(l))
	wire, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer wire.Close()
	local := NewLocalClient(s)

	clusters := []string{"alpha", "beta", "gamma", "delta"}
	kinds := []coll.Kind{coll.Bcast, coll.Allreduce}
	current := map[Key]*autotune.Table{}
	for round := 0; round < 5; round++ {
		for _, cl := range clusters {
			if round > 0 && r.Intn(3) == 0 {
				continue // this cluster keeps its table for the round
			}
			if r.Intn(2) == 0 {
				table := randTable(r, kinds...)
				for _, k := range s.PublishTable(cl, table) {
					current[k] = table
				}
			} else {
				kind := kinds[r.Intn(2)]
				table := randTable(r, kind)
				s.PublishTable(cl, table)
				current[Key{cl, kind}] = table
			}
		}
		for i := 0; i < 2000; i++ {
			k := Key{clusters[r.Intn(len(clusters))], kinds[r.Intn(2)]}
			table := current[k]
			if table == nil {
				continue
			}
			// A few sizes recur (what a cache would hold), most do not.
			m := 1 + r.Intn(1<<26)
			if i%4 == 0 {
				m = 1 << (8 + r.Intn(4))
			}
			want := table.Decide(k.Kind, m)
			client, name := local, "local"
			if i%8 == 7 {
				client, name = wire, "wire"
			}
			got, err := client.Decide(k.Cluster, k.Kind, m)
			if err != nil {
				t.Fatalf("round %d: %s Decide(%s, %d): %v", round, name, k, m, err)
			}
			if got != want {
				t.Fatalf("round %d: %s Decide(%s, %d) = %+v, want the current table's %+v", round, name, k, m, got, want)
			}
		}
	}
	if n := s.TableCount(); n != len(current) {
		t.Fatalf("TableCount = %d, want %d", n, len(current))
	}
}

// TestRepublishIsVisibleToNextDecide: a Decide that follows a PublishTable of
// the same key is answered from the new table, at a size the old table has
// already answered.
func TestRepublishIsVisibleToNextDecide(t *testing.T) {
	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast))

	// Query above both tables' segment sizes so the FS clamp (fs = min(fs,
	// m)) never masks which table answered.
	const m = 1 << 22
	for i := 0; i < 2; i++ {
		if cfg, _ := s.Decide("mini", coll.Bcast, m); cfg.FS != 1<<20 {
			t.Fatalf("decision %d before republish: %+v, want FS %d", i, cfg, 1<<20)
		}
	}
	s.PublishTable("mini", tinyTable(1<<16, coll.Bcast))
	for i := 0; i < 2; i++ {
		if cfg, _ := s.Decide("mini", coll.Bcast, m); cfg.FS != 1<<16 {
			t.Fatalf("decision %d after republish: %+v, want FS %d", i, cfg, 1<<16)
		}
	}
	if gen := s.Generation(); gen != 2 {
		t.Fatalf("generation %d, want 2", gen)
	}
	if c := s.Counters(); c.Swaps != 2 || c.Decisions != 4 {
		t.Fatalf("Swaps=%d Decisions=%d, want 2/4", c.Swaps, c.Decisions)
	}
}

func TestServerOnDemandTune(t *testing.T) {
	var tunes int
	s := NewServer(Options{Tuner: func(cluster string) (*autotune.Table, error) {
		tunes++
		return tinyTable(1<<20, coll.Bcast, coll.Allreduce), nil
	}})
	cfg, err := s.Decide("fresh", coll.Bcast, 4096)
	if err != nil {
		t.Fatalf("on-demand Decide: %v", err)
	}
	if cfg.IMod != "adapt" {
		t.Fatalf("on-demand decision = %+v", cfg)
	}
	// The snapshot is published: the next query needs no tune.
	if _, err := s.Decide("fresh", coll.Bcast, 8192); err != nil {
		t.Fatal(err)
	}
	if tunes != 1 {
		t.Fatalf("tuner ran %d times, want 1", tunes)
	}
	// One sweep covers every collective in the tuned table: the cluster's
	// other kind serves from the same publication, no second tune.
	if _, err := s.Decide("fresh", coll.Allreduce, 4096); err != nil {
		t.Fatal(err)
	}
	if tunes != 1 {
		t.Fatalf("tuner ran %d times after other-kind query, want 1", tunes)
	}
	if n := s.TableCount(); n != 2 {
		t.Fatalf("TableCount = %d, want 2 (one snapshot per tuned kind)", n)
	}
	// A different cluster is genuinely unknown → new tune.
	if _, err := s.Decide("other", coll.Bcast, 4096); err != nil {
		t.Fatal(err)
	}
	if tunes != 2 {
		t.Fatalf("tuner ran %d times, want 2", tunes)
	}
}

func TestServerOnDemandTuneMissingKind(t *testing.T) {
	// The sweep yields only Bcast entries; an Allreduce query must still
	// publish a snapshot under the queried kind (serving the default
	// decision) rather than re-tune on every query.
	tunes := 0
	s := NewServer(Options{Tuner: func(cluster string) (*autotune.Table, error) {
		tunes++
		return tinyTable(1<<20, coll.Bcast), nil
	}})
	if _, err := s.Decide("fresh", coll.Allreduce, 4096); err != nil {
		t.Fatalf("Decide for untuned kind: %v", err)
	}
	if _, err := s.Decide("fresh", coll.Allreduce, 8192); err != nil {
		t.Fatal(err)
	}
	if tunes != 1 {
		t.Fatalf("tuner ran %d times, want 1", tunes)
	}
}

func TestServerTuneCollapse(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	tunes := 0
	s := NewServer(Options{Tuner: func(cluster string) (*autotune.Table, error) {
		mu.Lock()
		tunes++
		mu.Unlock()
		once.Do(func() { close(started) })
		<-gate
		return tinyTable(1<<20, coll.Bcast), nil
	}})
	const requesters = 6
	results := make([]han.Config, requesters)
	var wg sync.WaitGroup
	for i := 0; i < requesters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg, err := s.Decide("cold", coll.Bcast, 4096)
			if err != nil {
				t.Errorf("requester %d: %v", i, err)
			}
			results[i] = cfg
		}(i)
	}
	<-started
	// Give the other requesters a beat to pile onto the in-flight tune,
	// then release it. Even if some arrive after publication they hit the
	// table map, never a second tune.
	time.Sleep(5 * time.Millisecond)
	close(gate)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if tunes != 1 {
		t.Fatalf("tuner ran %d times under concurrent misses, want 1", tunes)
	}
	for i := 1; i < requesters; i++ {
		if results[i] != results[0] {
			t.Fatalf("requester %d got %+v, requester 0 got %+v", i, results[i], results[0])
		}
	}
}

func TestServerTuneErrorRetry(t *testing.T) {
	calls := 0
	s := NewServer(Options{Tuner: func(cluster string) (*autotune.Table, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient sweep failure")
		}
		return tinyTable(1<<20, coll.Bcast), nil
	}})
	_, err := s.Decide("flaky", coll.Bcast, 4096)
	if err == nil {
		t.Fatal("first Decide succeeded despite tuner error")
	}
	var ue *UnknownTableError
	if !errors.As(err, &ue) || ue.Cause == nil {
		t.Fatalf("error = %v, want *UnknownTableError with cause", err)
	}
	// The failed flight entry was forgotten: the retry tunes afresh.
	if _, err := s.Decide("flaky", coll.Bcast, 4096); err != nil {
		t.Fatalf("retry after tuner failure: %v", err)
	}
	if calls != 2 {
		t.Fatalf("tuner called %d times, want 2", calls)
	}
	c := s.Counters()
	if c.TuneErrors != 1 || c.Tunes != 2 {
		t.Fatalf("TuneErrors=%d Tunes=%d, want 1/2", c.TuneErrors, c.Tunes)
	}
}

func TestServerRetune(t *testing.T) {
	version := 0
	s := NewServer(Options{Tuner: func(cluster string) (*autotune.Table, error) {
		version++
		return tinyTable(version<<16, coll.Bcast, coll.Allreduce), nil
	}})
	s.PublishTable("a", tinyTable(1<<10, coll.Bcast, coll.Allreduce))
	s.PublishTable("b", tinyTable(1<<10, coll.Bcast))
	genBefore := s.Generation()

	n, err := s.Retune()
	if err != nil {
		t.Fatalf("Retune: %v", err)
	}
	if n != 3 {
		t.Fatalf("Retune republished %d snapshots, want 3 (a/Bcast a/Allreduce b/Bcast)", n)
	}
	if version != 2 {
		t.Fatalf("tuner ran %d times, want 2 (once per cluster)", version)
	}
	if s.Generation() <= genBefore {
		t.Fatal("Retune did not advance the generation")
	}
	cfg, err := s.Decide("a", coll.Bcast, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FS == 1<<10 {
		t.Fatalf("Decide still served the pre-retune table: %+v", cfg)
	}
	keys := s.Keys()
	if len(keys) != 3 {
		t.Fatalf("Keys = %v, want 3 entries", keys)
	}
}

func TestServerRetuneErrorKeepsServing(t *testing.T) {
	fail := false
	s := NewServer(Options{Tuner: func(cluster string) (*autotune.Table, error) {
		if fail {
			return nil, fmt.Errorf("sweep machine unavailable")
		}
		return tinyTable(1<<20, coll.Bcast), nil
	}})
	s.PublishTable("a", tinyTable(1<<20, coll.Bcast))
	want, _ := s.Decide("a", coll.Bcast, 4096)

	fail = true
	if _, err := s.Retune(); err == nil {
		t.Fatal("Retune with failing tuner reported no error")
	}
	got, err := s.Decide("a", coll.Bcast, 4096)
	if err != nil || got != want {
		t.Fatalf("previous snapshot not serving after failed retune: %+v, %v", got, err)
	}
}

func TestServerPublishTableSplitsKinds(t *testing.T) {
	s := NewServer(Options{})
	keys := s.PublishTable("mini", tinyTable(1<<20, coll.Allreduce, coll.Bcast))
	if len(keys) != 2 || keys[0].Kind != coll.Bcast || keys[1].Kind != coll.Allreduce {
		t.Fatalf("PublishTable keys = %v, want [mini/bcast mini/allreduce]", keys)
	}
	if s.TableCount() != 2 {
		t.Fatalf("TableCount = %d, want 2", s.TableCount())
	}
}

func TestServerStartRetuner(t *testing.T) {
	version := 0
	var mu sync.Mutex
	s := NewServer(Options{Tuner: func(cluster string) (*autotune.Table, error) {
		mu.Lock()
		version++
		v := version
		mu.Unlock()
		return tinyTable(v<<16, coll.Bcast), nil
	}})
	s.PublishTable("a", tinyTable(1<<10, coll.Bcast))
	stop := s.StartRetuner(2 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for s.Counters().Retunes < 2 {
		if time.Now().After(deadline) {
			t.Fatal("re-tuner did not complete two rounds in 2s")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	after := s.Counters().Retunes
	time.Sleep(10 * time.Millisecond)
	if got := s.Counters().Retunes; got != after {
		t.Fatalf("re-tuner still running after stop: %d rounds, was %d", got, after)
	}
}

// TestServerDecideZeroAlloc: a decision allocates nothing, whether its
// sizes recur (the load generator's 64-point mix) or never do (16 384
// distinct sizes, the benchmark's churn mix).
func TestServerDecideZeroAlloc(t *testing.T) {
	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast, coll.Allreduce))
	for _, mix := range []struct {
		name string
		size func(i int) int
	}{
		{"64-point mix", func(i int) int { base := 1024 << (uint(i%64) / 4); return base + base/4*(i%4) }},
		{"16384 distinct sizes", func(i int) int { return 1024 + 4096*(i%16384) }},
	} {
		// AllocsPerRun reports a whole number, so an allocation on every
		// new size only while some structure fills would average to 0 over
		// one long run: 256 runs of 64 calls each walk the 16 384 sizes.
		i := 0
		for run := 0; run < 256; run++ {
			allocs := testing.AllocsPerRun(63, func() {
				i++
				if _, err := s.Decide("mini", coll.Bcast, mix.size(i)); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s: Decide allocates %v objects/op at call %d, want 0", mix.name, allocs, i)
			}
		}
	}
}

// TestDecideDoesNotBlockOnPublisher: the read path takes no lock a
// publisher holds, so a stalled publisher delays no decision.
func TestDecideDoesNotBlockOnPublisher(t *testing.T) {
	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast))
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	done := make(chan error, 1) // one send, from the one reader
	go func() {
		_, err := s.Decide("mini", coll.Bcast, 4096)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Decide waited for the publisher mutex")
	}
}

func TestServerPublishMetrics(t *testing.T) {
	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast))
	s.Decide("mini", coll.Bcast, 4096)
	s.Decide("mini", coll.Bcast, 4096)
	s.Decide("nowhere", coll.Bcast, 4096) // UnknownTableError

	reg := metrics.New()
	s.PublishMetrics(reg)
	fams := map[string]bool{}
	for _, f := range reg.Families() {
		fams[f] = true
	}
	for _, want := range []string{
		"hand_decisions", "hand_table_misses",
		"hand_flights", "hand_tunes", "hand_tune_errors",
		"hand_snapshot_swaps", "hand_retunes", "hand_wire_requests",
		"hand_wire_errors", "hand_tables", "hand_decide_latency_seconds",
	} {
		if !fams[want] {
			t.Fatalf("PublishMetrics missing family %s (got %v)", want, reg.Families())
		}
		delete(fams, want)
	}
	if len(fams) != 0 {
		t.Fatalf("PublishMetrics exports families docs/OBSERVABILITY.md does not list: %v", fams)
	}
	// What benchmark/serveload.go still reads: a finite hit ratio of 0.
	if c := s.Counters(); c.CacheMisses != c.Decisions || c.CacheHits+c.CacheStale+c.Evictions != 0 {
		t.Fatalf("retired cache counters: %+v, want CacheMisses = Decisions and the rest 0", c)
	}
	if v := reg.Counter(metrics.Opts{Name: "hand_decisions"}).Value(); v != 3 {
		t.Fatalf("hand_decisions = %v, want 3", v)
	}
	if v := reg.Gauge(metrics.Opts{Name: "hand_tables"}).Value(); v != 1 {
		t.Fatalf("hand_tables = %v, want 1", v)
	}
	// Three decisions on stripe 0: the 1st is timed, the 2nd and 3rd only
	// counted.
	h := reg.Histogram(metrics.Opts{Name: "hand_decide_latency_seconds"}, latBuckets)
	if h.Count() != 1 {
		t.Fatalf("latency histogram count = %d, want 1 (one decision in %d of 3)", h.Count(), latencySampleEvery)
	}
}

// sampled is how many of a stripe's first n decisions are timed.
func sampled(n uint64) uint64 { return (n + latencySampleEvery - 1) / latencySampleEvery }

// TestDecideLatencySampled: a stripe counts every decision and times the
// 1st, 17th, 33rd, …, so its histogram holds ⌈n/16⌉ observations; two
// goroutines on one stripe keep the count exact.
func TestDecideLatencySampled(t *testing.T) {
	for _, n := range []uint64{1, 15, 16, 17, 100} {
		s := NewServer(Options{})
		s.PublishTable("mini", tinyTable(1<<20, coll.Bcast))
		for i := uint64(0); i < n; i++ {
			if _, err := s.Decide("mini", coll.Bcast, 4096); err != nil {
				t.Fatal(err)
			}
		}
		st := &s.c.stripes[0]
		if got := s.Counters().Decisions; got != n {
			t.Fatalf("n=%d: Decisions = %d", n, got)
		}
		if got := st.lat.count(); got != sampled(n) {
			t.Fatalf("n=%d: histogram holds %d observations, want %d", n, got, sampled(n))
		}
	}

	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast))
	const per = 1000
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := s.Decide("mini", coll.Bcast, 4096); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c := s.Counters()
	if c.Decisions != 2*per {
		t.Fatalf("two readers on stripe 0: Decisions = %d, want %d", c.Decisions, 2*per)
	}
	if got := s.c.stripes[0].lat.count(); got != sampled(2*per) {
		t.Fatalf("two readers on stripe 0: histogram holds %d observations, want %d", got, sampled(2*per))
	}
}

// TestReadersCountApart: a local client or wire connection counts its
// decisions and frames in a stripe of its own, direct callers in stripe 0,
// and Counters and PublishMetrics report the sum over all of them.
func TestReadersCountApart(t *testing.T) {
	s, addr := startWireServer(t)
	a, b := NewLocalClient(s), NewLocalClient(s)
	direct := &s.c.stripes[0]
	if a.stripe == b.stripe || a.stripe == direct || b.stripe == direct {
		t.Fatalf("local clients share a stripe: a %p, b %p, direct callers %p", a.stripe, b.stripe, direct)
	}
	w, err := Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer w.Close()
	for _, r := range []struct {
		decide func(string, coll.Kind, int) (han.Config, error)
		n      int
	}{{a.Decide, 3}, {b.Decide, 2}, {w.Decide, 4}, {s.Decide, 1}} {
		for i := 0; i < r.n; i++ {
			if _, err := r.decide("mini", coll.Bcast, 4096); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := w.Decide("nowhere", coll.Bcast, 4096); err == nil {
		t.Fatal("a query for an unpublished cluster succeeded")
	}
	// The connection took the third stripe handed out, after a and b.
	conn := &s.c.stripes[3]
	if got := [4]uint64{a.stripe.decisions.Load(), b.stripe.decisions.Load(), conn.decisions.Load(), direct.decisions.Load()}; got != [4]uint64{3, 2, 5, 1} {
		t.Fatalf("decisions counted by a, b, the connection and direct callers = %v, want [3 2 5 1]", got)
	}
	for i := range s.c.stripes {
		st := &s.c.stripes[i]
		want := [2]uint64{}
		if st == conn {
			want = [2]uint64{5, 1}
		}
		if got := [2]uint64{st.wireReqs.Load(), st.wireErrors.Load()}; got != want {
			t.Fatalf("stripe %d counted %v wire requests and errors, want %v", i, got, want)
		}
	}
	// Each reader's first decision is timed: four stripes, four observations.
	c := s.Counters()
	if c.Decisions != 11 || c.WireRequests != 5 || c.WireErrors != 1 || c.LatencyP99 == 0 {
		t.Fatalf("Counters: %d decisions, %d wire requests, %d wire errors, p99 %s; want 11, 5, 1 and a p99 from the merged histogram",
			c.Decisions, c.WireRequests, c.WireErrors, c.LatencyP99)
	}
	reg := metrics.New()
	s.PublishMetrics(reg)
	for _, f := range []struct {
		name string
		want float64
	}{{"hand_decisions", 11}, {"hand_wire_requests", 5}, {"hand_wire_errors", 1}} {
		if v := reg.Counter(metrics.Opts{Name: f.name}).Value(); v != f.want {
			t.Fatalf("%s = %v, want %v", f.name, v, f.want)
		}
	}
	var timed uint64
	for _, n := range []uint64{3, 2, 5, 1} {
		timed += sampled(n)
	}
	if h := reg.Histogram(metrics.Opts{Name: "hand_decide_latency_seconds"}, latBuckets); h.Count() != timed {
		t.Fatalf("latency histogram count = %d, want %d (the sum over stripes of ⌈n/%d⌉)", h.Count(), timed, latencySampleEvery)
	}
	// More readers than stripes take them in turn.
	stripes := uint64(len(s.c.stripes))
	for s.c.readers.Load()+1 < stripes {
		NewLocalClient(s)
	}
	if c := NewLocalClient(s); c.stripe != direct {
		t.Fatalf("reader %d was handed %p, want stripe 0 (%p)", stripes, c.stripe, direct)
	}
}

func TestLatHistQuantile(t *testing.T) {
	h := &latHist{}
	for i := 0; i < 99; i++ {
		h.observe(300 * time.Nanosecond) // bucket ≤500ns
	}
	h.observe(100 * time.Millisecond) // overflow bucket
	if p50 := h.quantile(0.50); p50 != 500*time.Nanosecond {
		t.Fatalf("p50 = %s, want 500ns", p50)
	}
	if p99 := h.quantile(0.99); p99 != 500*time.Nanosecond {
		t.Fatalf("p99 = %s, want 500ns (99/100 observations at 300ns)", p99)
	}
	if p100 := h.quantile(1.0); p100 < 8*time.Millisecond {
		t.Fatalf("p100 = %s, want the overflow estimate", p100)
	}
}

func TestRunLoadLoopback(t *testing.T) {
	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast, coll.Allreduce))
	rep, err := RunLoad(LoadOpts{
		Clients:   2,
		Duration:  50 * time.Millisecond,
		Clusters:  []string{"mini"},
		NewClient: func() (*Client, error) { return NewLocalClient(s), nil },
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Requests == 0 {
		t.Fatal("load run issued no requests")
	}
	if rep.Errors != 0 {
		t.Fatalf("load run saw %d errors", rep.Errors)
	}
	if rep.QPS <= 0 || rep.P99 <= 0 {
		t.Fatalf("report not populated: %s", rep)
	}
	// The server samples its decisions; the client side times every one.
	if got := rep.lat.count(); got != rep.Requests {
		t.Fatalf("client histogram holds %d observations of %d requests", got, rep.Requests)
	}
}

func TestRunLoadPaced(t *testing.T) {
	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast, coll.Allreduce))
	rep, err := RunLoad(LoadOpts{
		Clients:   2,
		QPS:       200,
		Duration:  250 * time.Millisecond,
		Clusters:  []string{"mini"},
		NewClient: func() (*Client, error) { return NewLocalClient(s), nil },
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	// Pacing is approximate; a closed loop at 200 QPS for 250ms must stay
	// well under the unthrottled rate (hundreds of thousands).
	if rep.Requests == 0 || rep.Requests > 150 {
		t.Fatalf("paced run issued %d requests, want ~50", rep.Requests)
	}
}
