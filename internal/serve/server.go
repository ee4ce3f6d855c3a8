package serve

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/exec"
	"github.com/hanrepro/han/internal/han"
)

// Key identifies one published decision table. Cluster is the machine
// name queries arrive with (cmd/hand preloads tables under their Machine
// field).
type Key struct {
	Cluster string
	Kind    coll.Kind
}

func (k Key) String() string { return fmt.Sprintf("%s/%s", k.Cluster, k.Kind) }

// compareKeys orders keys by cluster, then kind.
func compareKeys(a, b Key) int {
	return cmp.Or(strings.Compare(a.Cluster, b.Cluster), cmp.Compare(a.Kind, b.Kind))
}

// Snapshot is one immutable published table generation. The Table must
// never be mutated after Publish: readers access it concurrently without
// locks, and its decision index is built exactly once, by install.
type Snapshot struct {
	Table *autotune.Table
	// Gen is the snapshot's global publication number.
	Gen uint64
}

// Tuner produces a decision table for a cluster the server has no
// snapshot for. cmd/hand wires this to an on-demand autotune sweep on
// internal/exec workers; tests use fakes. A Tuner runs on the requester's
// goroutine under single-flight collapse — concurrent misses for the same
// key share one invocation.
type Tuner func(cluster string) (*autotune.Table, error)

// UnknownTableError reports a query for a (cluster, collective) the
// server has no snapshot for and cannot tune on demand.
type UnknownTableError struct {
	Key Key
	// Cause is the tuner's error, or nil when no tuner is configured.
	Cause error
}

func (e *UnknownTableError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("serve: no table for %s: on-demand tune failed: %v", e.Key, e.Cause)
	}
	return fmt.Sprintf("serve: no table for %s and no tuner configured", e.Key)
}

func (e *UnknownTableError) Unwrap() error { return e.Cause }

// Options configures a Server.
type Options struct {
	// Tuner, when set, is invoked (single-flight) for queries naming a
	// cluster with no published table.
	Tuner Tuner
}

// Server answers decision queries over published table snapshots. Create
// one with NewServer; all methods are safe for concurrent use.
type Server struct {
	// tables is the immutable key → snapshot map. Publishers replace the
	// whole map (install: copy, insert, store); readers only ever Load.
	tables atomic.Pointer[map[Key]*Snapshot]
	tuner  Tuner

	pubMu sync.Mutex // serializes publishers; readers never take it
	gen   atomic.Uint64

	flight *exec.Flight[Key, tuneOutcome]

	// conns tracks open wire connections (wire.go) so Start's stop can
	// disconnect idle clients instead of waiting for them to hang up.
	conns connSet

	c counters
}

// tuneOutcome carries an on-demand tune result through the single-flight
// cache; errors ride as values so a failed tune poisons nothing.
type tuneOutcome struct {
	snap *Snapshot
	err  error
}

// NewServer returns a server with no published tables.
func NewServer(o Options) *Server {
	s := &Server{
		tuner:  o.Tuner,
		flight: exec.NewFlight[Key, tuneOutcome](nil),
	}
	s.tables.Store(&map[Key]*Snapshot{})
	return s
}

// snapshot returns the current snapshot for k, or nil.
func (s *Server) snapshot(k Key) *Snapshot { return (*s.tables.Load())[k] }

// install is the one publication path: it makes table the snapshot of
// every key in keys with a single store, so a reader sees all of a table's
// kinds change together, and returns the generation of the last key. The
// decision index is built here, under the publisher mutex and before the
// table is visible under any key; EnsureIndex leaves a current index
// alone, so installing a *Table that readers already decide against (the
// same table again, or under one more key) writes nothing they read. The
// new map is sized exactly: a republish of known keys adds none.
func (s *Server) install(table *autotune.Table, keys ...Key) uint64 {
	s.pubMu.Lock()
	table.EnsureIndex()
	old := *s.tables.Load()
	n := len(old)
	for _, k := range keys {
		if old[k] == nil {
			n++
		}
	}
	next := make(map[Key]*Snapshot, n)
	for k, snap := range old {
		next[k] = snap
	}
	var gen uint64
	for _, k := range keys {
		gen = s.gen.Add(1)
		next[k] = &Snapshot{Table: table, Gen: gen}
	}
	s.tables.Store(&next)
	s.pubMu.Unlock()
	s.c.swaps.Add(uint64(len(keys)))
	return gen
}

// Publish atomically installs table as the new snapshot for (cluster,
// kind) and returns its generation. The table must not be mutated
// afterwards: concurrent Decide calls read it without locks.
func (s *Server) Publish(cluster string, kind coll.Kind, table *autotune.Table) uint64 {
	return s.install(table, Key{Cluster: cluster, Kind: kind})
}

// tableKeys returns cluster's key for every collective kind table has
// entries for, sorted by kind.
func tableKeys(cluster string, table *autotune.Table) []Key {
	kinds := map[coll.Kind]bool{}
	for _, e := range table.Entries {
		kinds[e.In.T] = true
	}
	keys := make([]Key, 0, len(kinds))
	for kind := range kinds {
		keys = append(keys, Key{Cluster: cluster, Kind: kind})
	}
	slices.SortFunc(keys, compareKeys)
	return keys
}

// PublishTable installs table under every collective kind it has entries
// for, in one swap, and returns the published keys (sorted). cmd/hand uses
// it to preload table files, which typically cover both tuned collectives.
func (s *Server) PublishTable(cluster string, table *autotune.Table) []Key {
	keys := tableKeys(cluster, table)
	s.install(table, keys...)
	return keys
}

// Keys returns every published key, sorted, for reports and the
// re-tuner's walk.
func (s *Server) Keys() []Key {
	tables := *s.tables.Load()
	keys := make([]Key, 0, len(tables))
	for k := range tables {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	return keys
}

// TableCount returns the number of published snapshots.
func (s *Server) TableCount() int { return len(*s.tables.Load()) }

// Generation returns the latest published generation number.
func (s *Server) Generation() uint64 { return s.gen.Load() }

// Decide answers one decision query: one atomic load of the table map,
// one map lookup and the snapshot's binary-search index — no lock, no
// allocation. A missing table triggers the single-flight on-demand tuner.
func (s *Server) Decide(cluster string, kind coll.Kind, m int) (han.Config, error) {
	return s.decide(&s.c.decideLat[0], cluster, kind, m)
}

// readerLat hands a new reader (a local Client, a wire connection) the
// stripe of counters.decideLat its decisions are counted in.
func (s *Server) readerLat() *latHist {
	return &s.c.decideLat[s.c.readers.Add(1)%uint64(len(s.c.decideLat))]
}

// decide is Decide, counted in lat.
func (s *Server) decide(lat *latHist, cluster string, kind coll.Kind, m int) (han.Config, error) {
	start := time.Now()
	k := Key{Cluster: cluster, Kind: kind}
	snap, err := s.snapshot(k), error(nil)
	if snap == nil {
		snap, err = s.miss(k)
	}
	var cfg han.Config
	if err == nil {
		cfg = snap.Table.Decide(kind, m)
	}
	lat.observe(time.Since(start))
	return cfg, err
}

// miss resolves a query for an unpublished key: the configured tuner runs
// under single-flight collapse, publishes on success, and is forgotten on
// failure so a later request can retry. The tuned table publishes under
// every kind it has entries for (a tune sweeps all collectives, so the
// cluster's other kinds must not trigger a second full sweep).
func (s *Server) miss(k Key) (*Snapshot, error) {
	s.c.tableMisses.Add(1)
	first := false
	out := s.flight.Do(k, func() tuneOutcome {
		first = true
		if s.tuner == nil {
			return tuneOutcome{err: &UnknownTableError{Key: k}}
		}
		s.c.tunes.Add(1)
		table, err := s.tuner(k.Cluster)
		if err != nil {
			s.c.tuneErrors.Add(1)
			return tuneOutcome{err: &UnknownTableError{Key: k, Cause: err}}
		}
		keys := tableKeys(k.Cluster, table)
		if !slices.Contains(keys, k) {
			// The sweep produced no entries for the queried kind; publish
			// under it anyway so the default decision serves from the
			// snapshot map instead of re-tuning on every query.
			keys = append(keys, k)
		}
		s.install(table, keys...)
		return tuneOutcome{snap: s.snapshot(k)}
	})
	if !first {
		s.c.flights.Add(1)
	}
	// Either way the flight entry has served its purpose: on success the
	// table map now answers directly; on failure the forget enables retry.
	s.flight.Forget(k)
	return out.snap, out.err
}

// Retune rebuilds the table behind every published key through the
// configured tuner and atomically publishes the results. Readers are
// never blocked; they observe the generation bump on their next query.
// Returns the number of snapshots republished and the first error.
func (s *Server) Retune() (int, error) {
	if s.tuner == nil {
		return 0, fmt.Errorf("serve: Retune needs a Tuner")
	}
	// One tune per cluster, republished under every kind that cluster
	// already serves.
	byCluster := map[string][]Key{}
	for _, k := range s.Keys() {
		byCluster[k.Cluster] = append(byCluster[k.Cluster], k)
	}
	clusters := make([]string, 0, len(byCluster))
	for c := range byCluster {
		clusters = append(clusters, c)
	}
	slices.Sort(clusters)
	n := 0
	var firstErr error
	for _, cl := range clusters {
		table, err := s.tuner(cl)
		if err != nil {
			s.c.tuneErrors.Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: re-tune %s: %w", cl, err)
			}
			continue
		}
		s.install(table, byCluster[cl]...)
		n += len(byCluster[cl])
	}
	s.c.retunes.Add(1)
	return n, firstErr
}

// StartRetuner launches the background re-tuner: every interval it
// rebuilds all published tables and swaps the new snapshots in. The
// returned stop function halts the loop and waits for an in-flight round
// to finish. Re-tune errors leave the previous snapshots serving.
func (s *Server) StartRetuner(interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				_, _ = s.Retune() // errors keep the old snapshots
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
