package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/hanrepro/han/internal/autotune"
	"github.com/hanrepro/han/internal/cluster"
	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/mpi"
	"github.com/hanrepro/han/internal/serve"
)

// serveLoad is a decision-service workload: one op is one Client.Decide.
// It is a closed loop — hand's callers (launchers, ranks at communicator
// creation) block on the reply — with one connection or reader per CPU.
type serveLoad struct {
	wire         bool  // over TCP on loopback, or in-process through NewLocalClient
	clusters     int   // cluster names the table is published under
	sizeMix      []int // message sizes the queries draw from
	opsPerRound  int   // per connection
	publishEvery int   // reader 0 republishes a table every this many of its own queries; 0 never
	sampleEvery  int   // latency is taken on every this-many-th op
}

type serveInst struct {
	serveLoad
	c        *runCtx
	table    *autotune.Table
	tuneD    time.Duration // the set-up sweep, what `hand -tune` does at start
	srv      *serve.Server
	stop     func()
	clients  []*serve.Client
	names    []string
	seedMix  uint64
	lat      [][]float64 // per connection, reused across rounds
	combined []float64
}

// loadgenSizes is the 64-point mix of serve.RunLoad: sixteen power-of-two
// bases from 1 KiB to 32 MiB, each with four quarter steps. A warm LRU
// holds every point.
func loadgenSizes() []int {
	sizes := make([]int, 64)
	for i := range sizes {
		base := 1024 << (uint(i) / 4)
		sizes[i] = base + base/4*(i%4)
	}
	return sizes
}

// churnSizes is n distinct sizes 4 KiB apart, a working set far larger
// than the LRU.
func churnSizes(n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 1024 + 4096*i
	}
	return sizes
}

// tuneServedTable runs the sweep `hand -tune` runs at start, so set-up is
// seconds of real tuning and the served table is a real one.
func tuneServedTable(c *runCtx) (*autotune.Table, time.Duration) {
	env := autotune.NewEnv(cluster.Mini(4, 8), mpi.OpenMPI())
	env.Seed = int64(c.seed)
	space := autotune.DefaultSpace()
	if c.short {
		space.Msgs, space.FS = []int{1 << 10, 1 << 20}, space.FS[:2]
	}
	t0 := time.Now()
	t := autotune.RunSearch(env, space, tunedKinds, autotune.Combined, autotune.SearchOpts{Workers: c.nproc}).Table
	return t, time.Since(t0)
}

func (l serveLoad) setup(c *runCtx) (instance, error) {
	s := &serveInst{serveLoad: l, c: c, seedMix: mix64(c.seed)}
	if c.short {
		s.opsPerRound = 2000
	}
	s.table, s.tuneD = tuneServedTable(c)
	s.srv = serve.NewServer(serve.Options{})
	for i := 0; i < l.clusters; i++ {
		s.names = append(s.names, fmt.Sprintf("cluster%d", i))
		s.srv.PublishTable(s.names[i], s.table)
	}
	addr := ""
	if l.wire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.stop = s.srv.Start(ln)
		addr = ln.Addr().String()
	}
	for i := 0; i < c.nproc; i++ {
		cl := serve.NewLocalClient(s.srv)
		if l.wire {
			var err error
			if cl, err = serve.Dial("tcp", addr); err != nil {
				s.close()
				return nil, err
			}
		}
		s.clients = append(s.clients, cl)
		s.lat = append(s.lat, make([]float64, 0, s.opsPerRound/l.sampleEvery+1))
	}
	// Warm the LRU: every point of the mix once, or as many as the cache
	// holds when the mix is larger than the cache.
	points := min(l.clusters*len(tunedKinds)*len(s.sizeMix), 8192)
	for _, cl := range s.clients {
		for i := 0; i < points; i++ {
			name, kind, m := s.query(uint64(i))
			if _, err := cl.Decide(name, kind, m); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up decide: %w", err)
			}
		}
	}
	return s, nil
}

// query maps a generator draw to a (cluster, collective, size) point.
func (s *serveInst) query(h uint64) (string, coll.Kind, int) {
	return s.names[h%uint64(len(s.names))], tunedKinds[(h>>16)%uint64(len(tunedKinds))], s.sizeMix[(h>>32)%uint64(len(s.sizeMix))]
}

func (s *serveInst) close() {
	for _, cl := range s.clients {
		_ = cl.Close() // the run is over; a close error changes nothing
	}
	s.clients = nil
	if s.stop != nil {
		s.stop()
		s.stop = nil
	}
}

func (s *serveInst) round(r int) (roundOut, error) { return s.runRound(r, nil, 0) }

// runRound drives every connection through opsPerRound decisions. A served
// decision is wrong if it errors, or — on a 1-in-100 sample — if it is not
// what Table.Decide answers on the published table (every generation
// publishes the same table, so the answer does not depend on the
// generation a reader saw).
func (s *serveInst) runRound(r int, rec *recorder, parent int) (roundOut, error) {
	failed := make([]int64, len(s.clients))
	var wg sync.WaitGroup
	for conn, cl := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := s.lat[conn][:0]
			for i := 0; i < s.opsPerRound; i++ {
				seq := uint64(r*s.opsPerRound + i)
				name, kind, m := s.query(mix64(s.seedMix ^ uint64(conn)<<56 ^ seq))
				if conn == 0 && s.publishEvery > 0 && i > 0 && i%s.publishEvery == 0 {
					pub := rec.begin("serve.publish", parent, int(seq))
					s.srv.PublishTable(s.names[(i/s.publishEvery)%len(s.names)], s.table)
					rec.end(pub)
				}
				span := 0
				if rec != nil && i%1000 == 0 {
					span = rec.begin("serve.client_decide", parent, int(seq))
				}
				var t0 time.Time
				timed := i%s.sampleEvery == 0
				if timed {
					t0 = time.Now()
				}
				cfg, err := cl.Decide(name, kind, m)
				if timed {
					lat = append(lat, float64(time.Since(t0).Nanoseconds()))
				}
				if span != 0 {
					rec.end(span)
				}
				if err != nil || (i%100 == 0 && cfg != s.table.Decide(kind, m)) {
					failed[conn]++
				}
			}
			s.lat[conn] = lat
		}()
	}
	wg.Wait()
	out := roundOut{ops: int64(len(s.clients) * s.opsPerRound)}
	s.combined = s.combined[:0]
	for conn := range s.clients {
		out.failed += failed[conn]
		s.combined = append(s.combined, s.lat[conn]...)
	}
	out.latNs = s.combined
	return out, nil
}

func (s *serveInst) traced(rec *recorder, layers map[string]float64) (roundOut, error) {
	root := rec.begin("round", 0, 0)
	out, err := s.runRound(1, rec, root)
	rec.end(root)
	if err != nil {
		return out, err
	}
	sorted := append([]float64(nil), out.latNs...)
	sort.Float64s(sorted)
	layers["serve.op_p99_us"] = percentile(sorted, 0.99) / 1e3
	c := s.srv.Counters()
	layers["serve.cache_hit_ratio"] = float64(c.CacheHits) / float64(c.CacheHits+c.CacheMisses)
	layers["serve.cache_stale"] = float64(c.CacheStale)
	layers["serve.evictions"] = float64(c.Evictions)
	layers["serve.table_misses"] = float64(c.TableMisses)
	layers["serve.wire_errors"] = float64(c.WireErrors)
	layers["serve.server_p99_us"] = float64(c.LatencyP99.Nanoseconds()) / 1e3
	layers["autotune.search_combined_ms"] = ms(s.tuneD)
	if c.WireErrors != 0 || c.TableMisses != 0 {
		out.failed++ // every queried cluster is published and every frame well-formed
	}
	return out, s.probes(rec, layers)
}

// probes times the service's stages one at a time on a server of its own:
// lookup on a hit and on a miss, publish, the wire round trip, and a bare
// TCP echo of same-size frames as the syscall floor. The remainder,
// rtt - echo - lookup, is framing plus the connection loop: the
// stage-by-stage account of the ~12 us wire gap ROADMAP item 1(d) asks for.
func (s *serveInst) probes(rec *recorder, layers map[string]float64) error {
	n := 200_000
	if s.c.short {
		n = 2_000
	}
	srv := serve.NewServer(serve.Options{})
	names := []string{"cluster0", "cluster1", "cluster2", "cluster3"}
	var pubUs []float64
	for i := 0; i < 50; i++ {
		sp := rec.begin("serve.publish", 0, i)
		srv.PublishTable(names[i%len(names)], s.table)
		rec.end(sp)
		pubUs = append(pubUs, float64(rec.duration(sp).Nanoseconds())/1e3)
	}
	layers["serve.publish_us"] = median(pubUs)

	hot, churn := loadgenSizes(), churnSizes(16384)
	decideLoop := func(sizes []int, nClusters int) (float64, error) {
		var t0 time.Time
		for i := 0; i < 2*n; i++ { // the first n queries warm the cache, the same n again are timed
			if i == n {
				t0 = time.Now()
			}
			h := mix64(s.seedMix ^ uint64(i%n))
			if _, err := srv.Decide(names[h%uint64(nClusters)], tunedKinds[(h>>16)%2], sizes[(h>>32)%uint64(len(sizes))]); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
	}
	hitNs, err := decideLoop(hot, 1)
	if err != nil {
		return err
	}
	missNs, err := decideLoop(churn, len(names))
	if err != nil {
		return err
	}
	layers["serve.decide_hit_ns"], layers["serve.decide_miss_ns"] = hitNs, missNs

	t0 := time.Now()
	for i := 0; i < n; i++ {
		h := mix64(s.seedMix ^ uint64(i))
		s.table.Decide(tunedKinds[(h>>16)%2], churn[(h>>32)%uint64(len(churn))])
	}
	layers["autotune.decide_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)

	path := filepath.Join(s.c.outDir, "table-"+s.table.Machine+".json")
	if err := s.table.Save(path); err != nil {
		return err
	}
	var loadMs []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := autotune.Load(path); err != nil {
			return err
		}
		loadMs = append(loadMs, ms(time.Since(t0)))
	}
	layers["autotune.table_load_ms"] = median(loadMs)

	// One connection over loopback TCP, warm points only.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	stop := srv.Start(ln)
	defer stop()
	cl, err := serve.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()
	rtts := make([]float64, 0, n/4)
	for i := 0; i < n/4; i++ {
		h := mix64(s.seedMix ^ uint64(i))
		t0 := time.Now()
		if _, err := cl.Decide(names[0], tunedKinds[(h>>16)%2], hot[(h>>32)%uint64(len(hot))]); err != nil {
			return err
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	cfg := s.table.Decide(coll.Bcast, hot[0])
	// Frame sizes of the wire protocol (internal/serve/wire.go): a 4-byte
	// length prefix, then version, op, kind, size, name; or status, three
	// sizes, two algorithms, two length-prefixed module names.
	reqLen := 4 + 3 + 8 + 2 + len(names[0])
	respLen := 4 + 1 + 24 + 2 + 1 + len(cfg.IMod) + 1 + len(cfg.SMod)
	echo, err := tcpEcho(reqLen, respLen, n/4)
	if err != nil {
		return err
	}
	layers["serve.wire_rtt_us"] = median(rtts)
	layers["serve.tcp_echo_rtt_us"] = echo
	layers["serve.wire_overhead_us"] = median(rtts) - echo - hitNs/1e3
	return nil
}

// tcpEcho is the syscall floor under the wire protocol: a loopback TCP
// peer that reads reqLen bytes and answers respLen bytes with no parsing
// and no lookup. It returns the median round trip in microseconds.
func tcpEcho(reqLen, respLen, n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	served := make(chan error, 1) // one send, from the one echo goroutine
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		req, resp := make([]byte, reqLen), make([]byte, respLen)
		for {
			if _, err := io.ReadFull(conn, req); err != nil {
				if errors.Is(err, io.EOF) {
					err = nil // the client hung up: the probe is over
				}
				served <- err
				return
			}
			if _, err := conn.Write(resp); err != nil {
				served <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return 0, errors.Join(err, <-served)
	}
	req, resp := make([]byte, reqLen), make([]byte, respLen)
	rtts := make([]float64, 0, n)
	for i := 0; i < n && err == nil; i++ {
		t0 := time.Now()
		if _, err = conn.Write(req); err == nil {
			_, err = io.ReadFull(conn, resp)
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	conn.Close()
	ln.Close()
	return median(rtts), errors.Join(err, <-served)
}
