package serve

import (
	"net"
	"testing"

	"github.com/hanrepro/han/internal/coll"
)

// benchServer publishes one table and pre-touches the benchmark's query
// point so the timed loop measures the steady state.
func benchServer(b *testing.B) *Server {
	b.Helper()
	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast, coll.Allreduce))
	if _, err := s.Decide("mini", coll.Bcast, 4096); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkServerDecideWarm is the contract's hot path: snapshot present.
// Must report 0 allocs/op.
func BenchmarkServerDecideWarm(b *testing.B) {
	s := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decide("mini", coll.Bcast, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerDecideWarmParallel drives the same path from all procs,
// one local client each as in the QPS harness: ns/op should fall with -cpu.
func BenchmarkServerDecideWarmParallel(b *testing.B) {
	s := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cl := NewLocalClient(s)
		var seq uint64
		for pb.Next() {
			seq++
			m := int(mix64(seq)&0x3f)*1024 + 1024
			if _, err := cl.Decide("mini", coll.Bcast, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClientLoopback measures the in-process client wrap.
func BenchmarkClientLoopback(b *testing.B) {
	cl := NewLocalClient(benchServer(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Decide("mini", coll.Bcast, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientWire measures one full socket round trip per decision.
func BenchmarkClientWire(b *testing.B) {
	s := benchServer(b)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	stop := s.Start(l)
	defer stop()
	cl, err := Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Decide("mini", coll.Bcast, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWirePipelined measures a client that pipelines: one write of 16
// requests, then the 16 answers, over one socket. ns/op is per decision.
func BenchmarkWirePipelined(b *testing.B) {
	const depth = 16
	s := benchServer(b)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	stop := s.Start(l)
	defer stop()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	var batch []byte
	for i := 0; i < depth; i++ {
		batch = appendRequest(batch, "mini", coll.Bcast, 4096)
	}
	fr := newFrameReader(conn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		if _, err := conn.Write(batch); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < depth; j++ {
			p, err := fr.next()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := parseResponse(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
