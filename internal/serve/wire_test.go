package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
)

// roundTripRequests are the requests TestWireRequestRoundTrip encodes,
// and seeds of FuzzParseRequest.
var roundTripRequests = []request{
	{Cluster: []byte("mini"), Kind: coll.Bcast, M: 4096},
	{Cluster: []byte(""), Kind: coll.Allreduce, M: 0},
	{Cluster: []byte("a-very-long-cluster-name-with-dashes"), Kind: coll.Scatter, M: 1 << 30},
}

// requestFrame encodes req as a frame.
func requestFrame(req request) []byte {
	return appendRequest(nil, string(req.Cluster), req.Kind, req.M)
}

// corruptRequests are the malformed payloads parseRequest must reject, by
// name, and seeds of FuzzParseRequest.
func corruptRequests() map[string][]byte {
	good := appendRequest(nil, "mini", coll.Bcast, 1)[4:]
	return map[string][]byte{
		"short":        good[:5],
		"bad version":  append([]byte{99}, good[1:]...),
		"bad op":       {wireVersion, 42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"bad kind":     {wireVersion, opDecide, byte(coll.Scatter) + 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0},
		"len mismatch": append(append([]byte{}, good...), 'x'),
	}
}

func TestWireRequestRoundTrip(t *testing.T) {
	for _, req := range roundTripRequests {
		got, err := parseRequest(requestFrame(req)[4:])
		if err != nil {
			t.Fatalf("parseRequest(%+v): %v", req, err)
		}
		if !bytes.Equal(got.Cluster, req.Cluster) || got.Kind != req.Kind || got.M != req.M {
			t.Fatalf("round trip %+v -> %+v", req, got)
		}
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	for _, cfg := range []han.Config{
		{FS: 1 << 20, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgBinary, IRAlg: coll.AlgChain, IBS: 4096, IRS: 8192},
		{}, // zero config round-trips too
	} {
		frame := appendOKResponse(nil, cfg)
		got, err := parseResponse(frame[4:])
		if err != nil {
			t.Fatalf("parseResponse(%+v): %v", cfg, err)
		}
		if got != cfg {
			t.Fatalf("round trip %+v -> %+v", cfg, got)
		}
	}
	frame := appendErrResponse(nil, fmt.Errorf("no such table"))
	if _, err := parseResponse(frame[4:]); err == nil {
		t.Fatal("error response parsed as success")
	} else if err.Error() != "serve: remote: no such table" {
		t.Fatalf("remote error = %q", err)
	}
}

// TestWireFrameBytes pins the protocol's bytes, so that clients and
// servers of other versions keep talking to these.
func TestWireFrameBytes(t *testing.T) {
	cfg := han.Config{FS: 1 << 20, IMod: "adapt", SMod: "sm", IBAlg: coll.AlgBinary, IRAlg: coll.AlgChain, IBS: 4096, IRS: 8192}
	for _, c := range []struct {
		frame []byte
		want  string
	}{
		{appendRequest(nil, "mini", coll.Allreduce, 4096), "00000011010102000000000000100000046d696e69"},
		{appendOKResponse(nil, cfg), "0000002400000000000010000000000000000010000000000000002000030405616461707402736d"},
		{appendErrResponse(nil, fmt.Errorf("no such table")), "0000001001000d6e6f2073756368207461626c65"},
	} {
		if got := hex.EncodeToString(c.frame); got != c.want {
			t.Fatalf("frame %s, want %s", got, c.want)
		}
	}
}

func TestWireParseRejectsCorruptFrames(t *testing.T) {
	for name, payload := range corruptRequests() {
		if _, err := parseRequest(payload); err == nil {
			t.Fatalf("parseRequest accepted %s payload", name)
		}
	}
	if _, err := parseResponse(nil); err == nil {
		t.Fatal("parseResponse accepted empty payload")
	}
	if _, err := parseResponse([]byte{7}); err == nil {
		t.Fatal("parseResponse accepted unknown status")
	}
}

func TestWireParseRejectsOversizedM(t *testing.T) {
	payload := appendRequest(nil, "mini", coll.Bcast, 1)[4:]
	// A size above MaxInt would wrap int(m) negative and flow a nonsense
	// message size into Decide.
	binary.BigEndian.PutUint64(payload[3:11], 1<<63)
	if _, err := parseRequest(payload); err == nil {
		t.Fatal("parseRequest accepted a size that overflows int")
	}
}

// FuzzParseRequest feeds arbitrary payloads to parseRequest. It must
// return an error, or a request of one of the six kinds, with M >= 0, that
// appendRequest encodes back to exactly the payload.
func FuzzParseRequest(f *testing.F) {
	for _, req := range roundTripRequests {
		f.Add(requestFrame(req)[4:])
	}
	for _, payload := range corruptRequests() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := parseRequest(payload)
		if err != nil {
			return
		}
		if req.Kind < coll.Bcast || req.Kind > coll.Scatter {
			t.Fatalf("parseRequest accepted kind %d", req.Kind)
		}
		if req.M < 0 {
			t.Fatalf("parseRequest accepted M = %d", req.M)
		}
		if frame := requestFrame(req); !bytes.Equal(frame[4:], payload) {
			t.Fatalf("%+v re-encodes to %x, not %x", req, frame[4:], payload)
		}
	})
}

// startWireServer publishes a table, listens on loopback, and hands the
// test a dial address plus cleanup.
func startWireServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast, coll.Allreduce))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	stop := s.Start(l)
	t.Cleanup(stop)
	return s, l.Addr().String()
}

func TestWireClientServer(t *testing.T) {
	s, addr := startWireServer(t)
	cl, err := Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	got, err := cl.Decide("mini", coll.Bcast, 4096)
	if err != nil {
		t.Fatalf("wire Decide: %v", err)
	}
	want, _ := s.Decide("mini", coll.Bcast, 4096)
	if got != want {
		t.Fatalf("wire decision %+v != local %+v", got, want)
	}

	// Unknown cluster: an error frame, and the connection stays usable.
	if _, err := cl.Decide("nowhere", coll.Bcast, 4096); err == nil {
		t.Fatal("wire Decide on unknown cluster succeeded")
	}
	if _, err := cl.Decide("mini", coll.Allreduce, 1<<18); err != nil {
		t.Fatalf("connection unusable after error response: %v", err)
	}
	c := s.Counters()
	if c.WireRequests < 3 || c.WireErrors != 1 {
		t.Fatalf("WireRequests=%d WireErrors=%d, want >=3 and 1", c.WireRequests, c.WireErrors)
	}
}

func TestWireServerDropsCorruptConnection(t *testing.T) {
	_, addr := startWireServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// A frame with a bogus op: the server answers one error frame and
	// closes, since framing can no longer be trusted.
	payload := []byte{wireVersion, 42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	frame = append(frame, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	fr := newFrameReader(conn)
	resp, err := fr.next()
	if err != nil {
		t.Fatalf("no error frame before close: %v", err)
	}
	if resp[0] != statusError {
		t.Fatalf("response status %d, want error", resp[0])
	}
	// The connection is now closed server-side: the next read fails.
	if _, err := fr.next(); err == nil {
		t.Fatal("server kept a desynced connection open")
	}
}

func TestStartStopClosesIdleConnections(t *testing.T) {
	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	stop := s.Start(l)
	cl, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Decide("mini", coll.Bcast, 4096); err != nil {
		t.Fatalf("Decide: %v", err)
	}
	// The client now idles between requests; stop must disconnect it
	// rather than wait for it to hang up on its own.
	done := make(chan struct{})
	go func() { stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop() hung on an idle connection")
	}
	// The client observes the shutdown on its next query.
	if _, err := cl.Decide("mini", coll.Bcast, 4096); err == nil {
		t.Fatal("Decide succeeded after server stop")
	}
}

func TestWireConcurrentClients(t *testing.T) {
	s, addr := startWireServer(t)
	want, _ := s.Decide("mini", coll.Bcast, 4096)
	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			cl, err := Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for j := 0; j < 50; j++ {
				got, err := cl.Decide("mini", coll.Bcast, 4096)
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("decision %+v != %+v", got, want)
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunLoadOverWire(t *testing.T) {
	_, addr := startWireServer(t)
	rep, err := RunLoad(LoadOpts{
		Clients:   2,
		Duration:  50 * time.Millisecond,
		Clusters:  []string{"mini"},
		NewClient: func() (*Client, error) { return Dial("tcp", addr) },
	})
	if err != nil {
		t.Fatalf("RunLoad over wire: %v", err)
	}
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Fatalf("wire load run: %s", rep)
	}
}

// countConn counts the Reads on a conn that returned data, and its Writes.
type countConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// pipeServer serves one end of a net.Pipe on s's connection loop and
// returns the other end, a count of the server end's calls, and a wait for
// the loop to return once the client end is closed.
func pipeServer(t *testing.T, s *Server) (net.Conn, *countConn, func()) {
	t.Helper()
	client, server := net.Pipe()
	counted := &countConn{Conn: server}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serveConn(counted)
	}()
	if err := client.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	wait := func() {
		client.Close()
		<-done
	}
	t.Cleanup(wait)
	return client, counted, wait
}

// pipeFrame appends the frame of pipeQuery(i) to buf.
func pipeFrame(buf []byte, i int) []byte {
	cluster, kind, m := pipeQuery(i)
	return appendRequest(buf, cluster, kind, m)
}

// pipeQuery is the i-th query the pipe tests send: both published kinds,
// a spread of sizes, and an unpublished cluster every seventh query.
func pipeQuery(i int) (string, coll.Kind, int) {
	cluster := "mini"
	if i%7 == 6 {
		cluster = "nowhere"
	}
	return cluster, []coll.Kind{coll.Bcast, coll.Allreduce}[i%2], 1024 << (i % 12)
}

// checkAnswer fails t unless payload is the server's answer to query i.
func checkAnswer(t *testing.T, s *Server, i int, payload []byte) {
	t.Helper()
	cluster, kind, m := pipeQuery(i)
	want, wantErr := s.Decide(cluster, kind, m)
	got, err := parseResponse(payload)
	if (err != nil) != (wantErr != nil) || got != want {
		t.Fatalf("answer %d to Decide(%s, %v, %d) = %+v, %v; want %+v, %v", i, cluster, kind, m, got, err, want, wantErr)
	}
}

// TestOneReadPerFrame pins the framing's syscall count: a frame that
// arrives whole costs its reader one Read, header and payload together, on
// the server's side and on the client's.
func TestOneReadPerFrame(t *testing.T) {
	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast, coll.Allreduce))
	conn, server, wait := pipeServer(t, s)
	client := &countConn{Conn: conn}
	cl := newWireClient(client)
	const n = 40
	for i := 0; i < n; i++ {
		cluster, kind, m := pipeQuery(i)
		got, err := cl.Decide(cluster, kind, m)
		want, wantErr := s.Decide(cluster, kind, m)
		if (err != nil) != (wantErr != nil) || got != want {
			t.Fatalf("Decide(%s, %v, %d) = %+v, %v; want %+v, %v", cluster, kind, m, got, err, want, wantErr)
		}
	}
	wait()
	if r, w := server.reads.Load(), server.writes.Load(); r != n || w != n {
		t.Fatalf("server made %d reads and %d writes for %d requests, want one each", r, w, n)
	}
	if r := client.reads.Load(); r != n {
		t.Fatalf("client made %d reads for %d answers, want one each", r, n)
	}
}

// TestPipelinedRequestsGetOneWrite: requests that arrive together are
// answered together, in order, with one Write.
func TestPipelinedRequestsGetOneWrite(t *testing.T) {
	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast, coll.Allreduce))
	conn, server, wait := pipeServer(t, s)
	const n = 32
	var batch []byte
	for i := 0; i < n; i++ {
		batch = pipeFrame(batch, i)
	}
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(conn)
	for i := 0; i < n; i++ {
		payload, err := fr.next()
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		checkAnswer(t, s, i, payload)
	}
	wait()
	if r, w := server.reads.Load(), server.writes.Load(); r != 1 || w != 1 {
		t.Fatalf("server made %d reads and %d writes for %d pipelined requests, want 1 and 1", r, w, n)
	}
}

// TestHalfSentFrameDoesNotHoldBackAnswer: the server answers what it holds
// before it waits for the rest of a frame.
func TestHalfSentFrameDoesNotHoldBackAnswer(t *testing.T) {
	s := NewServer(Options{})
	s.PublishTable("mini", tinyTable(1<<20, coll.Bcast, coll.Allreduce))
	conn, _, _ := pipeServer(t, s)
	first, second := pipeFrame(nil, 0), pipeFrame(nil, 1)
	fr := newFrameReader(conn)
	for _, cut := range []int{2, 4, 9} {
		if _, err := conn.Write(append(append([]byte{}, first...), second[:cut]...)); err != nil {
			t.Fatal(err)
		}
		payload, err := fr.next()
		if err != nil {
			t.Fatalf("first answer held back by %d bytes of the next frame: %v", cut, err)
		}
		checkAnswer(t, s, 0, payload)
		if _, err := conn.Write(second[cut:]); err != nil {
			t.Fatal(err)
		}
		if payload, err = fr.next(); err != nil {
			t.Fatalf("second answer: %v", err)
		}
		checkAnswer(t, s, 1, payload)
	}
}

// TestWireDecideZeroAlloc pins the wire round trip's allocation contract:
// a warm Client.Decide over loopback TCP allocates nothing, on the client
// or on the server in the same process.
func TestWireDecideZeroAlloc(t *testing.T) {
	_, addr := startWireServer(t)
	cl, err := Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	var derr error
	decide := func() {
		if _, err := cl.Decide("mini", coll.Bcast, 4096); err != nil {
			derr = err
		}
	}
	decide()
	allocs := testing.AllocsPerRun(1000, decide)
	if derr != nil {
		t.Fatal(derr)
	}
	if allocs != 0 {
		t.Fatalf("wire Decide allocated %.2f objects per round trip, want 0", allocs)
	}
}

// chunkReader returns at most k bytes of b per Read.
type chunkReader struct {
	b []byte
	k int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.k)], r.b)
	r.b = r.b[n:]
	return n, nil
}

// decodeFrames splits a whole stream into frame payloads at once. clean
// reports whether it ends on a frame boundary with every length in range.
func decodeFrames(b []byte) (frames [][]byte, clean bool) {
	for len(b) > 0 {
		if len(b) < 4 {
			return frames, false
		}
		n := binary.BigEndian.Uint32(b)
		if n == 0 || n > maxFrame || uint64(len(b)-4) < uint64(n) {
			return frames, false
		}
		frames = append(frames, b[4:4+n])
		b = b[4+n:]
	}
	return frames, true
}

// FuzzReadFrames feeds an arbitrary byte stream to a frameReader through a
// reader that returns at most k bytes per Read, k taken from the input's
// first byte. The frameReader must yield exactly the frames a one-shot
// decode of the stream yields, then stop: at io.EOF if the stream ends
// cleanly, at another error if not. No buffer grows past maxFrame.
func FuzzReadFrames(f *testing.F) {
	var stream []byte
	for _, req := range roundTripRequests {
		stream = append(stream, requestFrame(req)...)
	}
	stream = appendOKResponse(stream, han.Config{FS: 1 << 20, IMod: "adapt", SMod: "sm"})
	big := binary.BigEndian.AppendUint32(nil, 6000)
	big = append(big, bytes.Repeat([]byte{7}, 6000)...)
	for _, k := range []byte{0, 3, 16, 255} {
		f.Add(append([]byte{k}, stream...))
		f.Add(append([]byte{k}, stream[:len(stream)-3]...))
		f.Add(append(append([]byte{k}, big...), stream...))
	}
	f.Add([]byte{5, 0, 0, 0, 0})
	f.Add([]byte{5, 0, 1, 0, 1, 9})
	f.Add([]byte{5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		want, clean := decodeFrames(data[1:])
		fr := newFrameReader(&chunkReader{b: data[1:], k: int(data[0]) + 1})
		for i := 0; ; i++ {
			p, err := fr.next()
			if cap(fr.big) > maxFrame || fr.r.Size() != 4096 {
				t.Fatalf("buffers grew to %d and %d bytes", cap(fr.big), fr.r.Size())
			}
			if err != nil {
				if i != len(want) {
					t.Fatalf("stopped after %d of %d frames: %v", i, len(want), err)
				}
				if (err == io.EOF) != clean {
					t.Fatalf("stream clean=%v ended in %v", clean, err)
				}
				return
			}
			if i >= len(want) || !bytes.Equal(p, want[i]) {
				t.Fatalf("frame %d = %x, one-shot decode says otherwise", i, p)
			}
		}
	})
}
