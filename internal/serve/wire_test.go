package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
)

// roundTripRequests are the requests TestWireRequestRoundTrip encodes,
// and seeds of FuzzParseRequest.
var roundTripRequests = []request{
	{Cluster: "mini", Kind: coll.Bcast, M: 4096},
	{Cluster: "", Kind: coll.Allreduce, M: 0},
	{Cluster: "a-very-long-cluster-name-with-dashes", Kind: coll.Scatter, M: 1 << 30},
}

// corruptRequests are the malformed payloads parseRequest must reject, by
// name, and seeds of FuzzParseRequest.
func corruptRequests() map[string][]byte {
	good := appendRequest(nil, request{Cluster: "mini", Kind: coll.Bcast, M: 1})[4:]
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
		frame := appendRequest(nil, req)
		got, err := parseRequest(frame[4:])
		if err != nil {
			t.Fatalf("parseRequest(%+v): %v", req, err)
		}
		if got != req {
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
	frame := appendRequest(nil, request{Cluster: "mini", Kind: coll.Bcast, M: 1})
	payload := frame[4:]
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
		f.Add(appendRequest(nil, req)[4:])
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
		if frame := appendRequest(nil, req); !bytes.Equal(frame[4:], payload) {
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
	resp, _, err := readFrame(conn, nil)
	if err != nil {
		t.Fatalf("no error frame before close: %v", err)
	}
	if resp[0] != statusError {
		t.Fatalf("response status %d, want error", resp[0])
	}
	// The connection is now closed server-side: the next read fails.
	if _, _, err := readFrame(conn, nil); err == nil {
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
