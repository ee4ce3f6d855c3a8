package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
)

// Wire protocol: each direction carries length-prefixed frames — a uint32
// big-endian payload length followed by that many payload bytes. One
// request frame produces exactly one response frame, in order, so a
// client may pipeline.
//
// Request payload:
//
//	ver    uint8  — wireVersion
//	op     uint8  — opDecide
//	kind   uint8  — coll.Kind
//	size   uint64 — message size in bytes
//	clen   uint16 — cluster name length
//	cluster [clen]byte
//
// Response payload:
//
//	status uint8 — statusOK or statusError
//	on OK:    fs uint64, ibs uint64, irs uint64, ibalg uint8, iralg uint8,
//	          imodLen uint8 + imod, smodLen uint8 + smod
//	on error: elen uint16 + message
const (
	wireVersion = 1
	opDecide    = 1

	statusOK    = 0
	statusError = 1

	// maxFrame bounds a frame payload; cluster names are short, so
	// anything bigger is a corrupt stream, not a big request.
	maxFrame = 1 << 16
)

// request is one decoded decide query.
type request struct {
	Cluster string
	Kind    coll.Kind
	M       int
}

// appendRequest encodes req as a frame appended to buf.
func appendRequest(buf []byte, req request) []byte {
	payload := 1 + 1 + 1 + 8 + 2 + len(req.Cluster)
	buf = binary.BigEndian.AppendUint32(buf, uint32(payload))
	buf = append(buf, wireVersion, opDecide, byte(req.Kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(req.M))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(req.Cluster)))
	return append(buf, req.Cluster...)
}

// parseRequest decodes one request payload.
func parseRequest(p []byte) (request, error) {
	if len(p) < 13 {
		return request{}, fmt.Errorf("serve: short request payload (%d bytes)", len(p))
	}
	if p[0] != wireVersion {
		return request{}, fmt.Errorf("serve: unknown wire version %d", p[0])
	}
	if p[1] != opDecide {
		return request{}, fmt.Errorf("serve: unknown op %d", p[1])
	}
	kind := coll.Kind(p[2])
	if kind > coll.Scatter {
		// A kind no table holds is a miss; under -tune each one would
		// start a sweep and install a table under the bogus key.
		return request{}, fmt.Errorf("serve: unknown collective kind %d", p[2])
	}
	m := binary.BigEndian.Uint64(p[3:11])
	if m > uint64(math.MaxInt) {
		// int(m) would wrap negative and flow a nonsense size into Decide.
		return request{}, fmt.Errorf("serve: message size %d out of range", m)
	}
	clen := int(binary.BigEndian.Uint16(p[11:13]))
	if len(p) != 13+clen {
		return request{}, fmt.Errorf("serve: request length %d does not match cluster length %d", len(p), clen)
	}
	return request{Cluster: string(p[13:]), Kind: kind, M: int(m)}, nil
}

// appendOKResponse encodes cfg as a success frame appended to buf.
func appendOKResponse(buf []byte, cfg han.Config) []byte {
	payload := 1 + 8 + 8 + 8 + 1 + 1 + 1 + len(cfg.IMod) + 1 + len(cfg.SMod)
	buf = binary.BigEndian.AppendUint32(buf, uint32(payload))
	buf = append(buf, statusOK)
	buf = binary.BigEndian.AppendUint64(buf, uint64(cfg.FS))
	buf = binary.BigEndian.AppendUint64(buf, uint64(cfg.IBS))
	buf = binary.BigEndian.AppendUint64(buf, uint64(cfg.IRS))
	buf = append(buf, byte(cfg.IBAlg), byte(cfg.IRAlg))
	buf = append(buf, byte(len(cfg.IMod)))
	buf = append(buf, cfg.IMod...)
	buf = append(buf, byte(len(cfg.SMod)))
	return append(buf, cfg.SMod...)
}

// appendErrResponse encodes err as an error frame appended to buf.
func appendErrResponse(buf []byte, err error) []byte {
	msg := err.Error()
	if len(msg) > maxFrame/2 {
		msg = msg[:maxFrame/2]
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+2+len(msg)))
	buf = append(buf, statusError)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(msg)))
	return append(buf, msg...)
}

// parseResponse decodes one response payload into a config or a remote
// error.
func parseResponse(p []byte) (han.Config, error) {
	if len(p) < 1 {
		return han.Config{}, fmt.Errorf("serve: empty response payload")
	}
	switch p[0] {
	case statusError:
		if len(p) < 3 {
			return han.Config{}, fmt.Errorf("serve: short error response")
		}
		elen := int(binary.BigEndian.Uint16(p[1:3]))
		if len(p) != 3+elen {
			return han.Config{}, fmt.Errorf("serve: error response length mismatch")
		}
		return han.Config{}, fmt.Errorf("serve: remote: %s", p[3:])
	case statusOK:
		if len(p) < 28 {
			return han.Config{}, fmt.Errorf("serve: short OK response (%d bytes)", len(p))
		}
		var cfg han.Config
		cfg.FS = int(binary.BigEndian.Uint64(p[1:9]))
		cfg.IBS = int(binary.BigEndian.Uint64(p[9:17]))
		cfg.IRS = int(binary.BigEndian.Uint64(p[17:25]))
		cfg.IBAlg = coll.Alg(p[25])
		cfg.IRAlg = coll.Alg(p[26])
		rest := p[27:]
		ilen := int(rest[0])
		if len(rest) < 1+ilen+1 {
			return han.Config{}, fmt.Errorf("serve: truncated imod")
		}
		cfg.IMod = string(rest[1 : 1+ilen])
		rest = rest[1+ilen:]
		slen := int(rest[0])
		if len(rest) != 1+slen {
			return han.Config{}, fmt.Errorf("serve: truncated smod")
		}
		cfg.SMod = string(rest[1:])
		return cfg, nil
	default:
		return han.Config{}, fmt.Errorf("serve: unknown response status %d", p[0])
	}
}

// readFrame reads one length-prefixed frame into buf (grown as needed) and
// returns the payload slice.
func readFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, buf, fmt.Errorf("serve: frame length %d out of range", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	return buf, buf, nil
}

// connSet tracks a server's open wire connections. serveConn parks in
// readFrame until the peer sends or the connection closes, so a graceful
// shutdown must actively disconnect idle clients — otherwise Serve's
// wg.Wait() would block until every peer hangs up on its own.
type connSet struct {
	mu      sync.Mutex
	open    map[net.Conn]struct{}
	closing bool
}

// add registers conn, or closes it immediately (reporting false) when the
// server is already shutting down — covering a connection accepted just
// before the listener closed.
func (cs *connSet) add(conn net.Conn) bool {
	cs.mu.Lock()
	if cs.closing {
		cs.mu.Unlock()
		conn.Close()
		return false
	}
	if cs.open == nil {
		cs.open = make(map[net.Conn]struct{})
	}
	cs.open[conn] = struct{}{}
	cs.mu.Unlock()
	return true
}

func (cs *connSet) remove(conn net.Conn) {
	cs.mu.Lock()
	delete(cs.open, conn)
	cs.mu.Unlock()
}

// closeAll marks the set closing and closes every open connection,
// unblocking their serveConn loops. Later adds are refused.
func (cs *connSet) closeAll() {
	cs.mu.Lock()
	cs.closing = true
	for c := range cs.open {
		c.Close()
	}
	cs.mu.Unlock()
}

// Serve accepts connections on l and answers decide frames until l is
// closed, whereupon it returns. Each connection is handled on its own
// goroutine; per-connection errors (bad frames, remote hangups) close
// that connection only.
func (s *Server) Serve(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			// Listener closed (or fatally broken): drain handlers and stop.
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Start serves l on a background goroutine and returns immediately. The
// returned stop function closes the listener and every open connection
// (clients parked between requests do not stall shutdown), then waits for
// Serve and all connection handlers to wind down. After stop, the server
// refuses new wire connections.
func (s *Server) Start(l net.Listener) (stop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.Serve(l)
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			_ = l.Close()
			s.conns.closeAll()
			<-done
		})
	}
}

// serveConn runs one connection's request loop.
func (s *Server) serveConn(conn net.Conn) {
	if !s.conns.add(conn) {
		return
	}
	defer s.conns.remove(conn)
	defer conn.Close()
	st := s.reader()
	var rbuf, wbuf []byte
	for {
		payload, nbuf, err := readFrame(conn, rbuf)
		if err != nil {
			return // EOF or broken stream: drop the connection
		}
		rbuf = nbuf
		st.wireReqs.Add(1)
		req, err := parseRequest(payload)
		if err != nil {
			// Protocol violation: answer once, then drop the connection —
			// framing may be out of sync.
			st.wireErrors.Add(1)
			wbuf = appendErrResponse(wbuf[:0], err)
			_, _ = conn.Write(wbuf)
			return
		}
		cfg, err := s.decide(st, req.Cluster, req.Kind, req.M)
		if err != nil {
			st.wireErrors.Add(1)
			wbuf = appendErrResponse(wbuf[:0], err)
		} else {
			wbuf = appendOKResponse(wbuf[:0], cfg)
		}
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
	}
}
