package serve

import (
	"bufio"
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
	// Cluster is a view into the frame it was parsed from, valid until the
	// connection's next read.
	Cluster []byte
	Kind    coll.Kind
	M       int
}

// appendRequest encodes a decide query as a frame appended to buf.
func appendRequest(buf []byte, cluster string, kind coll.Kind, m int) []byte {
	payload := 1 + 1 + 1 + 8 + 2 + len(cluster)
	buf = binary.BigEndian.AppendUint32(buf, uint32(payload))
	buf = append(buf, wireVersion, opDecide, byte(kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(cluster)))
	return append(buf, cluster...)
}

// parseRequest decodes one request payload. It copies nothing: the
// request's cluster name is a view into p.
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
	return request{Cluster: p[13:], Kind: kind, M: int(m)}, nil
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
		cfg.IMod = intern(rest[1:1+ilen], interNames)
		rest = rest[1+ilen:]
		slen := int(rest[0])
		if len(rest) != 1+slen {
			return han.Config{}, fmt.Errorf("serve: truncated smod")
		}
		cfg.SMod = intern(rest[1:], intraNames)
		return cfg, nil
	default:
		return han.Config{}, fmt.Errorf("serve: unknown response status %d", p[0])
	}
}

// The module names a decision can carry. A response's names are mapped
// onto these, so decoding a known one allocates nothing.
var interNames, intraNames = han.InterNames(), han.IntraNames()

// intern returns b as a string: the equal element of known, or a copy.
func intern(b []byte, known []string) string {
	for _, s := range known {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// frameReader reads one connection's length-prefixed frames through one
// bufio.Reader, so a frame that arrives whole costs one Read, header and
// payload together. A payload is a view into the reader's buffer, valid
// until the next call; only a frame larger than the buffer is copied, into
// a scratch buffer that maxFrame caps.
type frameReader struct {
	r   *bufio.Reader
	big []byte
}

func newFrameReader(r io.Reader) *frameReader { return &frameReader{r: bufio.NewReader(r)} }

// frameLen returns the payload length a frame header carries, or an error
// when it is out of range.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > maxFrame {
		return 0, fmt.Errorf("serve: frame length %d out of range", n)
	}
	return int(n), nil
}

// next returns the next frame's payload. A stream that ends on a frame
// boundary ends in io.EOF; one that ends inside a frame, in
// io.ErrUnexpectedEOF.
func (fr *frameReader) next() ([]byte, error) {
	hdr, err := fr.r.Peek(4)
	if err != nil {
		return nil, inFrame(err, len(hdr) > 0)
	}
	n, err := frameLen(hdr)
	if err != nil {
		return nil, err
	}
	if 4+n <= fr.r.Size() {
		p, err := fr.r.Peek(4 + n)
		if err != nil {
			return nil, inFrame(err, true)
		}
		_, _ = fr.r.Discard(4 + n) // Peek buffered 4+n bytes: Discard cannot fail
		return p[4:], nil
	}
	_, _ = fr.r.Discard(4)
	if cap(fr.big) < n {
		fr.big = make([]byte, n)
	}
	p := fr.big[:n]
	if _, err := io.ReadFull(fr.r, p); err != nil {
		return nil, inFrame(err, true)
	}
	return p, nil
}

// inFrame turns io.EOF into io.ErrUnexpectedEOF when part of a frame was
// read.
func inFrame(err error, started bool) error {
	if err == io.EOF && started {
		return io.ErrUnexpectedEOF
	}
	return err
}

// whole reports whether the reader already holds the next frame complete,
// so that next returns it without reading the connection.
func (fr *frameReader) whole() bool {
	if fr.r.Buffered() < 4 {
		return false
	}
	hdr, _ := fr.r.Peek(4) // buffered: Peek cannot fail or read
	n, err := frameLen(hdr)
	return err == nil && 4+n <= fr.r.Buffered()
}

// connSet tracks a server's open wire connections. serveConn parks in a
// read until the peer sends or the connection closes, so a graceful
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

// serveConn runs one connection's request loop. Answers to requests that
// arrived together go out together: while the reader already holds another
// whole request, the answer is appended to wbuf, and wbuf is written before
// any read that could block.
func (s *Server) serveConn(conn net.Conn) {
	if !s.conns.add(conn) {
		return
	}
	defer s.conns.remove(conn)
	defer conn.Close()
	st := s.reader()
	fr := newFrameReader(conn)
	var wbuf []byte
	for {
		payload, err := fr.next()
		if err != nil {
			return // EOF or broken stream: drop the connection
		}
		st.wireReqs.Add(1)
		req, err := parseRequest(payload)
		if err != nil {
			// Protocol violation: answer once, then drop the connection —
			// framing may be out of sync.
			st.wireErrors.Add(1)
			wbuf = appendErrResponse(wbuf, err)
			_, _ = conn.Write(wbuf)
			return
		}
		cfg, err := s.decideFrame(st, req)
		if err != nil {
			st.wireErrors.Add(1)
			wbuf = appendErrResponse(wbuf, err)
		} else {
			wbuf = appendOKResponse(wbuf, cfg)
		}
		if fr.whole() {
			continue
		}
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
		wbuf = wbuf[:0]
	}
}
