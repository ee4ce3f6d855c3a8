package serve

import (
	"net"

	"github.com/hanrepro/han/internal/coll"
	"github.com/hanrepro/han/internal/han"
)

// Client answers decision queries against a Server — either in-process
// (loopback, no serialization) or over a socket speaking the wire
// protocol. The two constructions expose one interface so the load
// harness and callers can swap transports freely.
//
// A Client is NOT safe for concurrent use: a socket client owns one
// connection and its buffers. Open one Client per querying goroutine
// (cheap: local clients are a pointer wrap, socket clients one dial).
type Client struct {
	local *Server  // in-process path when non-nil
	lat   *latHist // the server's stripe a local client's decisions are counted in

	conn net.Conn
	rbuf []byte
	wbuf []byte
}

// NewLocalClient returns an in-process client: Decide calls the server
// directly, no wire round trip. This is the loopback transport the
// benchmark baseline uses.
func NewLocalClient(s *Server) *Client { return &Client{local: s, lat: s.readerLat()} }

// Dial connects a wire client to a server listening on network/addr
// (e.g. "tcp", "127.0.0.1:7411" or "unix", "/tmp/hand.sock").
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Decide returns the tuned configuration for one (cluster, collective,
// message size) query.
func (c *Client) Decide(cluster string, kind coll.Kind, m int) (han.Config, error) {
	if c.local != nil {
		return c.local.decide(c.lat, cluster, kind, m)
	}
	c.wbuf = appendRequest(c.wbuf[:0], request{Cluster: cluster, Kind: kind, M: m})
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return han.Config{}, err
	}
	payload, nbuf, err := readFrame(c.conn, c.rbuf)
	if err != nil {
		return han.Config{}, err
	}
	c.rbuf = nbuf
	return parseResponse(payload)
}

// Close releases the client's connection. Local clients have none; Close
// is then a no-op.
func (c *Client) Close() error {
	if c.conn != nil {
		return c.conn.Close()
	}
	return nil
}
