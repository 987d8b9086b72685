package repl

import (
	"errors"
	"io"
	"net"
	"time"

	"elsm/internal/netclient"
)

// netDialTimeout bounds one replication connection attempt.
const netDialTimeout = 5 * time.Second

// netWriteTimeout bounds the one write a follower makes on a replication
// connection, its request frame: a peer that stopped draining its socket
// cannot wedge the caller.
const netWriteTimeout = 10 * time.Second

// netIdleTimeout is the per-read deadline on established streams. The
// leader heartbeats idle tail streams every HeartbeatInterval, so a
// healthy connection never comes near it; crossing it means the leader (or
// the network) hung mid-stream, and the read fails so the tailer can
// reconnect instead of wedging forever. Package-level so tests can
// tighten it.
var netIdleTimeout = 30 * time.Second

// NetSource reaches a leader's elsm-server: one netclient connection per
// stream, carrying one OpCheckpoint or OpTail request and the chunk frames
// that answer it.
type NetSource struct {
	addr string
	// Dial overrides net.Dial (tests); nil uses TCP.
	Dial func() (net.Conn, error)
}

// NewNetSource creates a source dialing addr for every stream.
func NewNetSource(addr string) *NetSource { return &NetSource{addr: addr} }

// open dials a connection of its own for the stream that request starts.
func (ns *NetSource) open(request func(*netclient.Client) (*netclient.Stream, error)) (io.ReadCloser, error) {
	dial := ns.Dial
	if dial == nil {
		dial = func() (net.Conn, error) { return net.DialTimeout("tcp", ns.addr, netDialTimeout) }
	}
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	conn.SetWriteDeadline(time.Now().Add(netWriteTimeout))
	c := netclient.New(idleConn{conn})
	s, err := request(c)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &netStream{s: s, c: c}, nil
}

// Checkpoint requests shard's checkpoint stream.
func (ns *NetSource) Checkpoint(shard int) (io.ReadCloser, error) {
	return ns.open(func(c *netclient.Client) (*netclient.Stream, error) { return c.Checkpoint(shard) })
}

// Tail requests shard's group frames from fromTs.
func (ns *NetSource) Tail(shard int, fromTs uint64) (io.ReadCloser, error) {
	return ns.open(func(c *netclient.Client) (*netclient.Stream, error) { return c.Tail(shard, fromTs) })
}

// idleConn arms the idle deadline before every read: the leader's
// heartbeats keep a healthy stream far inside it, so a read that trips it
// means a hung peer, and the stream fails instead of wedging its tailer.
type idleConn struct{ net.Conn }

func (c idleConn) Read(p []byte) (int, error) {
	c.SetReadDeadline(time.Now().Add(netIdleTimeout))
	return c.Conn.Read(p)
}

// netStream is one stream and the connection that exists to carry it.
type netStream struct {
	s *netclient.Stream
	c *netclient.Client
}

// Read surfaces the wire's typed re-bootstrap signal as ErrBehind.
func (ns *netStream) Read(p []byte) (int, error) {
	n, err := ns.s.Read(p)
	if errors.Is(err, netclient.ErrBehind) {
		err = ErrBehind
	}
	return n, err
}

func (ns *netStream) Close() error { return ns.c.Close() }
