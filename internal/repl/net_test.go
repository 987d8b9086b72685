package repl_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elsm"
	"elsm/internal/core"
	"elsm/internal/netclient"
	"elsm/internal/netproto"
	"elsm/internal/netsrv"
	"elsm/internal/repl"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// noLeaks fails the test if, once everything it started is torn down —
// followers closed, server closed, leader closed — more goroutines run than
// when it was called.
func noLeaks(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before, %d left behind:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// pipeListener is a loopback with no buffering at all: net.Pipe connections,
// on which a write completes only as the peer reads it. A follower that
// stops reading therefore blocks the server's very next write, and the tests
// below need neither megabytes of traffic nor knowledge of the kernel's
// socket buffers to back a stream up.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.conns:
		return conn, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial() (net.Conn, error) {
	near, far := net.Pipe()
	select {
	case l.conns <- far:
		return near, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// wire is a leader store behind netsrv on a pipeListener, and the faults the
// follower side of its connections can be told to have.
type wire struct {
	leader   *elsm.Store
	srv      *netsrv.Server
	ln       *pipeListener
	platform *sgx.Platform
	head     uint64 // the leader's last commit timestamp

	cutAfter atomic.Int64 // the next connection dialed dies once it has read this many bytes
	stall    atomic.Bool  // every connection reads and discards: the peer looks hung
	hold     atomic.Bool  // every connection stops reading: the peer's writes back up
}

func newWire(t *testing.T, ringBytes int, cfg netsrv.Config) *wire {
	t.Helper()
	w := &wire{platform: sgx.NewPlatformFromSecret([]byte("wire-secret"))}
	var err error
	if w.leader, err = elsm.Open(elsm.Options{Platform: w.platform, ReplRingBytes: ringBytes}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.leader.Close() })
	if w.srv, err = netsrv.New(w.leader, cfg); err != nil {
		t.Fatal(err)
	}
	w.ln = &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go w.srv.Serve(w.ln)
	t.Cleanup(func() { w.srv.Close() })
	w.put(t, "seed", []byte("v"))
	return w
}

func (w *wire) put(t *testing.T, key string, val []byte) {
	t.Helper()
	ts, err := w.leader.Put([]byte(key), val)
	if err != nil {
		t.Fatal(err)
	}
	w.head = ts
}

// burst writes n 4 KiB values.
func (w *wire) burst(t *testing.T, tag string, n int) {
	t.Helper()
	val := bytes.Repeat([]byte("x"), 4096)
	for i := 0; i < n; i++ {
		w.put(t, fmt.Sprintf("%s-%04d", tag, i), val)
	}
}

// source is a NetSource whose connections have the wire's faults.
func (w *wire) source() *repl.NetSource {
	src := repl.NewNetSource("pipe")
	src.Dial = func() (net.Conn, error) {
		conn, err := w.ln.dial()
		if err != nil {
			return nil, err
		}
		return &faultConn{Conn: conn, w: w, budget: w.cutAfter.Swap(0)}, nil
	}
	return src
}

// follower bootstraps a follower store over the wire and starts its tailer.
func (w *wire) follower(t *testing.T) (*core.Store, *repl.Tailer) {
	t.Helper()
	src := w.source()
	f := repl.Bootstrap(t, src, vfs.NewMem(), w.platform, sgx.NewMonotonicCounter())
	t.Cleanup(func() { f.Close() })
	tl := repl.StartTailer(f, src, 0, 1)
	t.Cleanup(tl.Close)
	return f, tl
}

type faultConn struct {
	net.Conn
	w      *wire
	budget int64
}

func (c *faultConn) Read(p []byte) (int, error) {
	for c.w.hold.Load() {
		time.Sleep(time.Millisecond)
	}
	for c.w.stall.Load() {
		if _, err := c.Conn.Read(p); err != nil {
			return 0, err // the idle deadline, in time
		}
	}
	if c.budget > 0 && int64(len(p)) > c.budget {
		p = p[:c.budget]
	}
	n, err := c.Conn.Read(p)
	if c.budget > 0 {
		if c.budget -= int64(n); c.budget == 0 {
			c.Conn.Close()
		}
	}
	return n, err
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestNetTailBehindMidStream: a cursor that falls out of the leader's ring
// AFTER the tail began surfaces on that same stream as ErrBehind. The line
// protocol could only say so on its status line, so the follower saw a clean
// EOF, counted a reconnect, re-dialed, and learned it then.
func TestNetTailBehindMidStream(t *testing.T) {
	noLeaks(t)
	w := newWire(t, 4096, netsrv.Config{ResponseBuffer: 1})
	f, tl := w.follower(t)
	repl.WaitCaughtUp(t, f, w.head)

	w.hold.Store(true)
	w.burst(t, "gap", 256)
	w.hold.Store(false)

	select {
	case <-tl.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("tailer still running after its cursor left the ring")
	}
	if err := tl.Err(); !errors.Is(err, repl.ErrBehind) {
		t.Fatalf("tailer stopped with %v, want ErrBehind", err)
	}
	if n := tl.Reconnects(); n != 0 {
		t.Fatalf("tailer re-dialed %d times before learning it was behind, want 0", n)
	}
	if got := f.Engine().AppliedTs(); got >= w.head {
		t.Fatalf("follower applied through %d: the ring never overflowed", got)
	}
}

// TestNetCutMidChunkReconnects: a connection cut in the middle of a chunk is
// a transport failure, not a verification failure — the tailer re-dials from
// its durable frontier and converges.
func TestNetCutMidChunkReconnects(t *testing.T) {
	noLeaks(t)
	w := newWire(t, 0, netsrv.Config{})
	src := w.source()
	f := repl.Bootstrap(t, src, vfs.NewMem(), w.platform, sgx.NewMonotonicCounter())
	defer f.Close()
	w.burst(t, "cut", 8)
	w.cutAfter.Store(6000) // inside the second group's frame
	tl := repl.StartTailer(f, src, 0, 1)
	defer tl.Close()
	repl.WaitCaughtUp(t, f, w.head)
	if err := tl.Err(); err != nil {
		t.Fatalf("tailer failed stop on a cut connection: %v", err)
	}
	if tl.Reconnects() == 0 {
		t.Fatal("the cut never happened: tailer converged without re-dialing")
	}
}

// TestNetStallPastIdleDeadline: a connection that stays open and delivers
// nothing — heartbeats included — trips the idle deadline; the read fails,
// the tailer re-dials, and once the network heals it converges.
func TestNetStallPastIdleDeadline(t *testing.T) {
	noLeaks(t)
	// A heartbeat every 60 ms against a 300 ms deadline: on a loaded machine
	// a goroutine can be tens of milliseconds late, and that must not read
	// as a stalled peer.
	repl.TightenNet(t, 300*time.Millisecond)
	w := newWire(t, 0, netsrv.Config{})
	f, tl := w.follower(t)
	repl.WaitCaughtUp(t, f, w.head)
	time.Sleep(700 * time.Millisecond) // heartbeats hold a healthy idle stream open
	if n := tl.Reconnects(); n != 0 {
		t.Fatalf("healthy idle stream re-dialed %d times", n)
	}

	w.stall.Store(true)
	waitFor(t, "the idle deadline to fail the stalled read", func() bool { return tl.Reconnects() > 0 })
	w.burst(t, "stall", 8)
	w.stall.Store(false)
	repl.WaitCaughtUp(t, f, w.head)
	if err := tl.Err(); err != nil {
		t.Fatalf("tailer failed stop on a stalled connection: %v", err)
	}
}

// TestNetFollowerStopsDraining: a follower that stops reading its tail has
// its stream failed by the server's write deadline, and costs the followers
// beside it nothing.
func TestNetFollowerStopsDraining(t *testing.T) {
	noLeaks(t)
	w := newWire(t, 0, netsrv.Config{ResponseBuffer: 1, WriteTimeout: 200 * time.Millisecond})
	f, tl := w.follower(t)

	conn, err := w.ln.dial()
	if err != nil {
		t.Fatal(err)
	}
	stuck := netclient.New(conn)
	defer stuck.Close()
	if _, err := stuck.Tail(0, w.head); err != nil { // and never read it
		t.Fatal(err)
	}
	waitFor(t, "both tails to connect", func() bool { return w.leader.Stats().FollowersConnected == 2 })

	w.burst(t, "drain", 256)
	waitFor(t, "the write deadline to fail the undrained tail", func() bool { return w.leader.Stats().FollowersConnected == 1 })
	repl.WaitCaughtUp(t, f, w.head)
	if err := tl.Err(); err != nil || tl.Reconnects() != 0 {
		t.Fatalf("the healthy follower was disturbed: err %v, %d reconnects", err, tl.Reconnects())
	}
}

// TestNetServerCloseWithIdleFollower: a tail idling at the head of a quiet
// leader does not hold Server.Close up.
func TestNetServerCloseWithIdleFollower(t *testing.T) {
	noLeaks(t)
	w := newWire(t, 0, netsrv.Config{})
	f, _ := w.follower(t)
	repl.WaitCaughtUp(t, f, w.head)
	waitFor(t, "the tail to connect", func() bool { return w.leader.Stats().FollowersConnected == 1 })

	closed := make(chan struct{})
	go func() {
		w.srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close blocked on a follower idling at the head")
	}
	if n := w.leader.Stats().FollowersConnected; n != 0 {
		t.Fatalf("%d tail streams outlived the server", n)
	}
}

// TestNetStreamsLargerThanAFrame: the tail writes a whole commit group in
// one Write, which can exceed netproto.MaxFrame; the wire cuts it into chunks
// a client will accept, so a follower bootstraps from a table file above the
// limit and tails a group above it, byte for byte, on its first connection.
func TestNetStreamsLargerThanAFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("moves two 17 MB values")
	}
	noLeaks(t)
	w := newWire(t, 0, netsrv.Config{})
	big := bytes.Repeat([]byte("0123456789abcdef"), (netproto.MaxFrame+1<<20)/16)
	w.put(t, "in-the-checkpoint", big)
	f, tl := w.follower(t)
	w.put(t, "in-the-tail", big)
	repl.WaitCaughtUp(t, f, w.head)
	if err := tl.Err(); err != nil || tl.Reconnects() != 0 {
		t.Fatalf("tailer: err %v, %d reconnects", err, tl.Reconnects())
	}
	for _, key := range []string{"in-the-checkpoint", "in-the-tail"} {
		res, err := core.Get(f, []byte(key))
		if err != nil || !res.Found || !bytes.Equal(res.Value, big) {
			t.Fatalf("follower's %s: found %v, %d bytes, err %v", key, res.Found, len(res.Value), err)
		}
	}
}
