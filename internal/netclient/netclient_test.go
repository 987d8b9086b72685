package netclient_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"elsm"
	"elsm/internal/netclient"
	"elsm/internal/netproto"
	"elsm/internal/netsrv"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// serve opens a store behind a real netsrv.Server on loopback and returns
// the server, its address and a connected client. Teardown is automatic.
func serve(t *testing.T, opts elsm.Options, cfg netsrv.Config) (*netsrv.Server, string, *netclient.Client) {
	t.Helper()
	store, err := elsm.Open(opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return serveStore(t, store, cfg)
}

func serveStore(t *testing.T, store *elsm.Store, cfg netsrv.Config) (*netsrv.Server, string, *netclient.Client) {
	t.Helper()
	srv, err := netsrv.New(store, cfg)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	c, err := netclient.Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		store.Close()
	})
	return srv, ln.Addr().String(), c
}

// noLeaks fails the test if, once everything it started is torn down, more
// goroutines run than when it was called.
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

func TestRoundTrips(t *testing.T) {
	noLeaks(t)
	_, _, c := serve(t, elsm.Options{}, netsrv.Config{})
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	ts, err := c.Put([]byte("alpha"), []byte("one"))
	if err != nil || ts == 0 {
		t.Fatalf("put: ts %d, %v", ts, err)
	}
	if res, err := c.Get([]byte("alpha")); err != nil || !res.Found || string(res.Value) != "one" || res.Ts != ts {
		t.Fatalf("get: %+v, %v", res, err)
	}
	if res, err := c.Get([]byte("missing")); err != nil || res.Found {
		t.Fatalf("get of a missing key: %+v, %v", res, err)
	}
	bts, err := c.Batch([]netproto.BatchOp{
		{Key: []byte("beta"), Value: []byte("two")},
		{Key: []byte("alpha"), Delete: true},
	})
	if err != nil || bts <= ts {
		t.Fatalf("batch: ts %d after %d, %v", bts, ts, err)
	}
	if res, err := c.Get([]byte("alpha")); err != nil || res.Found {
		t.Fatalf("a key the batch deleted reads %+v, %v", res, err)
	}
	dts, err := c.Delete([]byte("beta"))
	if err != nil || dts <= bts {
		t.Fatalf("delete: ts %d after %d, %v", dts, bts, err)
	}
	if res, err := c.Get([]byte("beta")); err != nil || res.Found {
		t.Fatalf("a deleted key reads %+v, %v", res, err)
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats["net_connections"] != 1 || stats["group_commits"] == 0 {
		t.Fatalf("stats do not describe this session: connections %d, group commits %d (of %d counters)",
			stats["net_connections"], stats["group_commits"], len(stats))
	}
	if n := c.PendingIDs(); n != 0 {
		t.Fatalf("%d request ids still registered after every call returned", n)
	}
}

// TestFuturesResolveOutOfOrder: responses demultiplex by request id, so
// pipelined futures may be waited in any order — a response that arrives
// while its future is not being waited on is kept for it.
func TestFuturesResolveOutOfOrder(t *testing.T) {
	noLeaks(t)
	_, _, c := serve(t, elsm.Options{}, netsrv.Config{})
	first, err := c.PutAsync([]byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.GetAsync([]byte("other"))
	if err != nil {
		t.Fatal(err)
	}
	// The server answers a connection's writes in order, so by the time
	// the second response is here the first has been delivered, unwaited.
	if _, err := second.Wait(); err != nil {
		t.Fatal(err)
	}
	if !first.Delivered() {
		t.Fatal("the first request's response was not kept for its future")
	}
	if wts, err := first.Wait(); err != nil || wts == 0 {
		t.Fatalf("write: ts %d, %v", wts, err)
	}

	var puts []*netclient.Future
	for i := 0; i < 32; i++ {
		fut, err := c.PutAsync(fmt.Appendf(nil, "key%02d", i), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		puts = append(puts, fut)
	}
	seen := map[uint64]bool{}
	for i := len(puts) - 1; i >= 0; i-- { // newest first
		ts, err := puts[i].Wait()
		if err != nil || ts == 0 || seen[ts] {
			t.Fatalf("put %d: ts %d (seen %v), %v", i, ts, seen[ts], err)
		}
		seen[ts] = true
	}
	for i := range puts {
		fut, err := c.GetAsync(fmt.Appendf(nil, "key%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if ts, err := fut.Wait(); err != nil || !seen[ts] {
			t.Fatalf("get %d: ts %d, %v — not a timestamp a put was acknowledged with", i, ts, err)
		}
	}
}

// TestScanner: a range longer than one server chunk arrives whole and in
// order; a scan abandoned mid-stream gives its request id back and leaves
// the connection usable.
func TestScanner(t *testing.T) {
	noLeaks(t)
	_, _, c := serve(t, elsm.Options{}, netsrv.Config{})
	const n = 1000 // the server streams 128 rows a chunk
	ops := make([]netproto.BatchOp, n)
	for i := range ops {
		ops[i] = netproto.BatchOp{Key: fmt.Appendf(nil, "key%05d", i), Value: fmt.Appendf(nil, "val%05d", i)}
	}
	bts, err := c.Batch(ops)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := c.Scan([]byte("key"), []byte("key~"))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for sc.Next() {
		if want := fmt.Sprintf("key%05d", i); string(sc.Key()) != want || string(sc.Value()) != "val"+want[3:] {
			t.Fatalf("row %d is %q = %q", i, sc.Key(), sc.Value())
		}
		if first := bts - n + 1; sc.Ts() != first+uint64(i) {
			t.Fatalf("row %d carries ts %d, the batch wrote it at %d", i, sc.Ts(), first+uint64(i))
		}
		i++
	}
	if err := sc.Close(); err != nil || i != n {
		t.Fatalf("scanned %d of %d rows, %v", i, n, err)
	}
	if _, err := c.Put([]byte("key00000"), []byte("later")); err != nil {
		t.Fatal(err)
	}
	sc, err = c.ScanAt([]byte("key"), []byte("key~"), bts)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Next() || string(sc.Value()) != "val00000" {
		t.Fatalf("a scan at the batch's timestamp shows %q", sc.Value())
	}
	// Abandon it after one row, most chunks undelivered.
	if err := sc.Close(); err != nil {
		t.Fatalf("closing a scan mid-stream: %v", err)
	}
	if sc.Next() {
		t.Fatal("a closed scan advanced")
	}
	if n := c.PendingIDs(); n != 0 {
		t.Fatalf("%d request ids still registered after the scan closed", n)
	}
	if res, err := c.Get([]byte("key00999")); err != nil || !res.Found {
		t.Fatalf("a call after the abandoned scan: %+v, %v", res, err)
	}
}

// TestStreams: a checkpoint stream reads to io.EOF; a tail from a cursor the
// leader no longer retains ends in ErrBehind; and Close gets past a stream —
// or a scan — whose consumer walked away with chunks undelivered.
func TestStreams(t *testing.T) {
	noLeaks(t)
	_, addr, c := serve(t, elsm.Options{}, netsrv.Config{})
	val := bytes.Repeat([]byte("v"), 1024)
	for i := 0; i < 400; i++ { // enough for a dozen 32 KiB checkpoint chunks
		if _, err := c.PutAsync(fmt.Appendf(nil, "key%05d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	s, err := c.Checkpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := io.Copy(io.Discard, s); err != nil || n < 400*1024 {
		t.Fatalf("checkpoint stream: %d bytes, %v", n, err)
	}
	if s, err = c.Tail(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(make([]byte, 1)); !errors.Is(err, netclient.ErrBehind) {
		t.Fatalf("tail from before the retained log: %v, want ErrBehind", err)
	}
	var se *netclient.ServerError
	if _, err := s.Read(make([]byte, 1)); !errors.As(err, &se) || se.Errno != netproto.ErrnoBehind {
		t.Fatalf("the stream's error is not sticky: %v", err)
	}

	abandoned, err := netclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := abandoned.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	if _, err := abandoned.Scan([]byte("key"), []byte("key~")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the reader fill both channels and block
	closed := make(chan struct{})
	go func() {
		abandoned.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind an abandoned stream")
	}
}

// TestBusyAndServerErrors: load shedding surfaces as netclient.ErrBusy — per request
// with the connection left usable, or for the whole connection — and a
// failure the server reports as a *netclient.ServerError carrying its errno.
func TestBusyAndServerErrors(t *testing.T) {
	noLeaks(t)
	t.Run("request shed", func(t *testing.T) {
		// One in-flight slot, held by a write parked in its fsync. The
		// release runs at cleanup too, ahead of the teardown serve queued.
		// The connection answers in order, so the shed read's BUSY arrives
		// once the write is released.
		fs := vfs.NewSlowSync(vfs.NewMem(), 0)
		srv, _, c := serve(t, elsm.Options{FS: fs}, netsrv.Config{MaxInflight: 1})
		release := fs.Hold()
		t.Cleanup(release)
		held, err := c.PutAsync([]byte("k"), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		shed, err := c.GetAsync([]byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for srv.Stats().BusyRejects == 0 {
			runtime.Gosched()
		}
		release()
		if _, err := shed.Wait(); !errors.Is(err, netclient.ErrBusy) {
			t.Fatalf("a request past the in-flight budget = %v, want ErrBusy", err)
		}
		if _, err := held.Wait(); err != nil {
			t.Fatalf("the admitted write: %v", err)
		}
		if res, err := c.Get([]byte("k")); err != nil || !res.Found {
			t.Fatalf("the connection after a shed request: %+v, %v", res, err)
		}
	})
	t.Run("connection shed", func(t *testing.T) {
		_, addr, c := serve(t, elsm.Options{}, netsrv.Config{MaxConnections: 1})
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		over, err := netclient.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer over.Close()
		if err := over.Ping(); !errors.Is(err, netclient.ErrBusy) {
			t.Fatalf("a connection over the cap = %v, want ErrBusy", err)
		}
		if _, err := over.PutAsync([]byte("k"), []byte("v")); !errors.Is(err, netclient.ErrBusy) {
			t.Fatalf("a later request on the refused connection = %v, want ErrBusy", err)
		}
	})
	t.Run("server error", func(t *testing.T) {
		platform := sgx.NewPlatformFromSecret([]byte("netclient-test"))
		leader, err := elsm.Open(elsm.Options{Platform: platform})
		if err != nil {
			t.Fatal(err)
		}
		defer leader.Close()
		if _, err := leader.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		src, err := leader.ReplicationSource()
		if err != nil {
			t.Fatal(err)
		}
		follower, err := elsm.OpenFollower(elsm.Options{Platform: platform}, src)
		if err != nil {
			t.Fatal(err)
		}
		_, _, c := serveStore(t, follower, netsrv.Config{})
		_, err = c.Put([]byte("k"), []byte("w"))
		var se *netclient.ServerError
		if !errors.As(err, &se) || se.Errno != netproto.ErrnoReadOnly {
			t.Fatalf("a write to a read-only replica = %v, want a netclient.ServerError with ErrnoReadOnly", err)
		}
		if res, err := c.Get([]byte("k")); err != nil || !res.Found || string(res.Value) != "v" {
			t.Fatalf("the connection after a server error: %+v, %v", res, err)
		}
	})
}

// inFlight starts one of each kind of pending request on c — blocking calls,
// futures and an open scan — and returns a function that waits for all of
// them and reports how many failed.
func inFlight(t *testing.T, c *netclient.Client) (settle func() (failed, total int)) {
	t.Helper()
	var futs []*netclient.Future
	for i := 0; i < 4; i++ {
		fut, err := c.PutAsync(fmt.Appendf(nil, "fut%d", i), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3) // one per blocking call below
	for _, call := range []func() error{
		func() error { _, err := c.Put([]byte("call"), []byte("v")); return err },
		func() error { return c.Sync() },
		func() error {
			_, err := c.Batch([]netproto.BatchOp{{Key: []byte("b"), Value: []byte("v")}})
			return err
		},
	} {
		call := call
		wg.Add(1)
		go func() { defer wg.Done(); errs <- call() }()
	}
	return func() (failed, total int) {
		wg.Wait()
		close(errs)
		for err := range errs {
			total++
			if err != nil {
				failed++
			}
		}
		for _, fut := range futs {
			total++
			if _, err := fut.Wait(); err != nil {
				failed++
			}
		}
		return failed, total
	}
}

// TestServerCloseFailsPending: when the server goes away with calls in
// flight, every pending call and future fails, later calls fail fast, and
// Close returns with nothing left behind.
func TestServerCloseFailsPending(t *testing.T) {
	noLeaks(t)
	// Writes sit behind a held fsync, so all are still pending when the
	// server cuts its connections; its Close returns once the release lets
	// the handlers drain.
	fs := vfs.NewSlowSync(vfs.NewMem(), 0)
	srv, _, c := serve(t, elsm.Options{FS: fs}, netsrv.Config{})
	release := fs.Hold()
	t.Cleanup(release)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	settle := inFlight(t, c)
	for c.PendingIDs() < 7 { // all seven registered (the calls are on goroutines)
		time.Sleep(time.Millisecond)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	if failed, total := settle(); failed != total {
		t.Fatalf("%d of %d requests pending at server close failed, want all", failed, total)
	}
	release()
	<-closed
	if err := c.Ping(); err == nil || errors.Is(err, netclient.ErrClosed) {
		t.Fatalf("a call after the connection was lost = %v, want the transport error", err)
	}
	if _, err := c.Scan(nil, []byte("z")); err == nil {
		t.Fatal("a scan opened on a lost connection")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := c.PendingIDs(); n != 0 {
		t.Fatalf("%d request ids still registered after Close", n)
	}
}

// TestCutPipeFailsPending is the same teardown over a net.Pipe whose far
// end reads requests, never answers, and is then cut.
func TestCutPipeFailsPending(t *testing.T) {
	noLeaks(t)
	near, far := net.Pipe()
	drained := make(chan struct{})
	go func() { io.Copy(io.Discard, far); close(drained) }()
	c := netclient.New(near)
	settle := inFlight(t, c)
	sc, err := c.Scan(nil, []byte("z")) // flushes everything buffered
	if err != nil {
		t.Fatal(err)
	}
	for c.PendingIDs() < 8 {
		time.Sleep(time.Millisecond)
	}
	far.Close()
	if failed, total := settle(); failed != total {
		t.Fatalf("%d of %d requests pending at the cut failed, want all", failed, total)
	}
	if sc.Next() {
		t.Fatal("a scan on a cut connection advanced")
	}
	if err := sc.Close(); err == nil {
		t.Fatal("a scan on a cut connection closed without an error")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("k")); err == nil {
		t.Fatal("a call on a closed client succeeded")
	}
	<-drained
}

// TestUnreadableFrameFailsPending: a frame the client cannot accept would
// strand its request — or tear a hole in a stream — if it were skipped, so it
// fails the connection and what is pending learns why.
func TestUnreadableFrameFailsPending(t *testing.T) {
	noLeaks(t)
	near, far := net.Pipe()
	go func() {
		io.CopyN(io.Discard, far, 13) // one empty-bodied request
		far.Write([]byte{0, 0, 0, 1, byte(netproto.CodeChunk)})
		io.Copy(io.Discard, far)
	}()
	c := netclient.New(near)
	defer c.Close()
	var fe *netproto.FrameError
	if err := c.Ping(); !errors.As(err, &fe) {
		t.Fatalf("ping answered by an unreadable frame: %v, want a *netproto.FrameError", err)
	}
}

// TestCloseFailsPending: the client's own Close fails what is pending with
// ErrClosed.
func TestCloseFailsPending(t *testing.T) {
	noLeaks(t)
	fs := vfs.NewSlowSync(vfs.NewMem(), 0)
	_, _, c := serve(t, elsm.Options{FS: fs}, netsrv.Config{})
	t.Cleanup(fs.Hold()) // the write parks in its fsync
	fut, err := c.PutAsync([]byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); !errors.Is(err, netclient.ErrClosed) {
		t.Fatalf("a future pending at Close = %v, want ErrClosed", err)
	}
	if err := c.Ping(); !errors.Is(err, netclient.ErrClosed) {
		t.Fatalf("a call after Close = %v, want ErrClosed", err)
	}
}

// heldConn counts its writes and holds the first one until release closes.
type heldConn struct {
	net.Conn
	held, release chan struct{}
	mu            sync.Mutex
	writes        int
}

func (h *heldConn) Write(p []byte) (int, error) {
	h.mu.Lock()
	h.writes++
	first := h.writes == 1
	h.mu.Unlock()
	if first {
		close(h.held)
		<-h.release
	}
	return h.Conn.Write(p)
}

// TestFlushCombinesBehindAHeldWrite: while one caller's socket write is in
// the kernel, callers that append behind it do not write for themselves —
// the flusher's loop carries them all in one more write, in the order they
// were issued.
func TestFlushCombinesBehindAHeldWrite(t *testing.T) {
	noLeaks(t)
	const n = 8
	near, far := net.Pipe()
	hc := &heldConn{Conn: near, held: make(chan struct{}), release: make(chan struct{})}
	// The far end answers every request in order with its id as the ts,
	// recording the keys as they arrive.
	keys := make(chan string, n+1)
	go func() {
		defer far.Close()
		for {
			typ, id, body, err := netproto.ReadFrame(far, 0)
			if err != nil {
				return
			}
			req, err := netproto.DecodeRequest(typ, id, body)
			if err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			keys <- string(req.Key)
			if err := netproto.WriteFrame(far, uint8(netproto.CodeOK), id, netproto.AppendOK(nil, id)); err != nil {
				return
			}
		}
	}()
	c := netclient.New(hc)
	defer c.Close()

	var wg sync.WaitGroup
	put := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ts, err := c.Put(fmt.Appendf(nil, "key%d", i), []byte("v")); err != nil || ts != uint64(i+1) {
				t.Errorf("put %d: ts %d, %v", i, ts, err)
			}
		}()
	}
	put(0)
	<-hc.held // the first caller is the flusher, parked in its write
	for i := 1; i <= n; i++ {
		before, deadline := c.Buffered(), time.Now().Add(5*time.Second)
		put(i)
		for c.Buffered() == before { // appended: the next caller queues behind it
			if time.Now().After(deadline) {
				close(hc.release)
				t.Fatalf("request %d was never appended while a write was held", i)
			}
			runtime.Gosched()
		}
	}
	close(hc.release)
	wg.Wait()
	if hc.writes != 2 {
		t.Fatalf("%d requests took %d socket writes, want 2: the held one and one for everything behind it", n+1, hc.writes)
	}
	for i := 0; i <= n; i++ {
		if got, want := <-keys, fmt.Sprintf("key%d", i); got != want {
			t.Fatalf("request %d on the wire is %q, want %q", i, got, want)
		}
	}
}

// TestGetValueOutlivesReadBuffer: the client reads every frame into one
// reused buffer, so a Get's value must be a copy of its own — later
// responses landing in that buffer do not change it.
func TestGetValueOutlivesReadBuffer(t *testing.T) {
	noLeaks(t)
	_, _, c := serve(t, elsm.Options{}, netsrv.Config{})
	for _, kv := range []string{"a", "b", "c"} {
		if _, err := c.Put([]byte(kv), bytes.Repeat([]byte(kv), 64)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := c.Get([]byte("a"))
	if err != nil || !first.Found {
		t.Fatalf("get: %+v, %v", first, err)
	}
	for i := 0; i < 10; i++ {
		for _, k := range []string{"b", "c"} {
			if _, err := c.Get([]byte(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := bytes.Repeat([]byte("a"), 64); !bytes.Equal(first.Value, want) {
		t.Fatalf("a Get's value changed under later responses: %q", first.Value)
	}
}
