package netsrv

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"elsm"
	"elsm/internal/netclient"
	"elsm/internal/netproto"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// startServer opens a store with opts, serves it with cfg on a loopback
// listener and returns the server and its address. Teardown is automatic.
func startServer(t *testing.T, opts elsm.Options, cfg Config) (*Server, string) {
	t.Helper()
	store, err := elsm.Open(opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv, err := New(store, cfg)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		store.Close()
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *netclient.Client {
	t.Helper()
	c, err := netclient.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBinaryProtocolRoundTrip(t *testing.T) {
	_, addr := startServer(t, elsm.Options{}, Config{})
	c := dial(t, addr)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	ts, err := c.Put([]byte("alpha"), []byte("one"))
	if err != nil || ts == 0 {
		t.Fatalf("put: ts %d err %v", ts, err)
	}
	res, err := c.Get([]byte("alpha"))
	if err != nil || !res.Found || string(res.Value) != "one" || res.Ts != ts {
		t.Fatalf("get: %+v err %v", res, err)
	}
	if res, err := c.Get([]byte("missing")); err != nil || res.Found {
		t.Fatalf("get missing: %+v err %v", res, err)
	}
	if _, err := c.Batch([]netproto.BatchOp{
		{Key: []byte("beta"), Value: []byte("two")},
		{Key: []byte("gamma"), Value: []byte("three")},
		{Key: []byte("alpha"), Delete: true},
	}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if res, err := c.Get([]byte("alpha")); err != nil || res.Found {
		t.Fatalf("deleted key still visible: %+v err %v", res, err)
	}
	if err := c.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	sc, err := c.Scan(nil, []byte("\xff"))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	var keys []string
	for sc.Next() {
		keys = append(keys, string(sc.Key()))
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("scan close: %v", err)
	}
	if want := []string{"beta", "gamma"}; strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("scan keys = %v, want %v", keys, want)
	}

	if _, err := c.Delete([]byte("beta")); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if res, err := c.Get([]byte("beta")); err != nil || res.Found {
		t.Fatalf("beta survived delete: %+v err %v", res, err)
	}
}

// TestScanStreamsChunks pushes a range past one chunk so the multi-frame
// path (several CodeRows, one CodeScanEnd) is exercised end to end.
func TestScanStreamsChunks(t *testing.T) {
	_, addr := startServer(t, elsm.Options{}, Config{})
	c := dial(t, addr)
	const n = scanChunkRows*2 + 17
	for i := 0; i < n; i++ {
		if _, err := c.Put(fmt.Appendf(nil, "key%06d", i), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	sc, err := c.Scan(nil, []byte("\xff"))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	count := 0
	for sc.Next() {
		count++
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("scan close: %v", err)
	}
	if count != n {
		t.Fatalf("scanned %d rows, want %d", count, n)
	}
}

// TestStatsGaugesMove is the satellite check: the net_* gauges must move
// under traffic, over the wire, through the STATS op.
func TestStatsGaugesMove(t *testing.T) {
	srv, addr := startServer(t, elsm.Options{}, Config{})
	c := dial(t, addr)

	// Pipeline a burst so the depth high-water mark can exceed 1.
	var futs []*netclient.Future
	for i := 0; i < 32; i++ {
		fut, err := c.PutAsync(fmt.Appendf(nil, "k%03d", i), []byte("v"))
		if err != nil {
			t.Fatalf("putasync: %v", err)
		}
		futs = append(futs, fut)
	}
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatalf("wait: %v", err)
		}
	}

	// The server counts bytes when its socket write returns, which can be
	// after the client has read them: ask again until the count has landed.
	var m map[string]uint64
	for deadline := time.Now().Add(5 * time.Second); ; {
		var err error
		if m, err = c.Stats(); err != nil {
			t.Fatalf("stats: %v", err)
		}
		if m["net_bytes_out"] != 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, name := range []string{
		"net_connections", "net_inflight_requests", "net_busy_rejects",
		"net_bytes_in", "net_bytes_out", "net_pipeline_depth_hwm",
	} {
		if _, ok := m[name]; !ok {
			t.Fatalf("STATS missing gauge %q", name)
		}
	}
	if m["net_connections"] != 1 {
		t.Fatalf("net_connections = %d, want 1", m["net_connections"])
	}
	if m["net_bytes_in"] == 0 || m["net_bytes_out"] == 0 {
		t.Fatalf("byte gauges did not move: in %d out %d", m["net_bytes_in"], m["net_bytes_out"])
	}
	if m["net_pipeline_depth_hwm"] == 0 {
		t.Fatalf("pipeline depth HWM stayed 0 under a 32-deep burst")
	}
	// The STATS request itself is in flight while being answered.
	if m["net_inflight_requests"] == 0 {
		t.Fatalf("net_inflight_requests = 0 while serving STATS")
	}
	// The in-process snapshot agrees.
	if s := srv.Stats(); s.Connections != 1 || s.BytesIn == 0 {
		t.Fatalf("Server.Stats() = %+v, want live connection and traffic", s)
	}
}

// TestConnectionCapSheds verifies the first admission layer: a connection
// over MaxConnections draws one BUSY frame (id 0) and is closed, and the
// reject is counted.
func TestConnectionCapSheds(t *testing.T) {
	srv, addr := startServer(t, elsm.Options{}, Config{MaxConnections: 1})
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatalf("first connection ping: %v", err)
	}

	c2, err := netclient.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c2.Close()
	if err := c2.Ping(); !errors.Is(err, netclient.ErrBusy) {
		t.Fatalf("over-cap ping err = %v, want ErrBusy", err)
	}
	if srv.Stats().BusyRejects == 0 {
		t.Fatalf("connection shed not counted in BusyRejects")
	}
	// The admitted connection is unaffected.
	if err := c.Ping(); err != nil {
		t.Fatalf("admitted connection broken by shed: %v", err)
	}
}

// TestGlobalInflightBudgetSheds verifies the second admission layer:
// requests past MaxInflight draw CodeBusy immediately while the admitted
// request completes fine.
func TestGlobalInflightBudgetSheds(t *testing.T) {
	// A long group-commit window makes the first write hold its in-flight
	// slot long enough for the follow-up burst to hit the exhausted budget
	// deterministically.
	srv, addr := startServer(t,
		elsm.Options{GroupCommitWindow: 150 * time.Millisecond},
		Config{MaxInflight: 1, PipelineDepth: 16})
	c := dial(t, addr)

	slow, err := c.PutAsync([]byte("slow"), []byte("write"))
	if err != nil {
		t.Fatalf("putasync: %v", err)
	}
	var busy int
	for i := 0; i < 8; i++ {
		fut, err := c.GetAsync([]byte("slow"))
		if err != nil {
			t.Fatalf("getasync: %v", err)
		}
		if _, err := fut.Wait(); errors.Is(err, netclient.ErrBusy) {
			busy++
		}
	}
	if busy == 0 {
		t.Fatalf("no request shed with MaxInflight 1 and a slot held for 150ms")
	}
	if _, err := slow.Wait(); err != nil {
		t.Fatalf("admitted write failed: %v", err)
	}
	if srv.Stats().BusyRejects == 0 {
		t.Fatalf("budget sheds not counted")
	}
}

// TestCommitBacklogSheds verifies the third admission layer: when the
// engine's MaxAsyncCommitBacklog gate stays full past AdmissionWait, the
// write is shed with BUSY instead of camping on the gate. Slow fsyncs keep
// the single backlog slot occupied.
func TestCommitBacklogSheds(t *testing.T) {
	srv, addr := startServer(t,
		elsm.Options{
			FS:                    vfs.NewSlowSync(vfs.NewMem(), 100*time.Millisecond),
			MaxAsyncCommitBacklog: 1,
		},
		Config{AdmissionWait: 5 * time.Millisecond})
	c := dial(t, addr)

	var futs []*netclient.Future
	for i := 0; i < 8; i++ {
		fut, err := c.PutAsync(fmt.Appendf(nil, "k%d", i), []byte("v"))
		if err != nil {
			t.Fatalf("putasync: %v", err)
		}
		futs = append(futs, fut)
	}
	var ok, busy int
	for _, fut := range futs {
		_, err := fut.Wait()
		switch {
		case err == nil:
			ok++
		case errors.Is(err, netclient.ErrBusy):
			busy++
		default:
			t.Fatalf("unexpected write error: %v", err)
		}
	}
	if ok == 0 {
		t.Fatalf("every write shed; the admitted path never completed")
	}
	if busy == 0 {
		t.Fatalf("no write shed with backlog 1, 100ms fsyncs and 5ms AdmissionWait")
	}
	if srv.Stats().BusyRejects == 0 {
		t.Fatalf("backlog sheds not counted")
	}
	// The connection survives shedding: a fresh write succeeds.
	if _, err := c.Put([]byte("after"), []byte("shed")); err != nil {
		t.Fatalf("write after shed: %v", err)
	}
}

// TestRefusedWriteIsNotBusy: a write the store refuses at admission (here a
// read-only replica's ErrReadOnlyReplica) answers CodeErr with its errno and
// counts no load shed. Only an admission wait that ran out is CodeBusy.
func TestRefusedWriteIsNotBusy(t *testing.T) {
	platform := sgx.NewPlatformFromSecret([]byte("netsrv-test"))
	leader, err := elsm.Open(elsm.Options{Platform: platform})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	src, err := leader.ReplicationSource()
	if err != nil {
		t.Fatal(err)
	}
	follower, err := elsm.OpenFollower(elsm.Options{Platform: platform}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	srv, err := New(follower, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for id, req := range []*netproto.Request{
		{Op: netproto.OpPut, Key: []byte("k"), Value: []byte("v")},
		{Op: netproto.OpDel, Key: []byte("k")},
		{Op: netproto.OpBatch, Ops: []netproto.BatchOp{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Delete: true}}},
	} {
		req.ID = uint64(id + 1)
		if _, err := conn.Write(netproto.AppendRequest(nil, req)); err != nil {
			t.Fatal(err)
		}
		typ, rid, body, err := netproto.ReadFrame(br, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := netproto.DecodeResponse(typ, rid, body); err != nil ||
			resp.Code != netproto.CodeErr || resp.ID != req.ID || resp.Errno != netproto.ErrnoReadOnly {
			t.Fatalf("%v on a read-only replica = %+v err %v, want CodeErr/ErrnoReadOnly", req.Op, resp, err)
		}
	}
	if n := srv.Stats().BusyRejects; n != 0 {
		t.Fatalf("%d refused writes counted as load sheds", n)
	}
}

// TestSlowClientTornDown is the slow-client satellite: a client that
// requests a large scan and never reads must lose its connection via the
// write deadline, without wedging the server.
func TestSlowClientTornDown(t *testing.T) {
	srv, addr := startServer(t, elsm.Options{},
		Config{ResponseBuffer: 1, WriteTimeout: 200 * time.Millisecond})

	// Preload enough rows that the scan overwhelms socket + response
	// buffers while the client refuses to read.
	load, err := netclient.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	val := bytes.Repeat([]byte("x"), 4096)
	for base := 0; base < 2000; base += 200 {
		ops := make([]netproto.BatchOp, 200)
		for i := range ops {
			ops[i] = netproto.BatchOp{Key: fmt.Appendf(nil, "key%08d", base+i), Value: val}
		}
		if _, err := load.Batch(ops); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	load.Close()

	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer stalled.Close()
	frame := netproto.AppendRequest(nil, &netproto.Request{
		Op: netproto.OpScan, ID: 1, Start: nil, End: []byte("\xff"),
	})
	if _, err := stalled.Write(frame); err != nil {
		t.Fatalf("write scan: %v", err)
	}
	// Never read. The server's write deadline must fire and untrack the
	// connection; poll the gauge instead of draining the socket.
	deadline := time.Now().Add(8 * time.Second)
	for srv.Stats().Connections != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server kept serving a stalled client past the deadline: %+v", srv.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The socket really was torn down: draining it bottoms out in an error.
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1<<16)
	for {
		if _, err := stalled.Read(buf); err != nil {
			break // reset/EOF — what we want; a deadline error would fail below
		}
	}

	// The server is still healthy for everyone else.
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatalf("server unhealthy after slow-client teardown: %v", err)
	}
}

// TestShedDuringTeardownAdmitsNothing: a request shed on the global budget
// while its connection is going down must not be dispatched. The reader used
// to fall out of the shed select into the admission path, so the request ran
// without a budget token, its completion released one too many, a worker
// blocked on the empty semaphore for good and neither the connection nor
// Server.Close ever finished.
func TestShedDuringTeardownAdmitsNothing(t *testing.T) {
	store, err := elsm.Open(elsm.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer store.Close()
	srv, err := New(store, Config{MaxInflight: 1, ResponseBuffer: 1, WriteTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()
	// Close under the test's own deadline: a wedged server fails this test,
	// not the package timeout.
	defer func() {
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Error("Server.Close did not return")
		}
	}()

	// Preload through the store: with a budget of one, back-to-back requests
	// on the wire can be shed while the previous token is still in flight.
	val := bytes.Repeat([]byte("x"), 4096)
	for i := 0; i < 2000; i++ {
		if _, err := store.Put(fmt.Appendf(nil, "key%08d", i), val); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}

	// The scan takes the only budget token and, never read, blocks the
	// writer; the pings behind it are shed, and the first BUSY waits on the
	// full response queue until the write deadline cancels the connection.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer stalled.Close()
	if _, err := stalled.Write(netproto.AppendRequest(nil, &netproto.Request{
		Op: netproto.OpScan, ID: 1, Start: nil, End: []byte("\xff"),
	})); err != nil {
		t.Fatalf("write scan: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	var pings []byte
	for id := uint64(2); id < 10; id++ {
		pings = netproto.AppendRequest(pings, &netproto.Request{Op: netproto.OpPing, ID: id})
	}
	if _, err := stalled.Write(pings); err != nil {
		t.Fatalf("write pings: %v", err)
	}

	deadline := time.Now().Add(8 * time.Second)
	for st := srv.Stats(); st.Connections != 0 || st.InflightRequests != 0; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("stalled connection never finished tearing down: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The whole budget is back: with MaxInflight 1, a token lost above would
	// turn every request into BUSY for good. (A token comes back just after
	// its response is written, so one retry loop absorbs a transient shed.)
	c := dial(t, addr)
	for i := 0; i < 4; i++ {
		retryBy := time.Now().Add(5 * time.Second)
		for {
			res, err := c.Get([]byte("key00000000"))
			if errors.Is(err, netclient.ErrBusy) && time.Now().Before(retryBy) {
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil || !res.Found {
				t.Fatalf("get %d after teardown: found %v, err %v", i, res.Found, err)
			}
			break
		}
	}
}

// TestFrameFaultsAnswered sends framing-level garbage and asserts the
// typed error comes back under the salvaged id with the connection intact.
func TestFrameFaultsAnswered(t *testing.T) {
	_, addr := startServer(t, elsm.Options{}, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	// Oversized frame: declared 17MB payload, salvageable prefix, then a
	// valid PING. The payload must be discarded, the fault answered under
	// id 7, and the PING answered after it.
	var hdr [13]byte
	size := netproto.MaxFrame + 1
	hdr[0] = byte(size >> 24)
	hdr[1] = byte(size >> 16)
	hdr[2] = byte(size >> 8)
	hdr[3] = byte(size)
	hdr[4] = uint8(netproto.OpPut)
	hdr[12] = 7 // big-endian id 7
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(make([]byte, size-9)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(netproto.AppendRequest(nil, &netproto.Request{Op: netproto.OpPing, ID: 8})); err != nil {
		t.Fatal(err)
	}

	typ, id, body, err := netproto.ReadFrame(br, 0)
	if err != nil {
		t.Fatalf("read fault answer: %v", err)
	}
	resp, err := netproto.DecodeResponse(typ, id, body)
	if err != nil {
		t.Fatalf("decode fault answer: %v", err)
	}
	if resp.Code != netproto.CodeErr || resp.ID != 7 || resp.Errno != netproto.ErrnoFrameTooLarge {
		t.Fatalf("fault answer = %+v, want CodeErr/ErrnoFrameTooLarge under id 7", resp)
	}
	typ, id, _, err = netproto.ReadFrame(br, 0)
	if err != nil || netproto.Code(typ) != netproto.CodePong || id != 8 {
		t.Fatalf("connection did not survive: typ %d id %d err %v", typ, id, err)
	}

	// Unknown opcode and malformed body: typed errors, connection stays.
	if _, err := conn.Write(netproto.AppendRequest(nil, &netproto.Request{Op: 0x19, ID: 9})); err != nil {
		t.Fatal(err)
	}
	typ, id, body, err = netproto.ReadFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := netproto.DecodeResponse(typ, id, body); err != nil ||
		resp.Code != netproto.CodeErr || resp.ID != 9 || resp.Errno != netproto.ErrnoUnknownOp {
		t.Fatalf("unknown-op answer = %+v err %v", resp, err)
	}
	if err := netproto.WriteFrame(conn, uint8(netproto.OpPut), 10, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	typ, id, body, err = netproto.ReadFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := netproto.DecodeResponse(typ, id, body); err != nil ||
		resp.Code != netproto.CodeErr || resp.ID != 10 || resp.Errno != netproto.ErrnoMalformed {
		t.Fatalf("malformed-body answer = %+v err %v", resp, err)
	}
}

// TestConfigValidation mirrors the elsm.Options validation style: zero
// means default, negatives draw descriptive errors.
func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{MaxConnections: -1}, "netsrv: MaxConnections must be ≥ 0 (0 = the default 1024), got -1"},
		{Config{PipelineDepth: -2}, "netsrv: PipelineDepth must be ≥ 0 (0 = the default 64), got -2"},
		{Config{MaxInflight: -3}, "netsrv: MaxInflight must be ≥ 0 (0 = the default 4096), got -3"},
		{Config{ResponseBuffer: -4}, "netsrv: ResponseBuffer must be ≥ 0 (0 = the default 64), got -4"},
		{Config{WriteTimeout: -time.Second}, "netsrv: WriteTimeout must be ≥ 0 (0 = the default 30s), got -1s"},
		{Config{AdmissionWait: -time.Millisecond}, "netsrv: AdmissionWait must be ≥ 0 (0 = the default 50ms), got -1ms"},
	}
	for _, c := range cases {
		_, err := New(nil, c.cfg)
		if err == nil || err.Error() != c.want {
			t.Fatalf("New(%+v) err = %v, want %q", c.cfg, err, c.want)
		}
	}
}

// TestConcurrentConnections exercises the full pipeline under -race: many
// connections pipelining writes and reads at once against one store.
func TestConcurrentConnections(t *testing.T) {
	_, addr := startServer(t, elsm.Options{Shards: 2}, Config{})
	const conns = 8
	errCh := make(chan error, conns)
	for i := 0; i < conns; i++ {
		go func(id int) {
			errCh <- func() error {
				c, err := netclient.Dial(addr)
				if err != nil {
					return err
				}
				defer c.Close()
				var futs []*netclient.Future
				for j := 0; j < 50; j++ {
					fut, err := c.PutAsync(fmt.Appendf(nil, "c%02d-k%03d", id, j), []byte("v"))
					if err != nil {
						return err
					}
					futs = append(futs, fut)
				}
				for _, fut := range futs {
					if _, err := fut.Wait(); err != nil {
						return err
					}
				}
				res, err := c.Get(fmt.Appendf(nil, "c%02d-k%03d", id, 49))
				if err != nil {
					return err
				}
				if !res.Found {
					return fmt.Errorf("conn %d: own write missing", id)
				}
				return nil
			}()
		}(i)
	}
	for i := 0; i < conns; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}
