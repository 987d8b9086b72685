package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"elsm"
	"elsm/internal/netclient"
	"elsm/internal/netproto"
	"elsm/internal/netsrv"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// serve puts store behind the server main() assembles — netsrv with the
// flag defaults — on a loopback port, and returns its address.
func serve(t *testing.T, store *elsm.Store) string {
	t.Helper()
	cfg, err := netConfig(netsrv.DefaultMaxConnections, netsrv.DefaultPipelineDepth, netsrv.DefaultMaxInflight)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netsrv.New(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func dial(t *testing.T, addr string) *netclient.Client {
	t.Helper()
	c, err := netclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustOpen(t *testing.T, opts elsm.Options) *elsm.Store {
	t.Helper()
	store, err := elsm.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// rows drains a scan into "key=value" strings.
func rows(t *testing.T, sc *netclient.Scanner, err error) []string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for sc.Next() {
		out = append(out, fmt.Sprintf("%s=%s", sc.Key(), sc.Value()))
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func wantRows(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// exchange writes raw request frames on a connection of its own and returns
// one decoded response per frame, in arrival order.
func exchange(t *testing.T, addr string, frames ...[]byte) []*netproto.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, f := range frames {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	out := make([]*netproto.Response, len(frames))
	for i := range out {
		typ, id, body, err := netproto.ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if out[i], err = netproto.DecodeResponse(typ, id, body); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
	}
	return out
}

// rawFrame is a request frame with a hand-built body.
func rawFrame(op netproto.Op, id uint64, body []byte) []byte {
	var b bytes.Buffer
	netproto.WriteFrame(&b, uint8(op), id, body)
	return b.Bytes()
}

func TestServerProtocol(t *testing.T) {
	c := dial(t, serve(t, mustOpen(t, elsm.Options{})))
	if ts, err := c.Put([]byte("alpha"), []byte("one")); err != nil || ts != 1 {
		t.Fatalf("put alpha: ts %d, %v", ts, err)
	}
	if ts, err := c.Put([]byte("beta"), []byte("two")); err != nil || ts != 2 {
		t.Fatalf("put beta: ts %d, %v", ts, err)
	}
	if res, err := c.Get([]byte("alpha")); err != nil || !res.Found || string(res.Value) != "one" || res.Ts != 1 {
		t.Fatalf("get alpha = %+v, %v", res, err)
	}
	if res, err := c.Get([]byte("missing")); err != nil || res.Found {
		t.Fatalf("get missing = %+v, %v", res, err)
	}
	sc, err := c.Scan([]byte("a"), []byte("z"))
	wantRows(t, "scan", rows(t, sc, err), "alpha=one", "beta=two")
	if _, err := c.Delete([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if res, err := c.Get([]byte("alpha")); err != nil || res.Found {
		t.Fatalf("get after delete = %+v, %v", res, err)
	}
}

// TestServerSnapshotVerbs: the wire's point-in-time read is a scan at a
// commit timestamp. It keeps answering with that moment's state while the
// live store moves on, and is repeatable.
func TestServerSnapshotVerbs(t *testing.T) {
	c := dial(t, serve(t, mustOpen(t, elsm.Options{})))
	c.Put([]byte("alice"), []byte("v1"))
	at, err := c.Put([]byte("bob"), []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	c.Put([]byte("alice"), []byte("v2"))
	if _, err := c.Delete([]byte("bob")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sc, err := c.ScanAt([]byte("a"), []byte("z"), at)
		wantRows(t, "scan at the earlier timestamp", rows(t, sc, err), "alice=v1", "bob=v1")
	}
	sc, err := c.ScanAt([]byte("bob"), []byte("bob"), at)
	wantRows(t, "point read at the earlier timestamp", rows(t, sc, err), "bob=v1")
	sc, err = c.Scan([]byte("a"), []byte("z"))
	wantRows(t, "live scan", rows(t, sc, err), "alice=v2")
}

// TestServerAsyncVerbs: pipelined writes are acknowledged with fresh
// timestamps in issue order, durable once waited for, and SYNC is a barrier.
func TestServerAsyncVerbs(t *testing.T) {
	c := dial(t, serve(t, mustOpen(t, elsm.Options{})))
	var futs []*netclient.Future
	for i := 1; i <= 3; i++ {
		fut, err := c.PutAsync(fmt.Appendf(nil, "k%d", i), fmt.Appendf(nil, "v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i, fut := range futs {
		ts, err := fut.Wait()
		if err != nil || ts <= last {
			t.Fatalf("async put %d: ts %d after %d, %v", i, ts, last, err)
		}
		last = ts
	}
	if res, err := c.Get([]byte("k2")); err != nil || string(res.Value) != "v2" || res.Ts != last-1 {
		t.Fatalf("get after sync = %+v, %v", res, err)
	}
}

func TestServerStats(t *testing.T) {
	c := dial(t, serve(t, mustOpen(t, elsm.Options{})))
	if _, err := c.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"shards", "flushes", "compactions", "background_compactions",
		"flush_stall_nanos", "compaction_stall_nanos", "pinned_runs",
		"group_commits", "wal_syncs", "verified_gets",
		"shard0_wal_syncs", "shard0_snapshots_open", "shard0_async_commits_in_flight",
		"net_connections", "net_bytes_in",
	} {
		if _, ok := stats[name]; !ok {
			t.Fatalf("STATS missing %q (got %v)", name, stats)
		}
	}
}

// TestServerShardedStore drives the wire against a 4-shard store: a
// cross-shard batch, the merged verified scan, a scan at a timestamp that
// predates an overwrite, and the per-shard STATS gauges that make the
// topology observable.
func TestServerShardedStore(t *testing.T) {
	c := dial(t, serve(t, mustOpen(t, elsm.Options{Shards: 4})))
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	var ops []netproto.BatchOp
	var want []string
	for i, k := range keys {
		ops = append(ops, netproto.BatchOp{Key: []byte(k), Value: fmt.Appendf(nil, "%d", i+1)})
		want = append(want, fmt.Sprintf("%s=%d", k, i+1))
	}
	at, err := c.Batch(ops)
	if err != nil {
		t.Fatalf("cross-shard batch: %v", err)
	}
	if res, err := c.Get([]byte("charlie")); err != nil || string(res.Value) != "3" {
		t.Fatalf("get after cross-shard batch = %+v, %v", res, err)
	}
	if _, err := c.Put([]byte("alpha"), []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	sc, err := c.ScanAt([]byte("a"), []byte("z"), at)
	wantRows(t, "merged scan before the overwrite", rows(t, sc, err), want...)
	want[0] = "alpha=overwritten"
	sc, err = c.Scan([]byte("a"), []byte("z"))
	wantRows(t, "merged live scan", rows(t, sc, err), want...)
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["shard3_wal_syncs"]; !ok || stats["shards"] != 4 {
		t.Fatalf("per-shard STATS gauges missing for shard 3: %v", stats)
	}
}

// TestServerBinarySafety: keys and values are byte strings on the wire —
// spaces, newlines, quotes and NULs come back as they went in, and a scan
// frames them unambiguously.
func TestServerBinarySafety(t *testing.T) {
	c := dial(t, serve(t, mustOpen(t, elsm.Options{})))
	pairs := [][2]string{
		{"key", "a value with spaces"},
		{"key with spaces", "plain"},
		{"bin\x00\"", "line1\nline2\x00"},
	}
	for _, kv := range pairs {
		if _, err := c.Put([]byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	for _, kv := range pairs {
		if res, err := c.Get([]byte(kv[0])); err != nil || string(res.Value) != kv[1] {
			t.Fatalf("get %q = %q, %v; want %q", kv[0], res.Value, err, kv[1])
		}
	}
	sc, err := c.Scan([]byte(" "), []byte("~~~~"))
	wantRows(t, "scan", rows(t, sc, err),
		"bin\x00\"=line1\nline2\x00", "key=a value with spaces", "key with spaces=plain")
}

// TestServerRejectsMalformed: an unknown opcode, a truncated body and a
// batch declaring more operations than the protocol allows each draw a typed
// error under their own id, write nothing, and leave the connection serving.
func TestServerRejectsMalformed(t *testing.T) {
	addr := serve(t, mustOpen(t, elsm.Options{}))
	resps := exchange(t, addr,
		rawFrame(0x7f, 1, nil),
		rawFrame(netproto.OpPut, 2, []byte{3, 'k', 'e', 'y', 9}), // a 9-byte value, and no bytes
		rawFrame(netproto.OpBatch, 3, []byte{0x91, 0x4e}),        // 10001 operations
		netproto.AppendRequest(nil, &netproto.Request{Op: netproto.OpGet, ID: 4, Key: []byte("key")}),
	)
	for i, errno := range []netproto.Errno{netproto.ErrnoUnknownOp, netproto.ErrnoMalformed, netproto.ErrnoMalformed} {
		if r := resps[i]; r.Code != netproto.CodeErr || r.ID != uint64(i+1) || r.Errno != errno {
			t.Fatalf("malformed request %d answered %+v, want errno %d", i+1, r, errno)
		}
	}
	if r := resps[3]; r.Code != netproto.CodeNotFound || r.ID != 4 {
		t.Fatalf("get after malformed requests = %+v, want NOTFOUND under id 4", r)
	}
}

func TestServerBatchCommands(t *testing.T) {
	c := dial(t, serve(t, mustOpen(t, elsm.Options{})))
	ts, err := c.Batch([]netproto.BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("c"), Value: []byte("3")},
	})
	if err != nil || ts != 3 {
		t.Fatalf("batch: ts %d, %v", ts, err)
	}
	if res, err := c.Get([]byte("b")); err != nil || string(res.Value) != "2" || res.Ts != 2 {
		t.Fatalf("get after batch = %+v, %v", res, err)
	}
	if _, err := c.Batch([]netproto.BatchOp{
		{Key: []byte("d"), Value: []byte("4")},
		{Key: []byte("a"), Delete: true},
		{Key: []byte("e"), Value: []byte("5")},
	}); err != nil {
		t.Fatal(err)
	}
	sc, err := c.Scan([]byte("a"), []byte("z"))
	wantRows(t, "scan", rows(t, sc, err), "b=2", "c=3", "d=4", "e=5")
}

// TestServerConnectionsShareCommitGroups proves the server-side write
// coalescing: batches arriving on SEPARATE connections ride the store's
// shared group-commit pipeline, so the store issues measurably fewer WAL
// fsyncs than it served write requests. The store sits on sync-delayed
// storage (where grouping matters): requests arriving while one group is in
// its fsync join the next, so eight closed-loop connections need at most one
// fsync per two requests.
func TestServerConnectionsShareCommitGroups(t *testing.T) {
	store := mustOpen(t, elsm.Options{FS: vfs.NewSlowSync(vfs.NewMem(), 500*time.Microsecond)})
	addr := serve(t, store)

	const conns = 8
	const requestsPerConn = 10
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for n := 0; n < conns; n++ {
		c := dial(t, addr)
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < requestsPerConn; i++ {
				a, b := fmt.Appendf(nil, "c%02d-a%02d", n, i), fmt.Appendf(nil, "c%02d-b%02d", n, i)
				ops := []netproto.BatchOp{{Key: a, Value: []byte("1")}, {Key: b, Value: []byte("2")}}
				if i%2 == 1 {
					ops = []netproto.BatchOp{{Key: a, Value: []byte("3")}, {Key: b, Delete: true}}
				}
				if _, err := c.Batch(ops); err != nil {
					errs <- fmt.Errorf("conn %d req %d: %v", n, i, err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := store.Stats()
	total := uint64(conns * requestsPerConn)
	if st.GroupedRecords != total*2 {
		t.Fatalf("pipeline carried %d records, want %d", st.GroupedRecords, total*2)
	}
	if st.WALSyncs*2 > total {
		t.Fatalf("server issued %d fsyncs for %d write requests — connections are not sharing commit groups", st.WALSyncs, total)
	}
	t.Logf("%d write requests from %d connections → %d fsyncs, %d commit groups",
		total, conns, st.WALSyncs, st.GroupCommits)

	// And the coalesced writes are all there, verified.
	for n := 0; n < conns; n++ {
		res, err := store.Get(fmt.Appendf(nil, "c%02d-a%02d", n, requestsPerConn-2))
		if err != nil || !res.Found {
			t.Fatalf("conn %d data lost after coalesced commit: %v found=%v", n, err, res.Found)
		}
	}
}

// TestServerBatchAborted: a batch with an undecodable operation applies
// nothing, and the requests pipelined behind it are answered in step.
func TestServerBatchAborted(t *testing.T) {
	addr := serve(t, mustOpen(t, elsm.Options{}))
	batch := []byte{2, 0, 1, 'x', 1, '1', 7, 1, 'y'} // put x=1, then an op of kind 7
	resps := exchange(t, addr,
		rawFrame(netproto.OpBatch, 1, batch),
		netproto.AppendRequest(nil, &netproto.Request{Op: netproto.OpGet, ID: 2, Key: []byte("x")}),
	)
	if r := resps[0]; r.Code != netproto.CodeErr || r.ID != 1 || r.Errno != netproto.ErrnoMalformed {
		t.Fatalf("bad batch op answered %+v, want ErrnoMalformed under id 1", r)
	}
	if r := resps[1]; r.Code != netproto.CodeNotFound || r.ID != 2 {
		t.Fatalf("aborted batch must apply nothing; get x = %+v", r)
	}
}

// TestServerReplProtocol drives replication end to end over the wire: a
// follower bootstraps from the checkpoint verb, tails the tail verb,
// converges with the leader, both sides expose the replication gauges on
// STATS, the follower refuses writes with the typed error, and promotion
// over the wire makes it writable.
func TestServerReplProtocol(t *testing.T) {
	secret := []byte("server-repl-secret")
	leader := mustOpen(t, elsm.Options{Platform: sgx.NewPlatformFromSecret(secret)})
	for i := 0; i < 50; i++ {
		if _, err := leader.Put(fmt.Appendf(nil, "k%03d", i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	leaderAddr := serve(t, leader)
	follower, err := elsm.OpenFollower(elsm.Options{Platform: sgx.NewPlatformFromSecret(secret)}, elsm.NewFollowerSource(leaderAddr))
	if err != nil {
		t.Fatalf("open follower over wire: %v", err)
	}
	t.Cleanup(func() { follower.Close() })
	fc := dial(t, serve(t, follower))

	for i := 0; i < 50; i++ {
		if _, err := leader.Put(fmt.Appendf(nil, "k%03d", i), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := follower.ReplicationErr(); err != nil {
			t.Fatalf("replication failed: %v", err)
		}
		res, err := fc.Get([]byte("k049"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found && string(res.Value) == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never converged over the wire protocol")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// STATS on the follower exposes the lag gauges; on the leader, the
	// connected-follower count.
	stats, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"repl_lag_groups", "repl_lag_bytes", "followers_connected"} {
		if _, ok := stats[name]; !ok {
			t.Fatalf("follower STATS missing %q", name)
		}
	}
	lc := dial(t, leaderAddr)
	if stats, err := lc.Stats(); err != nil || stats["followers_connected"] < 1 {
		t.Fatalf("leader followers_connected = %d (%v), want >= 1", stats["followers_connected"], err)
	}

	// A write against the follower draws the typed read-only error; a
	// checkpoint of a shard that does not exist, an error.
	var se *netclient.ServerError
	if _, err := fc.Put([]byte("x"), []byte("y")); !errors.As(err, &se) || se.Errno != netproto.ErrnoReadOnly {
		t.Fatalf("follower put: %v, want ErrnoReadOnly", err)
	}
	s, err := lc.Checkpoint(9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(make([]byte, 1)); !errors.As(err, &se) {
		t.Fatalf("checkpoint of shard 9: %v, want a server error", err)
	}

	// A tail cursor older than the retained ring (the hubs were anchored
	// after the first 50 writes, so 0 is out of it) draws the typed BEHIND.
	if s, err = lc.Tail(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(make([]byte, 1)); !errors.Is(err, netclient.ErrBehind) {
		t.Fatalf("tail from 0: %v, want netclient.ErrBehind", err)
	}

	// Promote is refused on a leader, and turns the follower writable.
	if _, err := lc.Promote(); err == nil {
		t.Fatal("promote on a leader succeeded")
	}
	if epoch, err := fc.Promote(); err != nil || epoch == 0 {
		t.Fatalf("promote: epoch %d, %v", epoch, err)
	}
	if _, err := fc.Put([]byte("x"), []byte("y")); err != nil {
		t.Fatalf("put on the promoted store: %v", err)
	}
}

// TestNetConfigFlagValidation covers the admission-control flag parsing:
// the flags default to the concrete netsrv values, so zero and negative
// settings are operator mistakes and draw descriptive errors before the
// listener starts.
func TestNetConfigFlagValidation(t *testing.T) {
	cfg, err := netConfig(1024, 64, 4096)
	if err != nil {
		t.Fatalf("default flag values rejected: %v", err)
	}
	if cfg.MaxConnections != 1024 || cfg.PipelineDepth != 64 || cfg.MaxInflight != 4096 {
		t.Fatalf("config mangled: %+v", cfg)
	}
	cases := []struct {
		maxConns, depth, inflight int
		want                      string
	}{
		{0, 64, 4096, "-max-connections must be > 0, got 0"},
		{-5, 64, 4096, "-max-connections must be > 0, got -5"},
		{1024, 0, 4096, "-pipeline-depth must be > 0, got 0"},
		{1024, -1, 4096, "-pipeline-depth must be > 0, got -1"},
		{1024, 64, 0, "-max-inflight must be > 0, got 0"},
		{1024, 64, -9, "-max-inflight must be > 0, got -9"},
	}
	for _, c := range cases {
		_, err := netConfig(c.maxConns, c.depth, c.inflight)
		if err == nil || err.Error() != c.want {
			t.Fatalf("netConfig(%d, %d, %d) err = %v, want %q",
				c.maxConns, c.depth, c.inflight, err, c.want)
		}
	}
}

// TestDirNeedsSealingRoot: a data directory the second boot could not read
// is refused at the first — an authenticated one without a platform secret,
// and any eLSM-P1 one, whose block key is drawn afresh at every open — while
// everything a restart can reopen is let through.
func TestDirNeedsSealingRoot(t *testing.T) {
	for _, c := range []struct {
		dir    string
		mode   elsm.Mode
		secret string
		refuse string // "": let through; else what the refusal must name
	}{
		{"", elsm.ModeP2, "", ""},   // in memory: nothing to restart on
		{"d", elsm.ModeP2, "s", ""}, // the platform key derives from the secret
		{"d", elsm.ModeP2, "", "-repl-secret"},
		{"d", elsm.ModeUnsecured, "", ""}, // nothing is sealed
		{"", elsm.ModeP1, "", ""},
		{"d", elsm.ModeP1, "", "drawn afresh at every open"},
		{"d", elsm.ModeP1, "s", "drawn afresh at every open"}, // no secret derives the block key
	} {
		err := checkSealingRoot(c.dir, c.mode, c.secret)
		if (err == nil) != (c.refuse == "") {
			t.Errorf("checkSealingRoot(%q, %v, %q) = %v, want refused=%v", c.dir, c.mode, c.secret, err, c.refuse != "")
		}
		if err != nil && !strings.Contains(err.Error(), c.refuse) {
			t.Errorf("refusal %q does not name its cause (want %q)", err, c.refuse)
		}
	}
}

// TestSignalSealsAStateARestartReopens drives main's serving half the way
// an operator does: serve a directory, write, SIGTERM — run returns cleanly
// with the listener closed and the open connection drained — close the store,
// and start again on the same directory with the same secret.
func TestSignalSealsAStateARestartReopens(t *testing.T) {
	dir := t.TempDir()
	open := func() *elsm.Store {
		store, err := elsm.Open(elsm.Options{Dir: dir, Platform: sgx.NewPlatformFromSecret([]byte("restart"))})
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		return store
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cfg, err := netConfig(netsrv.DefaultMaxConnections, netsrv.DefaultPipelineDepth, netsrv.DefaultMaxInflight)
	if err != nil {
		t.Fatal(err)
	}

	store := open()
	done := make(chan error, 1)
	go func() { done <- run(store, addr, "", "", cfg) }()
	var c *netclient.Client
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if c, err = netclient.Dial(addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened on %s: %v", addr, err)
		}
	}
	if _, err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	defer c.Close() // left open across the signal: run must drain it
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM did not stop the server")
	}
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("listener still open after SIGTERM")
	}
	if _, err := c.Get([]byte("k")); err == nil {
		t.Fatal("run returned with a connection still served: the store would close under it")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store = open()
	defer store.Close()
	if res, err := store.Get([]byte("k")); err != nil || !res.Found || string(res.Value) != "v" {
		t.Fatalf("after restart: %+v, %v", res, err)
	}
}
