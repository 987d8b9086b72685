// Legacy line protocol. This file is the line-oriented protocol that
// cmd/elsm-server exposed before the binary front end existed, moved here
// verbatim so (a) the binary server can keep serving legacy clients —
// including REPL checkpoint/tail followers — on the same port via
// first-byte sniffing, and (b) the benchmark harness can drive both
// protocols against the same store. See cmd/elsm-server for the command
// reference.
package netsrv

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"elsm"
	"elsm/internal/netproto"
	"elsm/internal/repl"
)

// maxBatchOps bounds one BATCH group (protocol abuse guard).
const maxBatchOps = 10000

// ServeLine serves one connection with the legacy line protocol until the
// peer disconnects or sends QUIT. It is the -proto line serving loop of
// cmd/elsm-server; the binary server dispatches here when a connection's
// first byte is printable.
func ServeLine(conn net.Conn, store *elsm.Store) {
	serveLine(bufio.NewReader(conn), conn, store)
}

// serveLine is ServeLine over an existing buffered reader (which may hold
// sniffed bytes). conn is the raw connection, used by REPL streams for
// deadlines and EOF detection.
func serveLine(r io.Reader, conn net.Conn, store *elsm.Store) {
	defer conn.Close()
	sess := &session{snaps: make(map[uint64]*elsm.Snapshot)}
	defer func() {
		for _, snap := range sess.snaps {
			snap.Close()
		}
	}()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	w := bufio.NewWriter(conn)
	defer w.Flush()
	for sc.Scan() {
		line := sc.Text()
		fields, err := splitFields(line)
		if err != nil {
			fmt.Fprintf(w, "ERR malformed line: %v\n", err)
			w.Flush()
			continue
		}
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToUpper(fields[0])
		args := fields[1:]
		switch {
		case cmd == "QUIT":
			return
		case cmd == "PUT" && len(args) == 2:
			ts, err := store.Put([]byte(args[0]), []byte(args[1]))
			reply(w, err, "OK %d", ts)
		case cmd == "GET" && len(args) == 1:
			res, err := store.Get([]byte(args[0]))
			switch {
			case err != nil:
				fmt.Fprintf(w, "ERR %v\n", err)
			case !res.Found:
				fmt.Fprintln(w, "NOTFOUND")
			default:
				fmt.Fprintf(w, "VALUE %d %s\n", res.Ts, field(res.Value))
			}
		case cmd == "DEL" && len(args) == 1:
			ts, err := store.Delete([]byte(args[0]))
			reply(w, err, "OK %d", ts)
		case cmd == "MPUT" && len(args) >= 2 && len(args)%2 == 0:
			b := store.NewBatch()
			for i := 0; i < len(args); i += 2 {
				b.Put([]byte(args[i]), []byte(args[i+1]))
			}
			ts, err := b.Commit()
			reply(w, err, "OK %d", ts)
		case cmd == "BATCH" && len(args) == 1:
			if !serveBatch(w, sc, store, args[0]) {
				return
			}
		case cmd == "SCAN" && len(args) == 2:
			serveIter(w, store.Iter([]byte(args[0]), []byte(args[1])))
		case cmd == "SNAPSHOT" && len(args) == 0:
			snap, err := store.Snapshot()
			if err != nil {
				fmt.Fprintf(w, "ERR %v\n", err)
				break
			}
			sess.nextSnap++
			sess.snaps[sess.nextSnap] = snap
			fmt.Fprintf(w, "OK %d %d\n", sess.nextSnap, snap.Ts())
		case cmd == "SGET" && len(args) == 2:
			snap, ok := sess.lookup(args[0])
			if !ok {
				fmt.Fprintf(w, "ERR unknown snapshot %q\n", args[0])
				break
			}
			res, err := snap.Get([]byte(args[1]))
			switch {
			case err != nil:
				fmt.Fprintf(w, "ERR %v\n", err)
			case !res.Found:
				fmt.Fprintln(w, "NOTFOUND")
			default:
				fmt.Fprintf(w, "VALUE %d %s\n", res.Ts, field(res.Value))
			}
		case cmd == "SSCAN" && len(args) == 3:
			snap, ok := sess.lookup(args[0])
			if !ok {
				fmt.Fprintf(w, "ERR unknown snapshot %q\n", args[0])
				break
			}
			serveIter(w, snap.Iter([]byte(args[1]), []byte(args[2])))
		case cmd == "RELEASE" && len(args) == 1:
			snap, ok := sess.lookup(args[0])
			if !ok {
				fmt.Fprintf(w, "ERR unknown snapshot %q\n", args[0])
				break
			}
			snap.Close()
			id, _ := strconv.ParseUint(args[0], 10, 64)
			delete(sess.snaps, id)
			fmt.Fprintln(w, "OK")
		case cmd == "PUTASYNC" && len(args) == 2:
			if len(sess.futures) >= maxSessionFutures {
				fmt.Fprintf(w, "ERR async backlog full (%d unsettled): SYNC first\n", len(sess.futures))
				break
			}
			b := store.NewBatch()
			b.Put([]byte(args[0]), []byte(args[1]))
			fut, err := b.CommitAsync(nil)
			if err != nil {
				fmt.Fprintf(w, "ERR %v\n", err)
				break
			}
			ts, err := fut.Ts(nil)
			if err != nil {
				fmt.Fprintf(w, "ERR %v\n", err)
				break
			}
			sess.futures = append(sess.futures, fut)
			fmt.Fprintf(w, "ACK %d\n", ts)
		case cmd == "SYNC" && len(args) == 0:
			if err := store.Sync(nil); err != nil {
				fmt.Fprintf(w, "ERR %v\n", err)
				break
			}
			settled := len(sess.futures)
			var failed error
			for _, fut := range sess.futures {
				if _, err := fut.Wait(nil); err != nil && failed == nil {
					failed = err
				}
			}
			sess.futures = sess.futures[:0]
			if failed != nil {
				fmt.Fprintf(w, "ERR async commit failed: %v\n", failed)
				break
			}
			fmt.Fprintf(w, "OK %d\n", settled)
		case cmd == "STATS" && len(args) == 0:
			for _, st := range storeStatsPairs(store) {
				fmt.Fprintf(w, "STAT %s %d\n", st.Name, st.Value)
			}
			fmt.Fprintln(w, "END")
		case cmd == "REPL" && len(args) == 1 && strings.ToUpper(args[0]) == "PROMOTE":
			epoch, err := store.Promote(nil)
			reply(w, err, "OK %d", epoch)
		case cmd == "REPL" && len(args) >= 2:
			// The connection becomes a one-way binary stream (checkpoint
			// bytes or group frames) and ends with it.
			serveRepl(w, conn, store, args)
			return
		default:
			fmt.Fprintf(w, "ERR unknown command or wrong arity %q\n", cmd)
		}
		w.Flush()
	}
}

// splitFields tokenizes one protocol line: fields are bare tokens or
// Go-syntax quoted strings, separated by spaces.
func splitFields(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			prefix, err := strconv.QuotedPrefix(line[i:])
			if err != nil {
				return nil, fmt.Errorf("bad quoted field at column %d", i+1)
			}
			field, err := strconv.Unquote(prefix)
			if err != nil {
				return nil, fmt.Errorf("bad quoted field at column %d", i+1)
			}
			i += len(prefix)
			if i < len(line) && line[i] != ' ' {
				return nil, fmt.Errorf("garbage after quoted field at column %d", i+1)
			}
			out = append(out, field)
			continue
		}
		j := i
		for j < len(line) && line[j] != ' ' {
			if line[j] == '"' {
				return nil, fmt.Errorf("unexpected quote inside bare field at column %d", j+1)
			}
			j++
		}
		out = append(out, line[i:j])
		i = j
	}
	return out, nil
}

// field renders a byte string for the wire: bare when it is a printable
// token, Go-quoted otherwise (binary safety in responses).
func field(b []byte) string {
	if len(b) == 0 {
		return `""`
	}
	for _, c := range b {
		if c <= ' ' || c == '"' || c == '\\' || c >= 0x7f {
			return strconv.Quote(string(b))
		}
	}
	return string(b)
}

// session is per-connection protocol state: open snapshots and the
// unsettled async-commit futures awaiting a SYNC.
type session struct {
	snaps    map[uint64]*elsm.Snapshot
	nextSnap uint64
	futures  []*elsm.CommitFuture
}

// maxSessionFutures bounds unsettled PUTASYNC futures per connection
// (protocol abuse guard — the store's MaxAsyncCommitBacklog bounds the
// global pipeline; this bounds one client's bookkeeping).
const maxSessionFutures = 100000

// serveBatch reads n op lines off the connection and commits them as one
// atomic group. Any malformed op line aborts the whole batch with ERR and
// nothing is applied; the remaining declared op lines are still consumed,
// so a pipelining client's leftover ops are never executed as top-level
// commands and the reply stream stays in sync.
// A bad size declaration is a framing-level protocol error: the server
// cannot know how many op lines will follow, so it replies ERR and reports
// the session unrecoverable (the caller closes the connection).
func serveBatch(w *bufio.Writer, sc *bufio.Scanner, store *elsm.Store, nArg string) (ok bool) {
	n, err := strconv.Atoi(nArg)
	if err != nil || n < 0 || n > maxBatchOps {
		fmt.Fprintf(w, "ERR bad batch size %q (max %d), closing connection\n", nArg, maxBatchOps)
		return false
	}
	drain := func(read int) {
		for i := read; i < n; i++ {
			if !sc.Scan() {
				return
			}
		}
	}
	b := store.NewBatch()
	// The ERR is buffered, not flushed: a correct client sends all n op
	// lines before reading the single batch reply, so the drain below must
	// keep consuming input first (flushing here would deadlock a client
	// that is still mid-send on an unbuffered transport). The serve loop
	// flushes after serveBatch returns.
	abort := func(format string, args ...interface{}) {
		fmt.Fprintf(w, format+"\n", args...)
	}
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			abort("ERR batch truncated at op %d of %d", i, n)
			return true
		}
		fields, err := splitFields(sc.Text())
		if err != nil {
			abort("ERR malformed batch op %d: %v", i, err)
			drain(i + 1)
			return true
		}
		if len(fields) == 0 {
			abort("ERR empty batch op %d", i)
			drain(i + 1)
			return true
		}
		switch cmd := strings.ToUpper(fields[0]); {
		case cmd == "PUT" && len(fields) == 3:
			b.Put([]byte(fields[1]), []byte(fields[2]))
		case cmd == "DEL" && len(fields) == 2:
			b.Delete([]byte(fields[1]))
		default:
			abort("ERR bad batch op %d: %q", i, fields[0])
			drain(i + 1)
			return true
		}
	}
	ts, err := b.Commit()
	reply(w, err, "OK %d", ts)
	return true
}

// lookup resolves a snapshot id argument against the session table.
func (sess *session) lookup(arg string) (*elsm.Snapshot, bool) {
	id, err := strconv.ParseUint(arg, 10, 64)
	if err != nil {
		return nil, false
	}
	snap, ok := sess.snaps[id]
	return snap, ok
}

// serveIter renders one verified stream (live or snapshot) to the wire. A
// mid-stream verification failure terminates the stream with ERR instead
// of END — the client discards the partial rows.
func serveIter(w *bufio.Writer, it *elsm.Iterator) {
	count := 0
	for it.Next() {
		fmt.Fprintf(w, "ROW %s %s\n", field(it.Key()), field(it.Value()))
		count++
		if count%64 == 0 {
			w.Flush() // stream incrementally, don't buffer the whole range
		}
	}
	if err := it.Close(); err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "END %d\n", count)
}

// storeStatsPairs renders the store's counters as name/value pairs — the
// one list behind both protocols' STATS commands, including the
// background-maintenance counters, the resolved group-commit window and
// the per-shard (shardN_*) breakdown, so an operator can see whether load
// spreads or one partition runs hot. The binary protocol appends its
// net_* gauges on top.
func storeStatsPairs(store *elsm.Store) []netproto.Stat {
	st := store.Stats()
	pairs := []netproto.Stat{
		{Name: "shards", Value: uint64(st.Shards)},
		{Name: "flushes", Value: st.Flushes},
		{Name: "compactions", Value: st.Compactions},
		{Name: "background_compactions", Value: st.BackgroundCompactions},
		{Name: "bytes_flushed", Value: st.BytesFlushed},
		{Name: "bytes_compacted", Value: st.BytesCompacted},
		{Name: "records_dropped", Value: st.RecordsDropped},
		{Name: "manifest_updates", Value: st.ManifestUpdates},
		{Name: "disk_bytes", Value: uint64(st.DiskBytes)},
		{Name: "wal_syncs", Value: st.WALSyncs},
		{Name: "group_commits", Value: st.GroupCommits},
		{Name: "grouped_records", Value: st.GroupedRecords},
		{Name: "wal_torn_records", Value: st.WALTornRecords},
		{Name: "flush_stall_nanos", Value: st.FlushStallNanos},
		{Name: "compaction_stall_nanos", Value: st.CompactionStallNanos},
		{Name: "compaction_debt_bytes", Value: st.CompactionDebtBytes},
		{Name: "parallel_compactions", Value: st.ParallelCompactions},
		{Name: "compaction_workers_busy", Value: st.CompactionWorkersBusy},
		{Name: "pinned_runs", Value: st.PinnedRuns},
		{Name: "snapshots_open", Value: st.SnapshotsOpen},
		{Name: "async_commits_in_flight", Value: st.AsyncCommitsInFlight},
		{Name: "group_commit_window_nanos", Value: st.GroupCommitWindowNanos},
		{Name: "fsync_ewma_nanos", Value: st.FsyncEWMANanos},
		{Name: "page_faults", Value: st.PageFaults},
		{Name: "ecalls", Value: st.ECalls},
		{Name: "ocalls", Value: st.OCalls},
		{Name: "copied_bytes", Value: st.CopiedBytes},
		{Name: "enclave_bytes", Value: uint64(st.EnclaveBytes)},
		{Name: "verified_gets", Value: st.VerifiedGets},
		{Name: "proof_bytes", Value: st.ProofBytes},
		{Name: "runs_probed", Value: st.RunsProbed},
		{Name: "verify_node_cache_hits", Value: st.VerifyNodeCacheHits},
		{Name: "verify_node_cache_misses", Value: st.VerifyNodeCacheMisses},
		{Name: "verify_node_hashes", Value: st.VerifyNodeHashes},
		{Name: "repl_lag_groups", Value: st.ReplLagGroups},
		{Name: "repl_lag_bytes", Value: st.ReplLagBytes},
		{Name: "followers_connected", Value: st.FollowersConnected},
		{Name: "repl_reconnects", Value: st.ReplReconnects},
		{Name: "repl_rebootstraps", Value: st.ReplRebootstraps},
		{Name: "repl_epoch", Value: st.ReplEpoch},
	}
	for lvl, debt := range st.CompactionDebtByLevel {
		pairs = append(pairs, netproto.Stat{Name: fmt.Sprintf("compaction_debt_level%d", lvl), Value: debt})
	}
	pairs = append(pairs, histStatsPairs(store)...)
	for i, ss := range store.ShardStats() {
		pairs = append(pairs,
			netproto.Stat{Name: fmt.Sprintf("shard%d_wal_syncs", i), Value: ss.WALSyncs},
			netproto.Stat{Name: fmt.Sprintf("shard%d_group_commits", i), Value: ss.GroupCommits},
			netproto.Stat{Name: fmt.Sprintf("shard%d_snapshots_open", i), Value: ss.SnapshotsOpen},
			netproto.Stat{Name: fmt.Sprintf("shard%d_async_commits_in_flight", i), Value: ss.AsyncCommitsInFlight},
			netproto.Stat{Name: fmt.Sprintf("shard%d_disk_bytes", i), Value: uint64(ss.DiskBytes)},
			netproto.Stat{Name: fmt.Sprintf("shard%d_compaction_debt_bytes", i), Value: ss.CompactionDebtBytes},
		)
	}
	return pairs
}

// histStatsPairs folds the store's per-shard latency histograms (the
// canonical obs.Recorder.Hists list — the same one /metrics renders) into
// store-wide count/p50/p99 pairs for both protocols' STATS commands.
// Shards merge bucket-wise before the quantile is taken, so the percentile
// is computed over the union of observations, never averaged across
// shards. Histograms with no observations are omitted: an uninstrumented
// or idle store keeps its STATS output unchanged.
func histStatsPairs(store *elsm.Store) []netproto.Stat {
	recs := store.Recorders()
	if len(recs) == 0 {
		return nil
	}
	var pairs []netproto.Stat
	names := recs[0].Hists()
	for idx, nh := range names {
		snap := nh.Hist.Snapshot()
		for _, r := range recs[1:] {
			snap.Merge(r.Hists()[idx].Hist.Snapshot())
		}
		if snap.Count == 0 {
			continue
		}
		pairs = append(pairs,
			netproto.Stat{Name: "hist_" + nh.Name + "_count", Value: snap.Count},
			netproto.Stat{Name: "hist_" + nh.Name + "_p50", Value: snap.Quantile(0.5)},
			netproto.Stat{Name: "hist_" + nh.Name + "_p99", Value: snap.Quantile(0.99)},
		)
	}
	return pairs
}

// serveRepl handles the replication endpoint:
//
//	REPL CKPT <shard>\n          -> OK\n + the shard's checkpoint stream
//	REPL TAIL <shard> <fromTs>\n -> OK\n + attested group frames from
//	                                fromTs, streamed until either side goes
//	                                away, or ERR BEHIND\n when fromTs has
//	                                fallen out of the leader's retained
//	                                ring (the follower re-bootstraps)
//
// TAIL answers its status line eagerly, right after the shard and ring
// checks: a caught-up follower of an idle leader would otherwise wait for
// the first frame with no status at all, wedging its status read (and its
// Close) indefinitely. CKPT defers OK until the stream's first byte, so
// export errors that precede any payload surface on the status line.
func serveRepl(w *bufio.Writer, conn net.Conn, store *elsm.Store, args []string) {
	sub := strings.ToUpper(args[0])
	shard, err := strconv.Atoi(args[1])
	if err != nil || shard < 0 || shard >= store.Shards() {
		fmt.Fprintf(w, "ERR bad shard %q\n", args[1])
		return
	}
	sw := &statusWriter{w: w, conn: conn}
	switch {
	case sub == "CKPT" && len(args) == 2:
		err = store.ServeCheckpoint(shard, sw)
	case sub == "TAIL" && len(args) == 3:
		fromTs, perr := strconv.ParseUint(args[2], 10, 64)
		if perr != nil {
			fmt.Fprintf(w, "ERR bad fromTs %q\n", args[2])
			return
		}
		if err := store.TailReady(shard, fromTs); err != nil {
			writeReplErr(w, err)
			return
		}
		fmt.Fprintln(w, "OK")
		w.Flush()
		sw.started = true
		// Followers never send after the command line: the next read
		// completes when the peer closes, unblocking a tail idling at the
		// head of a quiet leader.
		stop := make(chan struct{})
		go func() {
			conn.Read(make([]byte, 1))
			close(stop)
		}()
		err = store.ServeTail(shard, fromTs, sw, stop)
	default:
		fmt.Fprintf(w, "ERR unknown REPL form %q\n", sub)
		return
	}
	if !sw.started && err != nil {
		writeReplErr(w, err)
	}
}

// writeReplErr renders a replication error as a status line, using the
// dedicated BEHIND token for the re-bootstrap condition so followers can
// match it exactly instead of parsing error prose.
func writeReplErr(w *bufio.Writer, err error) {
	if errors.Is(err, repl.ErrBehind) {
		fmt.Fprintln(w, repl.StatusBehind)
		return
	}
	fmt.Fprintf(w, "ERR %v\n", err)
}

// replWriteTimeout bounds each REPL stream write: a follower that stopped
// draining its socket fails its stream instead of wedging the leader's
// serve goroutine (and, through the hub's frame fan-out, other followers)
// forever.
const replWriteTimeout = 30 * time.Second

// statusWriter defers the REPL "OK" status line until the first payload
// byte, letting pre-stream failures use the status line instead. Every
// write is deadline-bounded on the underlying connection.
type statusWriter struct {
	w       *bufio.Writer
	conn    net.Conn
	started bool
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if !sw.started {
		sw.started = true
		fmt.Fprintln(sw.w, "OK")
	}
	sw.conn.SetWriteDeadline(time.Now().Add(replWriteTimeout))
	defer sw.conn.SetWriteDeadline(time.Time{})
	n, err := sw.w.Write(p)
	if err == nil {
		// Flush per write: tail frames must reach the follower promptly.
		err = sw.w.Flush()
	}
	return n, err
}

func reply(w *bufio.Writer, err error, format string, args ...interface{}) {
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, format+"\n", args...)
}
