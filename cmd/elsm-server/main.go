// Command elsm-server exposes an authenticated eLSM store over TCP
// (stdlib net only), modelling the paper's trusted cloud application
// serving verified reads and durable writes to remote clients. It speaks
// the framed binary protocol of internal/netproto — internal/netsrv is the
// serving model, internal/netclient the client, cmd/elsm-cli the by-hand
// surface — and every response reflects verified state: a tampering host
// surfaces as a typed error, never as wrong data.
//
// Flags:
//
//	-addr, -dir, -mode p2|p1|unsecured
//	    where to listen, where to keep data (empty: in memory), which of
//	    the paper's configurations to run.
//	-shards N
//	    hash-partition the store into N authenticated instances behind the
//	    router; STATS reports aggregate and per-shard (shardN_*) gauges.
//	-commit-window, -commit-max-ops, -iter-chunk-keys, -compaction-workers
//	    engine tuning: group-commit batching delay and group size cap, keys
//	    per streamed SCAN chunk, maintenance pool size.
//	-max-connections, -pipeline-depth, -max-inflight
//	    admission control: concurrent connections, requests in flight per
//	    connection and globally. Excess load is shed with a typed BUSY; the
//	    net_* gauges in STATS sit behind each limit. A follower's tail holds
//	    one in-flight request per shard for life, so -max-inflight must
//	    exceed followers × shards.
//	-repl-secret s
//	    the attestation root shared by leader and followers (the stand-in
//	    for remote attestation). With it the server serves checkpoint and
//	    tail streams to followers.
//	-follow leader:7878
//	    open as a read-only replica of that leader (needs -repl-secret):
//	    reads verify against the follower's own Merkle forest, writes draw
//	    typed read-only errors, STATS shows repl_lag_groups/repl_lag_bytes,
//	    and `elsm-cli promote` fails over to it.
//	-admin 127.0.0.1:7879, -slow-op-threshold, -trace-sample-every
//	    HTTP observability endpoint (/metrics in Prometheus text format,
//	    /debug/pprof/*, /traces, /events) and what its rings capture. It is
//	    plaintext and unauthenticated: keep it on localhost or behind a
//	    proxy.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"

	"elsm"
	"elsm/internal/netsrv"
	"elsm/internal/sgx"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7878", "listen address")
		dir          = flag.String("dir", "", "data directory (empty: in-memory)")
		mode         = flag.String("mode", "p2", "store mode: p2 | p1 | unsecured")
		shards       = flag.Int("shards", 1, "hash-partitioned shard count (power of two; each shard runs its own WAL, committer and maintenance worker)")
		commitWindow = flag.Duration("commit-window", 0, "group-commit batching window (0: natural batching only, -1ns: adaptive from fsync latency)")
		commitMaxOps = flag.Int("commit-max-ops", 0, "max operations per commit group (0: unbounded, 1: no coalescing)")
		chunkKeys    = flag.Int("iter-chunk-keys", 0, "keys per streamed SCAN chunk (0: default)")
		compWorkers  = flag.Int("compaction-workers", 0, "maintenance worker pool size shared across shards (0: max(2, GOMAXPROCS/2))")
		maxConns     = flag.Int("max-connections", netsrv.DefaultMaxConnections, "max concurrent client connections; further connects are shed with BUSY")
		pipeDepth    = flag.Int("pipeline-depth", netsrv.DefaultPipelineDepth, "max pipelined requests in flight per connection")
		maxInflight  = flag.Int("max-inflight", netsrv.DefaultMaxInflight, "max requests in flight across all connections; excess is shed with BUSY")
		follow       = flag.String("follow", "", "run as a read-only replica of the leader at this address (requires -repl-secret and mode p2)")
		replSecret   = flag.String("repl-secret", "", "shared attestation secret binding leader and followers (stands in for remote attestation; required with -follow, lets followers stream checkpoints and tails from this server)")
		adminAddr    = flag.String("admin", "", "observability HTTP listen address (e.g. 127.0.0.1:7879) serving /metrics, /debug/pprof/*, /traces and /events; empty disables. Plaintext and unauthenticated — keep it on localhost or behind a proxy")
		slowOp       = flag.Duration("slow-op-threshold", 0, "end-to-end latency above which a commit group's stage breakdown lands in the slow-op log (0: the 50ms default)")
		traceEvery   = flag.Int("trace-sample-every", 0, "trace every Nth commit group through the pipeline (0: the default 64; 1: every group)")
	)
	flag.Parse()

	opts := elsm.Options{
		Dir:               *dir,
		Shards:            *shards,
		GroupCommitWindow: *commitWindow,
		GroupCommitMaxOps: *commitMaxOps,
		IterChunkKeys:     *chunkKeys,
		CompactionWorkers: *compWorkers,
		SlowOpThreshold:   *slowOp,
		TraceSampleEvery:  *traceEvery,
	}
	switch *mode {
	case "p2":
		opts.Mode = elsm.ModeP2
	case "p1":
		opts.Mode = elsm.ModeP1
		opts.CacheSize = 8 << 20
	case "unsecured":
		opts.Mode = elsm.ModeUnsecured
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	if *replSecret != "" {
		opts.Platform = sgx.NewPlatformFromSecret([]byte(*replSecret))
	}
	var store *elsm.Store
	var err error
	if *follow != "" {
		if *replSecret == "" {
			log.Fatal("-follow requires -repl-secret (the shared attestation root)")
		}
		store, err = elsm.OpenFollower(opts, elsm.NewFollowerSource(*follow))
	} else {
		store, err = elsm.Open(opts)
	}
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	defer store.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	role := "leader"
	if store.IsFollower() {
		role = fmt.Sprintf("follower of %s", *follow)
	}
	log.Printf("elsm-server (%s, %d shard(s), %s) listening on %s",
		store.Mode(), store.Shards(), role, ln.Addr())

	cfg, err := netConfig(*maxConns, *pipeDepth, *maxInflight)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := netsrv.New(store, cfg)
	if err != nil {
		log.Fatalf("server config: %v", err)
	}
	startAdmin(*adminAddr, srv)
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("serve: %v", err)
	}
}

// startAdmin starts the opt-in observability HTTP listener. The handler
// is plaintext and unauthenticated by design (diagnostics, not data), so
// the operator guidance is a localhost bind; a non-loopback bind is the
// operator's explicit choice and gets a log warning rather than a
// refusal.
func startAdmin(addr string, srv *netsrv.Server) {
	if addr == "" {
		return
	}
	aln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("admin listen: %v", err)
	}
	if ta, ok := aln.Addr().(*net.TCPAddr); ok && !ta.IP.IsLoopback() {
		log.Printf("WARNING: admin endpoint on non-loopback %s is plaintext and unauthenticated; front it with a proxy", aln.Addr())
	}
	log.Printf("admin endpoint on http://%s (/metrics /debug/pprof/ /traces /events)", aln.Addr())
	go func() {
		if err := http.Serve(aln, srv.AdminHandler()); err != nil {
			log.Printf("admin serve: %v", err)
		}
	}()
}

// netConfig validates the admission-control flags into a netsrv.Config.
// Unlike netsrv.Config (where zero means "use the default"), the flags
// default to the concrete values, so a zero or negative here is always an
// operator mistake and is rejected before the listener starts.
func netConfig(maxConns, pipeDepth, maxInflight int) (netsrv.Config, error) {
	if maxConns <= 0 {
		return netsrv.Config{}, fmt.Errorf("-max-connections must be > 0, got %d", maxConns)
	}
	if pipeDepth <= 0 {
		return netsrv.Config{}, fmt.Errorf("-pipeline-depth must be > 0, got %d", pipeDepth)
	}
	if maxInflight <= 0 {
		return netsrv.Config{}, fmt.Errorf("-max-inflight must be > 0, got %d", maxInflight)
	}
	return netsrv.Config{
		MaxConnections: maxConns,
		PipelineDepth:  pipeDepth,
		MaxInflight:    maxInflight,
	}, nil
}
