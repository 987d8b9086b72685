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
//	    the paper's configurations to run. An authenticated -dir needs
//	    -repl-secret: the sealed trusted state on disk can only be unsealed
//	    by the platform key the secret derives, and without one the key is
//	    random per boot. SIGINT/SIGTERM drain the connections and seal a
//	    clean final state before exiting.
//	-shards N
//	    hash-partition the store into N authenticated instances behind the
//	    router; STATS reports aggregate and per-shard (shardN_*) gauges.
//	-commit-window, -iter-chunk-keys, -compaction-workers
//	    engine tuning: group-commit batching delay, keys per streamed SCAN
//	    chunk, maintenance pool size. Every mode runs with an 8 MiB read
//	    buffer.
//	-max-connections, -pipeline-depth, -max-inflight
//	    admission control: concurrent connections, requests in flight per
//	    connection and globally. Excess load is shed with a typed BUSY; the
//	    net_* gauges in STATS sit behind each limit. A follower's tail holds
//	    one in-flight request per shard for life, so -max-inflight must
//	    exceed followers × shards.
//	-repl-secret s
//	    the platform secret: the sealing root that lets a restart unseal
//	    what the last run sealed under -dir, and the attestation root shared
//	    by leader and followers (the stand-in for remote attestation). With
//	    it the server serves checkpoint and tail streams to followers.
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
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

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
		chunkKeys    = flag.Int("iter-chunk-keys", 0, "keys per streamed SCAN chunk (0: default)")
		compWorkers  = flag.Int("compaction-workers", 0, "maintenance worker pool size shared across shards (0: max(2, GOMAXPROCS/2))")
		maxConns     = flag.Int("max-connections", netsrv.DefaultMaxConnections, "max concurrent client connections; further connects are shed with BUSY")
		pipeDepth    = flag.Int("pipeline-depth", netsrv.DefaultPipelineDepth, "max pipelined requests in flight per connection")
		maxInflight  = flag.Int("max-inflight", netsrv.DefaultMaxInflight, "max requests in flight across all connections; excess is shed with BUSY")
		follow       = flag.String("follow", "", "run as a read-only replica of the leader at this address (requires -repl-secret and mode p2)")
		replSecret   = flag.String("repl-secret", "", "platform secret: the sealing root a restart on the same -dir unseals with (required with -dir in mode p2), and the attestation secret binding leader and followers (stands in for remote attestation; required with -follow, lets followers stream checkpoints and tails from this server)")
		adminAddr    = flag.String("admin", "", "observability HTTP listen address (e.g. 127.0.0.1:7879) serving /metrics, /debug/pprof/*, /traces and /events; empty disables. Plaintext and unauthenticated — keep it on localhost or behind a proxy")
		slowOp       = flag.Duration("slow-op-threshold", 0, "end-to-end latency above which a commit group's stage breakdown lands in the slow-op log (0: the 50ms default)")
		traceEvery   = flag.Int("trace-sample-every", 0, "trace every Nth commit group through the pipeline (0: the default 64; 1: every group)")
	)
	flag.Parse()

	opts := elsm.Options{
		Dir:               *dir,
		Shards:            *shards,
		CacheSize:         readBufferBytes,
		GroupCommitWindow: *commitWindow,
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
	case "unsecured":
		opts.Mode = elsm.ModeUnsecured
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	if err := checkSealingRoot(*dir, opts.Mode, *replSecret); err != nil {
		log.Fatal(err)
	}
	if *replSecret != "" {
		opts.Platform = sgx.NewPlatformFromSecret([]byte(*replSecret))
	}
	cfg, err := netConfig(*maxConns, *pipeDepth, *maxInflight)
	if err != nil {
		log.Fatal(err)
	}
	var store *elsm.Store
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
	// From here on every exit path closes the store: Close seals the final
	// trusted state a restart on the same -dir recovers from.
	if err := errors.Join(run(store, *addr, *adminAddr, *follow, cfg), store.Close()); err != nil {
		log.Fatal(err)
	}
}

// readBufferBytes is the read buffer every mode serves with — the size the
// repository benchmark's workloads run (BENCHMARK.json: "8 MiB cache").
const readBufferBytes = 8 << 20

// checkSealingRoot refuses a data directory whose sealed state the next boot
// could not unseal: eLSM-P2 seals its trusted state under a key derived from
// the platform, and without -repl-secret the platform key is random per
// process, so the second start on the same -dir would fail authentication.
func checkSealingRoot(dir string, mode elsm.Mode, secret string) error {
	if dir != "" && mode == elsm.ModeP2 && secret == "" {
		return fmt.Errorf("-dir %s needs -repl-secret: %v seals its trusted state under the platform key, which without a secret is random per boot — a restart on this directory could not unseal it", dir, mode)
	}
	return nil
}

// run listens on addr and serves store until the listener fails or
// SIGINT/SIGTERM arrives. Either way it returns only after the connections
// have drained, so the caller closes a store nothing is using; a signal is a
// clean exit (nil).
func run(store *elsm.Store, addr, adminAddr, follow string, cfg netsrv.Config) error {
	srv, err := netsrv.New(store, cfg)
	if err != nil {
		return fmt.Errorf("server config: %w", err)
	}
	// Registered before the listener exists, so that whoever can reach the
	// server can rely on a signal closing it cleanly.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	role := "leader"
	if store.IsFollower() {
		role = fmt.Sprintf("follower of %s", follow)
	}
	log.Printf("elsm-server (%s, %d shard(s), %s) listening on %s",
		store.Mode(), store.Shards(), role, ln.Addr())
	startAdmin(adminAddr, srv)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err = <-served: // nobody else closes srv: the listener failed
		err = fmt.Errorf("serve: %w", err)
	case sig := <-sigs:
		log.Printf("%v: draining connections and sealing the final state", sig)
	}
	srv.Close() // closes the listener and waits for the handlers
	return err
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
