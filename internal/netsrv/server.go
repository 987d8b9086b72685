// Package netsrv is the production network front end of the eLSM store: a
// TCP server speaking the netproto length-prefixed binary protocol with
// per-connection request pipelining, wired to the engine's admission
// control.
//
// Each connection is served by a small pipeline instead of a
// request-reply loop:
//
//   - a reader goroutine decodes frames and admits writes directly into
//     the shared group-commit pipeline via CommitAsync (which returns as
//     soon as the commit is queued), so writes from independent
//     connections coalesce into shared WAL fsync groups; reads go to a
//     bounded request queue (the per-connection pipeline depth — when
//     either queue fills, the reader stops reading and TCP backpressure
//     reaches the client);
//   - worker goroutines execute the read-side requests against the store;
//   - a single writer goroutine awaits each admitted write's durability
//     and streams responses out in completion order, keyed by request
//     id — responses are out-of-order by design, and verified SCAN
//     results stream as multi-frame chunk sequences.
//
// Admission control sheds load instead of queueing it: a connection cap
// (excess connections are refused with a BUSY frame), a global in-flight
// request budget (requests beyond it draw CodeBusy immediately), and the
// engine's MaxAsyncCommitBacklog backpressure (a write whose commit
// admission does not clear within AdmissionWait draws CodeBusy rather than
// camping on the backlog gate). Slow readers are bounded too: responses
// queue in a bounded per-connection buffer and every socket write carries a
// deadline, so one stalled client tears its own connection down instead of
// pinning SCAN chunk memory for everyone.
//
// Replication rides the same pipeline: a follower's checkpoint and tail
// requests (one connection each, see repl.NetSource) are read-side requests
// whose answer is a stream of opaque chunk frames. A tail occupies its
// worker, its pipeline slot and one in-flight token until either side goes
// away, so MaxInflight must exceed followers × shards.
package netsrv

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"elsm"
	"elsm/internal/netproto"
	"elsm/internal/obs"
	"elsm/internal/record"
	"elsm/internal/repl"
)

// Defaults for the zero Config. Exported so flag defaults and docs quote
// one source of truth.
const (
	DefaultMaxConnections = 1024
	DefaultPipelineDepth  = 64
	DefaultMaxInflight    = 4096
	DefaultResponseBuffer = 64
	DefaultWriteTimeout   = 30 * time.Second
	DefaultAdmissionWait  = 50 * time.Millisecond
)

// connWorkers bounds how many READ-SIDE requests (get/scan/sync/stats) one
// connection executes concurrently (the rest of the pipeline queues).
// Writes never occupy a worker: the reader admits them into the async
// commit pipeline and the writer awaits durability. Small: cross-connection
// parallelism comes from connection count, and per-connection concurrency
// only needs to keep a pipelining client's window moving.
const connWorkers = 4

// Config tunes the front end. The zero value is production-ready; fields
// set to zero resolve to the Default* constants above.
type Config struct {
	// MaxConnections caps concurrent connections. A connection beyond the
	// cap is answered with one BUSY frame and closed — clients see a typed
	// refusal, not a hung dial.
	MaxConnections int
	// PipelineDepth bounds each connection's decoded-but-unanswered
	// requests. When a client pipelines past it, the server stops reading
	// that connection until responses drain (TCP backpressure).
	PipelineDepth int
	// MaxInflight is the global in-flight request budget across all
	// connections. Requests decoded while the budget is exhausted draw
	// CodeBusy immediately instead of queueing.
	MaxInflight int
	// ResponseBuffer bounds each connection's queued response frames. A
	// SCAN against a slow reader blocks its worker here — never the
	// store — until WriteTimeout tears the connection down.
	ResponseBuffer int
	// WriteTimeout bounds every socket write; a client that stops
	// draining its socket loses the connection after at most this long.
	WriteTimeout time.Duration
	// AdmissionWait bounds how long a write may wait on the engine's
	// MaxAsyncCommitBacklog admission gate before the server sheds it
	// with CodeBusy. This is the knob that converts durability-pipeline
	// saturation into load shedding instead of unbounded queueing.
	AdmissionWait time.Duration
}

// validate rejects option values that would silently misbehave, in the
// style of elsm.Options.validate. Zero means "the default"; for these
// knobs no other auto value is meaningful, so negatives are errors.
func (c Config) validate() error {
	if c.MaxConnections < 0 {
		return fmt.Errorf("netsrv: MaxConnections must be ≥ 0 (0 = the default %d), got %d", DefaultMaxConnections, c.MaxConnections)
	}
	if c.PipelineDepth < 0 {
		return fmt.Errorf("netsrv: PipelineDepth must be ≥ 0 (0 = the default %d), got %d", DefaultPipelineDepth, c.PipelineDepth)
	}
	if c.MaxInflight < 0 {
		return fmt.Errorf("netsrv: MaxInflight must be ≥ 0 (0 = the default %d), got %d", DefaultMaxInflight, c.MaxInflight)
	}
	if c.ResponseBuffer < 0 {
		return fmt.Errorf("netsrv: ResponseBuffer must be ≥ 0 (0 = the default %d), got %d", DefaultResponseBuffer, c.ResponseBuffer)
	}
	if c.WriteTimeout < 0 {
		return fmt.Errorf("netsrv: WriteTimeout must be ≥ 0 (0 = the default %v), got %v", DefaultWriteTimeout, c.WriteTimeout)
	}
	if c.AdmissionWait < 0 {
		return fmt.Errorf("netsrv: AdmissionWait must be ≥ 0 (0 = the default %v), got %v", DefaultAdmissionWait, c.AdmissionWait)
	}
	return nil
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.MaxConnections == 0 {
		c.MaxConnections = DefaultMaxConnections
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = DefaultPipelineDepth
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.ResponseBuffer == 0 {
		c.ResponseBuffer = DefaultResponseBuffer
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.AdmissionWait == 0 {
		c.AdmissionWait = DefaultAdmissionWait
	}
	return c
}

// Stats is a point-in-time snapshot of the front end's gauges — the wire
// layer's counterpart of elsm.Stats, exposed as net_* lines by the STATS
// request.
type Stats struct {
	// Connections is the number of connections being served now.
	Connections uint64
	// InflightRequests is the number of admitted requests not yet
	// answered (the consumed share of MaxInflight).
	InflightRequests uint64
	// BusyRejects counts load sheds: refused connections, requests over
	// the in-flight budget, and writes shed on commit-backlog
	// backpressure.
	BusyRejects uint64
	// BytesIn / BytesOut count socket traffic.
	BytesIn  uint64
	BytesOut uint64
	// PipelineDepthHWM is the highest per-connection pipeline depth any
	// connection reached (decoded-but-unanswered requests): how much
	// pipelining clients actually use.
	PipelineDepthHWM uint64
}

// Server serves a store over TCP. Create with New, start with Serve.
type Server struct {
	store *elsm.Store
	cfg   Config
	// obs is the store's observability hub, cached at construction: the
	// NetService histogram and rate-limited BUSY-shed events. Nil when the
	// store runs uninstrumented — every use guards on the pointer.
	obs *obs.Observer

	connSem     chan struct{}
	inflightSem chan struct{}

	conns       atomic.Int64
	inflight    atomic.Int64
	busyRejects atomic.Uint64
	bytesIn     atomic.Uint64
	bytesOut    atomic.Uint64
	depthHWM    atomic.Int64

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	open   map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New builds a server over store. The config is validated: negative knobs
// are rejected with a descriptive error.
func New(store *elsm.Store, cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Server{
		store:       store,
		cfg:         cfg,
		obs:         store.Observer(),
		connSem:     make(chan struct{}, cfg.MaxConnections),
		inflightSem: make(chan struct{}, cfg.MaxInflight),
		lns:         make(map[net.Listener]struct{}),
		open:        make(map[net.Conn]struct{}),
	}, nil
}

// Stats snapshots the front end's gauges.
func (s *Server) Stats() Stats {
	return Stats{
		Connections:      uint64(max64(s.conns.Load(), 0)),
		InflightRequests: uint64(max64(s.inflight.Load(), 0)),
		BusyRejects:      s.busyRejects.Load(),
		BytesIn:          s.bytesIn.Load(),
		BytesOut:         s.bytesOut.Load(),
		PipelineDepthHWM: uint64(max64(s.depthHWM.Load(), 0)),
	}
}

func max64(v, floor int64) int64 {
	if v < floor {
		return floor
	}
	return v
}

// Serve accepts connections on ln until the listener fails or Close is
// called. It blocks; run it in a goroutine to serve several listeners.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("netsrv: server closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// Under mu, so that Close's Wait never runs beside an Add: a
		// connection accepted as the server closes is dropped instead.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes every open connection and waits for the
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for conn := range s.open {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// track registers conn for Close teardown; ok is false after Close.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.open[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.open, conn)
	s.mu.Unlock()
}

// countingConn counts socket traffic into the server's gauges.
type countingConn struct {
	net.Conn
	srv *Server
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.srv.bytesIn.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.srv.bytesOut.Add(uint64(n))
	return n, err
}

// handle serves one accepted connection: admission, then the pipeline.
func (s *Server) handle(nc net.Conn) {
	defer nc.Close()
	// Connection cap: shed with a typed BUSY frame, never queue the
	// accept.
	select {
	case s.connSem <- struct{}{}:
	default:
		s.busyRejects.Add(1)
		s.obs.BusyShed("conn-cap")
		nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		netproto.WriteFrame(nc, uint8(netproto.CodeBusy), 0, nil)
		return
	}
	defer func() { <-s.connSem }()
	if !s.track(nc) {
		return
	}
	defer s.untrack(nc)
	s.conns.Add(1)
	defer s.conns.Add(-1)

	cc := &countingConn{Conn: nc, srv: s}
	s.serve(bufio.NewReaderSize(cc, 8<<10), cc)
}

// respFrame is one encoded response awaiting the writer goroutine.
//
// A frame carrying fut is a durable write admitted by the reader: the
// writer awaits durability and encodes the outcome itself (into a scratch
// buffer it reuses across frames — the write fast path allocates no
// response body). A frame with release set carries a pipeline slot and a
// global in-flight token; the writer returns both once the frame is
// handled.
type respFrame struct {
	typ     uint8
	id      uint64
	body    []byte
	fut     *elsm.CommitFuture
	release bool
}

// conn is one connection's pipeline state.
type conn struct {
	srv    *Server
	ctx    context.Context
	cancel context.CancelFunc
	respCh chan respFrame
	depth  atomic.Int64
	hwm    int64 // reader-goroutine-local high-water mark
}

// respond queues one frame for the writer, returning false if the
// connection is going down.
func (c *conn) respond(f respFrame) bool {
	select {
	case c.respCh <- f:
		return true
	case <-c.ctx.Done():
		return false
	}
}

func errnoOf(err error) netproto.Errno {
	switch {
	case elsm.IsAuthFailure(err):
		return netproto.ErrnoAuth
	case errors.Is(err, elsm.ErrReadOnlyReplica):
		return netproto.ErrnoReadOnly
	case errors.Is(err, repl.ErrBehind):
		return netproto.ErrnoBehind
	default:
		return netproto.ErrnoGeneric
	}
}

func errFrame(id uint64, errno netproto.Errno, msg string) respFrame {
	return respFrame{typ: uint8(netproto.CodeErr), id: id, body: netproto.AppendErr(nil, errno, msg)}
}

// serve runs the reader/workers/writer pipeline over one connection.
func (s *Server) serve(br *bufio.Reader, nc net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &conn{
		srv:    s,
		ctx:    ctx,
		cancel: cancel,
		respCh: make(chan respFrame, s.cfg.ResponseBuffer),
	}
	reqCh := make(chan *netproto.Request, s.cfg.PipelineDepth)

	// Writer: the only goroutine touching the socket's write side. Write
	// deadlines bound every flush; on failure the whole connection is
	// cancelled but the writer keeps draining respCh so workers never
	// block on a dead connection. Frames carrying a commit future are
	// resolved here: the writer awaits durability and encodes the outcome
	// into a scratch buffer reused across frames, so the durable-write
	// fast path allocates nothing per response. Awaiting in queue order is
	// safe — group commit completes futures in admission order, so the
	// head of the queue is never behind a later future.
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		bw := bufio.NewWriterSize(nc, 8<<10)
		var scratch []byte
		dead := false
		flush := func() {
			if dead || bw.Buffered() == 0 {
				return
			}
			if err := bw.Flush(); err != nil {
				dead = true
				cancel()
			}
		}
		for f := range c.respCh {
			if f.fut != nil && !dead {
				ts, err := f.fut.Wait(ctx)
				if err != nil {
					f.typ = uint8(netproto.CodeErr)
					scratch = netproto.AppendErr(scratch[:0], errnoOf(err), err.Error())
				} else {
					f.typ = uint8(netproto.CodeOK)
					scratch = netproto.AppendOK(scratch[:0], ts)
				}
				f.body = scratch
			}
			if !dead {
				nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
				if err := netproto.WriteFrame(bw, f.typ, f.id, f.body); err != nil {
					dead = true
					cancel()
				}
				// Flush when the queue is momentarily empty: batches
				// consecutive completions into one syscall without
				// delaying the last response.
				if len(c.respCh) == 0 {
					flush()
				}
			}
			if f.release {
				c.depth.Add(-1)
				s.inflight.Add(-1)
				<-s.inflightSem
			}
		}
		flush()
	}()

	// Unblock the reader when the connection is cancelled from the write
	// side (or by Server.Close closing the socket).
	stopGuard := context.AfterFunc(ctx, func() { nc.Close() })
	defer stopGuard()

	// Workers: execute decoded read-side requests (writes bypass this
	// stage — see admitWrite); completions release the global in-flight
	// budget and the connection's pipeline slot.
	var workerWG sync.WaitGroup
	for i := 0; i < connWorkers; i++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for req := range reqCh {
				s.execute(c, req)
				c.depth.Add(-1)
				s.inflight.Add(-1)
				<-s.inflightSem
			}
		}()
	}

	// Reader: decode frames into the bounded queue; shed past the global
	// budget; survive recoverable framing faults.
read:
	for {
		typ, id, body, err := netproto.ReadFrame(br, netproto.MaxFrame)
		if err != nil {
			var fe *netproto.FrameError
			if errors.As(err, &fe) {
				if !c.respond(errFrame(fe.ID, netproto.ErrnoFrameTooLarge, fe.Error())) {
					break
				}
				continue
			}
			break // transport error or cancelled: tear down
		}
		req, derr := netproto.DecodeRequest(typ, id, body)
		if derr != nil {
			errno := netproto.ErrnoMalformed
			if !netproto.Op(typ).Known() {
				errno = netproto.ErrnoUnknownOp
			}
			if !c.respond(errFrame(id, errno, derr.Error())) {
				break
			}
			continue
		}
		// Global in-flight budget: shed immediately, never queue past it.
		select {
		case s.inflightSem <- struct{}{}:
		default:
			s.busyRejects.Add(1)
			s.obs.BusyShed("inflight-budget")
			if !c.respond(respFrame{typ: uint8(netproto.CodeBusy), id: id}) {
				// Leave the read loop, not just this select: falling
				// through would admit the request without a budget token.
				break read
			}
			continue
		}
		s.inflight.Add(1)
		if d := c.depth.Add(1); d > c.hwm {
			c.hwm = d
			for {
				cur := s.depthHWM.Load()
				if d <= cur || s.depthHWM.CompareAndSwap(cur, d) {
					break
				}
			}
		}
		switch req.Op {
		case netproto.OpPut, netproto.OpDel, netproto.OpBatch:
			// Write fast path: admission runs here on the reader
			// (CommitAsync returns as soon as the commit is queued) and
			// the writer awaits durability — no worker handoff.
			s.admitWrite(c, req)
		default:
			select {
			case reqCh <- req:
			case <-ctx.Done():
				c.depth.Add(-1)
				s.inflight.Add(-1)
				<-s.inflightSem
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	cancel()
	close(reqCh)
	workerWG.Wait()
	close(c.respCh)
	writerWG.Wait()
}

// execute runs one request against the store and queues its response(s).
// Service time — dispatch to last response queued — lands in the
// NetService histogram (SCAN included: the span covers the whole chunk
// stream).
func (s *Server) execute(c *conn, req *netproto.Request) {
	if req.Op == netproto.OpCheckpoint || req.Op == netproto.OpTail {
		// A replication stream lasts as long as its follower: not a
		// service time.
		s.executeStream(c, req)
		return
	}
	if o := s.obs; o != nil {
		defer func(start time.Time) { o.NetService.ObserveSince(start) }(time.Now())
	}
	id := req.ID
	switch req.Op {
	case netproto.OpPing:
		c.respond(respFrame{typ: uint8(netproto.CodePong), id: id})
	case netproto.OpGet:
		res, err := s.store.GetCtx(c.ctx, req.Key)
		switch {
		case err != nil:
			c.respond(errFrame(id, errnoOf(err), err.Error()))
		case !res.Found:
			c.respond(respFrame{typ: uint8(netproto.CodeNotFound), id: id})
		default:
			c.respond(respFrame{typ: uint8(netproto.CodeValue), id: id, body: netproto.AppendValue(nil, res.Ts, res.Value)})
		}
	case netproto.OpScan:
		s.executeScan(c, req)
	case netproto.OpSync:
		if err := s.store.Sync(c.ctx); err != nil {
			c.respond(errFrame(id, errnoOf(err), err.Error()))
			return
		}
		c.respond(respFrame{typ: uint8(netproto.CodeOK), id: id, body: netproto.AppendOK(nil, 0)})
	case netproto.OpStats:
		c.respond(respFrame{typ: uint8(netproto.CodeStats), id: id, body: netproto.AppendStats(nil, s.statsPairs())})
	case netproto.OpPromote:
		epoch, err := s.store.Promote(c.ctx)
		if err != nil {
			c.respond(errFrame(id, errnoOf(err), err.Error()))
			return
		}
		c.respond(respFrame{typ: uint8(netproto.CodeOK), id: id, body: netproto.AppendOK(nil, epoch)})
	default:
		c.respond(errFrame(id, netproto.ErrnoUnknownOp, fmt.Sprintf("netsrv: unhandled op %d", req.Op)))
	}
}

// admitWrite commits a write through the store's async group-commit
// pipeline and hands the commit future to the writer, which answers once
// it is DURABLE. Because every connection's reader admits while its writer
// awaits a window of futures, independent connections coalesce into shared
// fsync groups. When the engine's async backlog is saturated and admission
// does not clear within AdmissionWait, the write is shed with CodeBusy —
// backpressure becomes load shedding, not unbounded queueing. Every path
// emits exactly one frame with release set, returning the pipeline slot
// and in-flight token at the writer.
func (s *Server) admitWrite(c *conn, req *netproto.Request) {
	// Service time for writes is the admission span (decode to handoff);
	// the durability wait is the commit pipeline's to account, not the
	// front end's.
	if o := s.obs; o != nil {
		defer func(start time.Time) { o.NetService.ObserveSince(start) }(time.Now())
	}
	b := s.store.NewBatch()
	switch req.Op {
	case netproto.OpPut:
		b.Put(req.Key, req.Value)
	case netproto.OpDel:
		b.Delete(req.Key)
	case netproto.OpBatch:
		for _, op := range req.Ops {
			if op.Delete {
				b.Delete(op.Key)
			} else {
				b.Put(op.Key, op.Value)
			}
		}
	}
	actx, acancel := context.WithTimeout(c.ctx, s.cfg.AdmissionWait)
	fut, err := b.CommitAsync(actx)
	// Read before acancel, which would make every failure look like one.
	timedOut := actx.Err() != nil && c.ctx.Err() == nil
	acancel()
	var f respFrame
	switch {
	case err == nil:
		f = respFrame{id: req.ID, fut: fut, release: true}
	case timedOut:
		// The admission gate (MaxAsyncCommitBacklog) stayed full for
		// the whole wait: the durability pipeline is saturated.
		s.busyRejects.Add(1)
		s.obs.BusyShed("admission-wait")
		f = respFrame{typ: uint8(netproto.CodeBusy), id: req.ID, release: true}
	default:
		f = errFrame(req.ID, errnoOf(err), err.Error())
		f.release = true
	}
	if !c.respond(f) {
		// Connection going down: the frame never reached the writer, so
		// return the slot here.
		c.depth.Add(-1)
		s.inflight.Add(-1)
		<-s.inflightSem
	}
}

// Scan chunking: a CodeRows frame closes when it reaches either bound, so
// a huge range streams in bounded memory no matter the row sizes.
const (
	scanChunkRows  = 128
	scanChunkBytes = 128 << 10
)

// executeScan streams one verified range as CodeRows chunks terminated by
// CodeScanEnd (or CodeErr on a verification/transport fault). The stream
// interleaves with other responses on the connection — the client
// reassembles by request id.
func (s *Server) executeScan(c *conn, req *netproto.Request) {
	tsq := req.Tsq
	if tsq == 0 {
		tsq = record.MaxTs
	}
	it := s.store.IterAtCtx(c.ctx, req.Start, req.End, tsq)
	var rows []netproto.Row
	var chunkBytes int
	var total uint64
	flush := func() bool {
		if len(rows) == 0 {
			return true
		}
		ok := c.respond(respFrame{typ: uint8(netproto.CodeRows), id: req.ID, body: netproto.AppendRows(nil, rows)})
		rows = rows[:0]
		chunkBytes = 0
		return ok
	}
	for it.Next() {
		res := it.Result()
		rows = append(rows, netproto.Row{Key: res.Key, Ts: res.Ts, Value: res.Value})
		chunkBytes += len(res.Key) + len(res.Value)
		total++
		if len(rows) >= scanChunkRows || chunkBytes >= scanChunkBytes {
			if !flush() {
				it.Close()
				return
			}
		}
	}
	if err := it.Close(); err != nil {
		// Partial rows may already be on the wire; ERR terminates the
		// stream and the client discards them.
		c.respond(errFrame(req.ID, errnoOf(err), err.Error()))
		return
	}
	if !flush() {
		return
	}
	c.respond(respFrame{typ: uint8(netproto.CodeScanEnd), id: req.ID, body: netproto.AppendOK(nil, total)})
}

// chunkWriter turns a replication stream's writes into CodeChunk frames on
// the connection's response queue. The bounded queue is the flow control: a
// follower that stops draining blocks Write until the writer goroutine's
// WriteTimeout tears the connection down, which fails Write. A write of any
// size — the tail writes a commit group, up to 64 MB, at once — goes out in
// frames of at most streamChunkBytes, far under netproto.MaxFrame, which
// also bounds what the queue can hold.
type chunkWriter struct {
	c  *conn
	id uint64
}

const streamChunkBytes = 256 << 10

func (w chunkWriter) Write(p []byte) (int, error) {
	for sent := 0; sent < len(p); {
		piece := p[sent:min(len(p), sent+streamChunkBytes)]
		// The frame outlives the call and the caller reuses p: copy.
		if !w.c.respond(respFrame{typ: uint8(netproto.CodeChunk), id: w.id, body: append([]byte(nil), piece...)}) {
			return sent, w.c.ctx.Err()
		}
		sent += len(piece)
	}
	return len(p), nil
}

// executeStream serves a follower one shard's checkpoint or tail as
// CodeChunk frames, ended by CodeScanEnd or a typed CodeErr — ErrnoBehind,
// also mid-stream, when the tail's cursor falls out of the leader's
// retained log. A tail lasts until the connection's context ends: the
// follower hung up, a write timed out, or the server is closing. A leader
// hub that closed is a clean end; the follower re-dials and learns then
// whether the leader is gone.
func (s *Server) executeStream(c *conn, req *netproto.Request) {
	if uint64(req.Shard) >= uint64(s.store.Shards()) {
		c.respond(errFrame(req.ID, netproto.ErrnoGeneric, fmt.Sprintf("netsrv: no such shard %d", req.Shard)))
		return
	}
	shard := int(req.Shard)
	w := chunkWriter{c: c, id: req.ID}
	var err error
	if req.Op == netproto.OpCheckpoint {
		err = s.store.ServeCheckpoint(shard, w)
	} else {
		err = s.store.ServeTail(shard, req.Tsq, w, c.ctx.Done())
	}
	if err != nil && !errors.Is(err, repl.ErrLeaderClosed) {
		c.respond(errFrame(req.ID, errnoOf(err), err.Error()))
		return
	}
	c.respond(respFrame{typ: uint8(netproto.CodeScanEnd), id: req.ID, body: netproto.AppendOK(nil, 0)})
}

// statsPairs renders the STATS payload: the store's counters as
// elsm.Stats.Counters declares them, the commit-pipeline histograms, the
// per-shard breakdown (shardN_*, so an operator can see whether load spreads
// or one partition runs hot) and the front end's net_* gauges. The shards
// are collected once: the aggregate is the fold of the breakdown shown.
func (s *Server) statsPairs() []netproto.Stat {
	var pairs []netproto.Stat
	add := func(name string, v uint64) { pairs = append(pairs, netproto.Stat{Name: name, Value: v}) }
	shards := s.store.ShardStats()
	elsm.FoldStats(shards).Counters(false, add)
	pairs = append(pairs, histStatsPairs(s.store)...)
	for i, ss := range shards {
		ss.Counters(true, func(name string, v uint64) { add(fmt.Sprintf("shard%d_%s", i, name), v) })
	}
	s.Stats().counters(add)
	return pairs
}

// counters calls fn with the wire name and value of every front-end gauge.
func (ns Stats) counters(fn func(name string, v uint64)) {
	fn("net_connections", ns.Connections)
	fn("net_inflight_requests", ns.InflightRequests)
	fn("net_busy_rejects", ns.BusyRejects)
	fn("net_bytes_in", ns.BytesIn)
	fn("net_bytes_out", ns.BytesOut)
	fn("net_pipeline_depth_hwm", ns.PipelineDepthHWM)
}

// histStatsPairs folds the store's per-shard latency histograms (the
// canonical obs.Recorder.Hists list — the same one /metrics renders) into
// store-wide count/p50/p99 pairs for STATS. Shards merge bucket-wise before
// the quantile is taken, so the percentile is computed over the union of
// observations, never averaged across shards. Histograms with no
// observations are omitted: an uninstrumented or idle store keeps its STATS
// output unchanged.
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
