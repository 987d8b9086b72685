package repl

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"elsm/internal/core"
	"elsm/internal/lsm"
	"elsm/internal/record"
)

// DefaultRingBytes is the default per-shard retention of the leader's
// in-memory group ring. A follower further behind than this must
// re-bootstrap from a checkpoint.
const DefaultRingBytes = 8 << 20

// HeartbeatInterval paces attested heartbeat frames on tail streams idling
// at the head: they prove the leader is alive (resetting follower-side
// read deadlines) and refresh lag gauges. Package-level so tests can
// tighten it; production followers size their idle timeouts as a multiple.
var HeartbeatInterval = 1 * time.Second

// hubGroup is one retained committed group.
type hubGroup struct {
	recs   []record.Record
	prevTs uint64
	lastTs uint64
	seq    uint64
	bytes  int64
	cum    int64 // cumulative hub bytes through this group
}

// Leader publishes one shard's replication feed: it registers as the
// engine's group sink, retains a bounded ring of recently committed groups
// (contiguous in timestamp space), and serves checkpoint streams and tail
// streams to any number of followers. Lifetime: create after the store is
// open, Close before the store closes.
type Leader struct {
	st       *core.Store
	maxBytes int64
	shard    int // partition this hub serves
	shards   int // total partition count of the leader store

	mu     sync.Mutex
	cond   *sync.Cond
	groups []hubGroup
	ring   int64  // bytes currently retained
	baseTs uint64 // prevTs of groups[0] (== headTs when empty)
	headTs uint64 // lastTs of the newest group
	seq    uint64 // seq of the newest group
	cum    int64  // cumulative bytes published
	closed bool

	followers atomic.Int64
}

// NewLeader attaches a replication hub to an open store. maxRingBytes
// bounds retained group payload (0 = DefaultRingBytes). shard and shards
// name the partition this hub serves within the leader's topology; they
// are bound — attested — into every checkpoint header and group frame so a
// follower can reject a stream spliced from the wrong shard.
func NewLeader(st *core.Store, maxRingBytes int64, shard, shards int) *Leader {
	if maxRingBytes <= 0 {
		maxRingBytes = DefaultRingBytes
	}
	if shards <= 0 {
		shards = 1
	}
	l := &Leader{st: st, maxBytes: maxRingBytes, shard: shard, shards: shards}
	l.cond = sync.NewCond(&l.mu)
	// Install the sink BEFORE reading the frontier: a group committed in
	// between lands in the ring and merely lowers baseTs below the
	// observed frontier, which is harmless; the other order would lose it.
	st.Engine().SetGroupSink(l.onGroup)
	l.mu.Lock()
	if len(l.groups) == 0 && l.headTs == 0 {
		ts := st.Engine().AppliedTs()
		l.baseTs, l.headTs = ts, ts
	}
	l.mu.Unlock()
	return l
}

// ownRecords copies a group's records into one arena. The engine's records
// view the committing callers' key and value slices, which the callers may
// reuse once their commit returns — and the ring outlives the commit: a tail
// stream chains and attests a group's bytes when it serves them.
func ownRecords(recs []record.Record) []record.Record {
	n := 0
	for i := range recs {
		n += len(recs[i].Key) + len(recs[i].Value)
	}
	arena := make([]byte, 0, n)
	out := make([]record.Record, len(recs))
	for i, r := range recs {
		k := len(arena)
		arena = append(arena, r.Key...)
		v := len(arena)
		arena = append(arena, r.Value...)
		out[i] = record.Record{Key: arena[k:v:v], Ts: r.Ts, Kind: r.Kind, Value: arena[v:len(arena):len(arena)]}
	}
	return out
}

// onGroup ingests one committed group from the engine's sync stage
// (single-threaded, commit order), copying what it retains.
func (l *Leader) onGroup(g lsm.ReplicatedGroup) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	recs := ownRecords(g.Recs)
	if len(l.groups) == 0 {
		// (Re-)anchor the empty ring at the group's base.
		l.baseTs = g.PrevTs
		l.headTs = g.PrevTs
	}
	if g.PrevTs != l.headTs {
		// A discontinuity means groups were committed while no sink was
		// installed (cannot happen after NewLeader) — drop the stale tail
		// rather than serve a gapped stream.
		l.groups = l.groups[:0]
		l.ring = 0
		l.baseTs = g.PrevTs
		l.headTs = g.PrevTs
	}
	l.seq++
	l.cum += g.Bytes
	l.groups = append(l.groups, hubGroup{
		recs:   recs,
		prevTs: g.PrevTs,
		lastTs: g.LastTs,
		seq:    l.seq,
		bytes:  g.Bytes,
		cum:    l.cum,
	})
	l.ring += g.Bytes
	l.headTs = g.LastTs
	evict := 0
	for l.ring > l.maxBytes && evict < len(l.groups)-1 {
		l.ring -= l.groups[evict].bytes
		evict++
	}
	if evict > 0 {
		l.baseTs = l.groups[evict-1].lastTs
		l.groups = append(l.groups[:0:0], l.groups[evict:]...)
	}
	l.cond.Broadcast()
}

// Close detaches the hub from the engine and terminates every tail stream
// with ErrLeaderClosed.
func (l *Leader) Close() {
	l.st.Engine().SetGroupSink(nil)
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Followers reports the number of connected tail streams.
func (l *Leader) Followers() int64 { return l.followers.Load() }

// WriteCheckpoint streams the shard's current checkpoint into w. Captured
// while the hub is attached, the checkpoint's frontier is always covered
// by the ring (or by a later checkpoint), so a follower restoring it can
// tail without a gap.
func (l *Leader) WriteCheckpoint(w io.Writer) error {
	return l.st.ExportCheckpoint(w, l.shard, l.shards)
}

// ServeTail streams committed groups with timestamps above fromTs into w,
// blocking at the head for more. While the stream idles at the head it
// emits an attested heartbeat frame every HeartbeatInterval, so a live but
// quiet leader is distinguishable from a dead one. It returns when w fails
// (follower went away), stop closes, the hub closes (ErrLeaderClosed), or
// the cursor falls out of the retained ring (ErrBehind).
func (l *Leader) ServeTail(fromTs uint64, w io.Writer, stop <-chan struct{}) error {
	l.followers.Add(1)
	defer l.followers.Add(-1)

	// Wake the cond loop when the caller abandons the stream, and
	// periodically for heartbeats (sync.Cond has no timed wait).
	done := make(chan struct{})
	defer close(done)
	stopped := false
	if stop != nil {
		go func() {
			select {
			case <-stop:
				l.mu.Lock()
				stopped = true
				l.cond.Broadcast()
				l.mu.Unlock()
			case <-done:
			}
		}()
	}
	ticker := time.NewTicker(HeartbeatInterval)
	defer ticker.Stop()
	go func() {
		for {
			select {
			case <-ticker.C:
				l.cond.Broadcast()
			case <-done:
				return
			}
		}
	}()

	cursor := fromTs
	lastSent := time.Now()
	for {
		l.mu.Lock()
		var g *hubGroup
		for {
			if stopped {
				l.mu.Unlock()
				return nil
			}
			if l.closed {
				l.mu.Unlock()
				return ErrLeaderClosed
			}
			if cursor < l.baseTs {
				l.mu.Unlock()
				return ErrBehind
			}
			if g = l.findLocked(cursor); g != nil {
				break
			}
			if time.Since(lastSent) >= HeartbeatInterval {
				break // idle at the head: heartbeat
			}
			l.cond.Wait()
		}
		frame := groupFrame{
			Shard:         uint32(l.shard),
			Shards:        uint32(l.shards),
			Epoch:         l.st.ReplEpoch(),
			FrontierSeq:   l.seq,
			FrontierTs:    l.headTs,
			FrontierBytes: l.cum,
		}
		if g != nil {
			frame.PrevTs = g.prevTs
			frame.LastTs = g.lastTs
			frame.Seq = g.seq
			frame.Bytes = g.bytes
			frame.CumBytes = g.cum
			frame.Recs = g.recs
		} else {
			frame.Heartbeat = true
			frame.CumBytes = l.cum
		}
		l.mu.Unlock()

		frame.Chain = chainOver(frame.Recs)
		body := encodeFrame(&frame)
		rep := l.st.AttestPayload(body)
		if err := writeFrame(w, body, rep); err != nil {
			return err
		}
		lastSent = time.Now()
		if g != nil {
			cursor = frame.LastTs
		}
	}
}

// findLocked returns the retained group starting exactly at cursor, nil if
// the head has not reached it yet. Caller holds l.mu; cursor >= l.baseTs.
func (l *Leader) findLocked(cursor uint64) *hubGroup {
	// The ring is contiguous and sorted by prevTs: binary search.
	lo, hi := 0, len(l.groups)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.groups[mid].prevTs < cursor {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(l.groups) && l.groups[lo].prevTs == cursor {
		return &l.groups[lo]
	}
	return nil
}
