package repl

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"elsm/internal/core"
	"elsm/internal/obs"
)

// Reconnect pacing: jittered exponential backoff between transport
// attempts. Package-level so tests can tighten them; the jitter (±50%)
// keeps a fleet of followers from thundering back onto a restarted leader
// in lockstep.
var (
	backoffMin = 50 * time.Millisecond
	backoffMax = 2 * time.Second
)

// Tailer drives one shard's follower side: it tails the source from the
// store's applied frontier, verifies every frame (attestation report,
// shard identity, replication epoch, WAL hash chain, timestamp contiguity)
// and applies it through the store's replication pipeline. Transport
// failures reconnect with jittered exponential backoff and resume from the
// durable frontier; the leader hub closing ends the tail cleanly;
// verification failures, ErrFenced and ErrBehind fail stop — Err() reports
// the reason, Done() closes, and the tailer stays down until its owner
// reacts (elsm re-bootstraps ErrBehind followers automatically).
type Tailer struct {
	st     *core.Store
	src    Source
	shard  int
	shards int // follower topology: frames from another are rejected

	lagGroups  atomic.Uint64
	lagBytes   atomic.Uint64
	reconnects atomic.Uint64 // transport re-dials after the first attempt

	mu     sync.Mutex
	rc     io.ReadCloser
	failed error

	stop chan struct{}
	done chan struct{}
}

// StartTailer begins tailing src for shard into st. shards is the
// follower's total partition count; every shipped frame must attest the
// same (shard, shards) pair or the tailer fails stop (a transport serving
// the wrong shard's stream, or a leader with a different partition count).
func StartTailer(st *core.Store, src Source, shard, shards int) *Tailer {
	if shards <= 0 {
		shards = 1
	}
	t := &Tailer{
		st:     st,
		src:    src,
		shard:  shard,
		shards: shards,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go t.run()
	return t
}

// Close stops the tailer and waits for it to exit.
func (t *Tailer) Close() {
	t.mu.Lock()
	select {
	case <-t.stop:
	default:
		close(t.stop)
	}
	if t.rc != nil {
		t.rc.Close()
	}
	t.mu.Unlock()
	<-t.done
}

// Done closes when the tailer has exited — cleanly (Close, leader
// shutdown) or failed-stop (Err non-nil). Owners watch it to react to
// ErrBehind with a re-bootstrap.
func (t *Tailer) Done() <-chan struct{} { return t.done }

// Err reports the fail-stop reason, nil while healthy (transport blips
// that reconnect do not count).
func (t *Tailer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failed
}

// Lag reports the replication lag observed at the last applied frame:
// groups behind the leader's head and payload bytes behind. Heartbeats
// from a leader idling at the head reset both to zero.
func (t *Tailer) Lag() (groups, bytes uint64) {
	return t.lagGroups.Load(), t.lagBytes.Load()
}

// Reconnects reports how many times the tailer re-dialed its source after
// a transport failure or clean stream end.
func (t *Tailer) Reconnects() uint64 { return t.reconnects.Load() }

// stopping reports whether Close was requested.
func (t *Tailer) stopping() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

// fail records the fail-stop reason and files it in the event log,
// classified so /events consumers can tell a fenced zombie stream from a
// fell-behind follower without parsing messages.
func (t *Tailer) fail(err error) {
	t.mu.Lock()
	fresh := t.failed == nil
	if fresh {
		t.failed = err
	}
	t.mu.Unlock()
	if !fresh {
		return
	}
	kind := obs.EventFailStop
	switch {
	case errors.Is(err, ErrFenced):
		kind = obs.EventFenced
	case errors.Is(err, ErrBehind):
		kind = obs.EventBehind
	}
	t.st.Recorder().Event(kind, "tailer shard %d failed stop: %v", t.shard, err)
}

// sleepBackoff waits the attempt-th backoff delay (exponential from
// backoffMin, capped at backoffMax, ±50% jitter). False when Close
// interrupted the wait.
func (t *Tailer) sleepBackoff(attempt int) bool {
	d := backoffMax
	if attempt < 16 {
		if b := backoffMin << uint(attempt); b < backoffMax {
			d = b
		}
	}
	d = time.Duration(float64(d) * (0.5 + rand.Float64()))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-t.stop:
		return false
	case <-timer.C:
		return true
	}
}

func (t *Tailer) run() {
	defer close(t.done)
	attempt := 0
	first := true
	for !t.stopping() {
		if !first {
			t.reconnects.Add(1)
			t.st.Recorder().Event(obs.EventReconnect,
				"tailer shard %d re-dialing source (attempt %d)", t.shard, attempt)
			if !t.sleepBackoff(attempt) {
				return
			}
		}
		first = false
		rc, err := t.src.Tail(t.shard, t.st.Engine().AppliedTs())
		if err != nil {
			if errors.Is(err, ErrBehind) {
				t.fail(err)
				return
			}
			if t.stopping() {
				return
			}
			attempt++
			continue
		}
		t.mu.Lock()
		if t.stoppedLocked() {
			t.mu.Unlock()
			rc.Close()
			return
		}
		t.rc = rc
		t.mu.Unlock()

		frames, err := t.consume(rc)
		t.mu.Lock()
		t.rc = nil
		t.mu.Unlock()
		rc.Close()
		if errors.Is(err, ErrLeaderClosed) {
			// The hub shut down for good (in-process leader Close): exit
			// cleanly instead of reconnecting forever. Err() stays nil —
			// the follower keeps serving its last verified state.
			return
		}
		if err != nil {
			// Verification or apply failure (ErrFenced, ErrForged, ...),
			// or ErrBehind / an epoch ahead of ours: fail stop. The owner
			// decides whether a re-bootstrap can recover it.
			t.fail(err)
			return
		}
		// Clean transport end (leader restart, connection drop):
		// reconnect from the new applied frontier. Any verified frame —
		// heartbeats included — proves the link was healthy and resets
		// the backoff.
		if frames > 0 {
			attempt = 0
		} else {
			attempt++
		}
	}
}

func (t *Tailer) stoppedLocked() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

// consume verifies and applies frames until the stream ends, returning how
// many frames (groups and heartbeats) it verified. A non-nil error is a
// FAIL-STOP condition (run treats ErrLeaderClosed as a clean exit
// instead); transport ends return nil.
func (t *Tailer) consume(r io.Reader) (int, error) {
	frames := 0
	for {
		body, rep, err := readFrame(r)
		if err != nil {
			// Typed stream terminations (LocalSource delivers the serve
			// side's error through the pipe, NetSource through the wire's
			// error frame) must surface, not reconnect: ErrBehind is the
			// re-bootstrap signal, ErrLeaderClosed ends the tail for good.
			if errors.Is(err, ErrBehind) || errors.Is(err, ErrLeaderClosed) {
				return frames, err
			}
			if t.stopping() || err == io.EOF {
				return frames, nil
			}
			// A malformed length is indistinguishable from a cut stream
			// mid-frame; both reconnect (the next frames re-ship from the
			// durable frontier and re-verify). A timed-out read lands here
			// too: the leader missed enough heartbeats to presume it hung.
			return frames, nil
		}
		// 1. The frame must be attested by the shared enclave identity.
		if err := t.st.VerifyPeerPayload(rep, body); err != nil {
			return frames, fmt.Errorf("repl: shipped group rejected: %w", err)
		}
		frame, err := decodeFrame(body)
		if err != nil {
			return frames, fmt.Errorf("repl: shipped group rejected: %w", err)
		}
		// 2. The attested shard identity must match this tailer's: a
		// transport splicing another shard's (individually valid) stream
		// in, or a leader partitioned differently, is a swap attack.
		if int(frame.Shard) != t.shard || int(frame.Shards) != t.shards {
			return frames, fmt.Errorf("%w: frame is for shard %d of %d, tailing shard %d of %d",
				ErrShardMismatch, frame.Shard, frame.Shards, t.shard, t.shards)
		}
		// 3. The attested epoch must match the follower's sealed one. An
		// OLDER epoch is a zombie leader fenced out by a promotion this
		// follower already adopted — fail stop, never apply. A NEWER
		// epoch means a promotion happened that this follower missed; its
		// history may have forked at the old head, so only a fresh
		// checkpoint re-bootstrap can re-join it.
		epoch := t.st.ReplEpoch()
		if frame.Epoch < epoch {
			return frames, fmt.Errorf("%w: frame epoch %d, follower sealed epoch %d",
				ErrFenced, frame.Epoch, epoch)
		}
		if frame.Epoch > epoch {
			return frames, fmt.Errorf("%w: leader moved to epoch %d, follower sealed epoch %d",
				ErrBehind, frame.Epoch, epoch)
		}
		if frame.Heartbeat {
			// The leader only heartbeats a stream idling AT its head: we
			// are caught up. Liveness proven, lag zero.
			frames++
			t.lagGroups.Store(0)
			t.lagBytes.Store(0)
			continue
		}
		// 4. The records must reproduce the declared hash chain.
		if chainOver(frame.Recs) != frame.Chain {
			return frames, fmt.Errorf("repl: shipped group rejected: %w", core.ErrForged)
		}
		// 5. The group must extend the applied frontier exactly.
		applied := t.st.Engine().AppliedTs()
		if frame.PrevTs != applied || frame.LastTs != applied+uint64(len(frame.Recs)) {
			return frames, fmt.Errorf("%w: frame covers (%d,%d], frontier %d",
				ErrShipGap, frame.PrevTs, frame.LastTs, applied)
		}
		if err := t.st.ApplyReplicated(frame.Recs); err != nil {
			return frames, fmt.Errorf("repl: apply shipped group: %w", err)
		}
		frames++
		t.lagGroups.Store(frame.FrontierSeq - frame.Seq)
		t.lagBytes.Store(uint64(frame.FrontierBytes - frame.CumBytes))
	}
}
