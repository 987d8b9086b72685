package repl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"elsm/internal/core"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// testCfg is a small-scale P2 config over fs.
func testCfg(fs vfs.FS, platform *sgx.Platform, ctr *sgx.MonotonicCounter) core.Config {
	return core.Config{
		FS:              fs,
		Platform:        platform,
		Counter:         ctr,
		MemtableSize:    4 << 10,
		BlockSize:       512,
		TableFileSize:   4 << 10,
		LevelBase:       16 << 10,
		MaxLevels:       5,
		CounterInterval: 16,
	}
}

// leaderHarness is an open leader store with its hub and source.
type leaderHarness struct {
	st       *core.Store
	hub      *Leader
	src      Source
	platform *sgx.Platform
}

func newLeaderHarness(t *testing.T) *leaderHarness {
	t.Helper()
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Open(testCfg(vfs.NewMem(), platform, sgx.NewMonotonicCounter()))
	if err != nil {
		t.Fatal(err)
	}
	hub := NewLeader(st, 0, 0, 1)
	return &leaderHarness{st: st, hub: hub, src: NewLocalSource([]*Leader{hub}), platform: platform}
}

func (h *leaderHarness) close() {
	h.hub.Close()
	h.st.Close()
}

func (h *leaderHarness) put(t *testing.T, k, v string) {
	t.Helper()
	if _, err := core.Put(h.st, []byte(k), []byte(v)); err != nil {
		t.Fatal(err)
	}
}

// bootstrap restores a follower from the source into fs and opens it.
func bootstrap(t *testing.T, src Source, fs vfs.FS, platform *sgx.Platform, ctr *sgx.MonotonicCounter) *core.Store {
	t.Helper()
	rc, err := src.Checkpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := core.RestoreCheckpoint(rc, core.RestoreConfig{FS: fs, Platform: platform, Counter: ctr, Shard: 0, Shards: 1}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	st, err := core.Open(testCfg(fs, platform, ctr))
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	return st
}

// waitCaughtUp polls until the follower's applied frontier reaches ts.
func waitCaughtUp(t *testing.T, st *core.Store, ts uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for st.Engine().AppliedTs() < ts {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d, want %d", st.Engine().AppliedTs(), ts)
		}
		time.Sleep(time.Millisecond)
	}
}

// expectGet verifies one key reads identically on both stores.
func expectSame(t *testing.T, leader, follower *core.Store, key string) {
	t.Helper()
	lr, err := core.Get(leader, []byte(key))
	if err != nil {
		t.Fatalf("leader get %s: %v", key, err)
	}
	fr, err := core.Get(follower, []byte(key))
	if err != nil {
		t.Fatalf("follower get %s: %v", key, err)
	}
	if lr.Found != fr.Found || !bytes.Equal(lr.Value, fr.Value) || lr.Ts != fr.Ts {
		t.Fatalf("divergence at %s: leader %+v follower %+v", key, lr, fr)
	}
}

// TestTailCatchUp bootstraps a follower from a checkpoint, then streams
// live writes through the tailer and verifies convergence.
func TestTailCatchUp(t *testing.T) {
	h := newLeaderHarness(t)
	defer h.close()
	for i := 0; i < 200; i++ {
		h.put(t, fmt.Sprintf("key-%04d", i), fmt.Sprintf("v1-%d", i))
	}

	fs := vfs.NewMem()
	f := bootstrap(t, h.src, fs, h.platform, sgx.NewMonotonicCounter())
	defer f.Close()
	tailer := StartTailer(f, h.src, 0, 1)
	defer tailer.Close()

	// Live writes after the checkpoint, including overwrites and deletes.
	for i := 0; i < 200; i++ {
		h.put(t, fmt.Sprintf("key-%04d", i), fmt.Sprintf("v2-%d", i))
	}
	for i := 0; i < 200; i += 5 {
		if _, err := core.Delete(h.st, []byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, f, h.st.Engine().AppliedTs())
	if err := tailer.Err(); err != nil {
		t.Fatalf("tailer failed: %v", err)
	}
	for i := 0; i < 200; i++ {
		expectSame(t, h.st, f, fmt.Sprintf("key-%04d", i))
	}
	if g, _ := tailer.Lag(); g != 0 {
		t.Fatalf("lag groups at head: %d", g)
	}
}

// tamperSource corrupts one byte of every tail frame body after the first
// `skip` clean frames.
type tamperSource struct {
	Source
	skip int
}

func (ts *tamperSource) Tail(shard int, fromTs uint64) (io.ReadCloser, error) {
	rc, err := ts.Source.Tail(shard, fromTs)
	if err != nil {
		return nil, err
	}
	pr, pw := io.Pipe()
	go func() {
		defer rc.Close()
		n := 0
		for {
			body, rep, err := readFrame(rc)
			if err != nil {
				pw.CloseWithError(err)
				return
			}
			if n >= ts.skip && len(body) > 40 {
				body[40] ^= 0x01 // flip a record byte
			}
			n++
			if err := writeFrame(pw, body, rep); err != nil {
				return
			}
		}
	}()
	return pr, nil
}

// TestTamperedShipRejectedFailStop: a flipped byte in a shipped group must
// stop the tailer before anything of the frame is applied — no torn
// prefix, no later frames.
func TestTamperedShipRejectedFailStop(t *testing.T) {
	h := newLeaderHarness(t)
	defer h.close()
	h.put(t, "seed", "v")

	fs := vfs.NewMem()
	f := bootstrap(t, h.src, fs, h.platform, sgx.NewMonotonicCounter())
	defer f.Close()
	frontier := f.Engine().AppliedTs()

	tailer := StartTailer(f, &tamperSource{Source: h.src}, 0, 1)
	defer tailer.Close()

	h.put(t, "poisoned", "value")
	deadline := time.Now().Add(5 * time.Second)
	for tailer.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("tailer did not fail stop on tampered frame")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(tailer.Err(), core.ErrAuthFailed) {
		t.Fatalf("tamper error %v does not wrap ErrAuthFailed", tailer.Err())
	}
	// Nothing of the tampered frame may have applied.
	if got := f.Engine().AppliedTs(); got != frontier {
		t.Fatalf("follower advanced to %d past tampered frame (frontier %d)", got, frontier)
	}
	r, err := core.Get(f, []byte("poisoned"))
	if err != nil || r.Found {
		t.Fatalf("tampered record visible: %+v err %v", r, err)
	}
}

// TestTailTooFarBehind: a cursor older than the ring fails with ErrBehind
// (re-bootstrap signal), not silent gaps.
func TestTailTooFarBehind(t *testing.T) {
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Open(testCfg(vfs.NewMem(), platform, sgx.NewMonotonicCounter()))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	hub := NewLeader(st, 1, 0, 1) // 1-byte ring: retains only the newest group
	defer hub.Close()
	for i := 0; i < 50; i++ {
		if _, err := core.Put(st, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	err = hub.ServeTail(0, io.Discard, nil)
	if !errors.Is(err, ErrBehind) {
		t.Fatalf("want ErrBehind, got %v", err)
	}
}

// TestLocalTailerBehindFailStop drives the ErrBehind path through the full
// LocalSource + Tailer stack (not just ServeTail): the pipe delivers the
// serve side's typed error, and the tailer must fail stop with it instead
// of reconnecting forever with a nil Err.
func TestLocalTailerBehindFailStop(t *testing.T) {
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Open(testCfg(vfs.NewMem(), platform, sgx.NewMonotonicCounter()))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	hub := NewLeader(st, 1, 0, 1) // 1-byte ring: retains only the newest group
	defer hub.Close()
	src := NewLocalSource([]*Leader{hub})

	// Checkpoint a follower, then push the ring past its frontier.
	fs := vfs.NewMem()
	f := bootstrap(t, src, fs, platform, sgx.NewMonotonicCounter())
	defer f.Close()
	for i := 0; i < 50; i++ {
		if _, err := core.Put(st, []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	tailer := StartTailer(f, src, 0, 1)
	defer tailer.Close()
	deadline := time.Now().Add(5 * time.Second)
	for tailer.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("tailer never surfaced ErrBehind through the local pipe")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(tailer.Err(), ErrBehind) {
		t.Fatalf("tailer error %v, want ErrBehind", tailer.Err())
	}
}

// TestTailerLeaderClosedExitsClean: when the in-process leader hub shuts
// down, the tailer must exit its run loop cleanly (no reconnect spin, no
// spurious fail-stop) — the follower keeps serving its last verified state.
func TestTailerLeaderClosedExitsClean(t *testing.T) {
	h := newLeaderHarness(t)
	defer h.close()
	h.put(t, "k", "v")

	fs := vfs.NewMem()
	f := bootstrap(t, h.src, fs, h.platform, sgx.NewMonotonicCounter())
	defer f.Close()
	tailer := StartTailer(f, h.src, 0, 1)
	defer tailer.Close()
	waitCaughtUp(t, f, h.st.Engine().AppliedTs())

	h.hub.Close()
	select {
	case <-tailer.done:
	case <-time.After(5 * time.Second):
		t.Fatal("tailer still running after leader close")
	}
	if err := tailer.Err(); err != nil {
		t.Fatalf("leader close marked the tailer failed: %v", err)
	}
}

// TestShardMismatchRejected: a stream whose attested shard identity does
// not match the tailer's (here: a leader declaring a different topology)
// must be rejected fail-stop — the wire-level defense against a transport
// swapping whole shard streams.
func TestShardMismatchRejected(t *testing.T) {
	h := newLeaderHarness(t) // hub attests (shard 0 of 1)
	defer h.close()
	h.put(t, "seed", "v")

	fs := vfs.NewMem()
	f := bootstrap(t, h.src, fs, h.platform, sgx.NewMonotonicCounter())
	defer f.Close()

	// The follower believes it is shard 0 of 2: every (0 of 1) frame is a
	// swap/topology-mismatch and must fail stop before applying.
	frontier := f.Engine().AppliedTs()
	tailer := StartTailer(f, h.src, 0, 2)
	defer tailer.Close()
	h.put(t, "swapped", "value")

	deadline := time.Now().Add(5 * time.Second)
	for tailer.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("tailer did not fail stop on shard mismatch")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(tailer.Err(), ErrShardMismatch) {
		t.Fatalf("error %v, want ErrShardMismatch", tailer.Err())
	}
	if got := f.Engine().AppliedTs(); got != frontier {
		t.Fatalf("follower applied a mismatched-shard frame (frontier %d -> %d)", frontier, got)
	}
}

// TestCrashMidRestore simulates a follower killed mid-checkpoint-restore:
// the truncated import must fail, leave the directory bootstrappable, and
// a clean retry must succeed.
func TestCrashMidRestore(t *testing.T) {
	h := newLeaderHarness(t)
	defer h.close()
	for i := 0; i < 300; i++ {
		h.put(t, fmt.Sprintf("key-%04d", i), fmt.Sprintf("v-%d", i))
	}
	var full bytes.Buffer
	rc, err := h.src.Checkpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(&full, rc); err != nil {
		t.Fatal(err)
	}
	rc.Close()

	fs := vfs.NewMem()
	ctr := sgx.NewMonotonicCounter()
	// Crash points: mid-header, mid-tables, mid-WAL-tail.
	for _, frac := range []int{10, 2, 1} {
		cut := full.Len() - full.Len()/frac
		err := core.RestoreCheckpoint(bytes.NewReader(full.Bytes()[:cut]), core.RestoreConfig{
			FS: fs, Platform: h.platform, Counter: ctr, Shard: 0, Shards: 1,
		})
		if err == nil {
			t.Fatalf("truncated restore (cut %d/%d) succeeded", cut, full.Len())
		}
		if !core.NeedsBootstrap(fs) {
			t.Fatalf("truncated restore left sealed state (cut %d)", cut)
		}
		// Restart path: wipe and retry is always legal on an unseeded dir.
		if err := core.WipeFS(fs); err != nil {
			t.Fatal(err)
		}
	}
	// The retry after the "crash" completes and converges.
	f := bootstrap(t, h.src, fs, h.platform, ctr)
	defer f.Close()
	for i := 0; i < 300; i += 37 {
		expectSame(t, h.st, f, fmt.Sprintf("key-%04d", i))
	}
}

// TestCrashMidTail kills the follower process (abandons the store without
// Close) between applied groups, restarts it from the same directory, and
// verifies the resumed tail re-applies nothing, skips nothing, and
// converges with the leader.
func TestCrashMidTail(t *testing.T) {
	h := newLeaderHarness(t)
	defer h.close()
	for i := 0; i < 100; i++ {
		h.put(t, fmt.Sprintf("key-%04d", i), "v1")
	}

	fs := vfs.NewMem()
	ctr := sgx.NewMonotonicCounter()
	f := bootstrap(t, h.src, fs, h.platform, ctr)
	tailer := StartTailer(f, h.src, 0, 1)

	for i := 0; i < 100; i++ {
		h.put(t, fmt.Sprintf("key-%04d", i), "v2")
	}
	waitCaughtUp(t, f, h.st.Engine().AppliedTs())
	if err := tailer.Err(); err != nil {
		t.Fatal(err)
	}
	crashTs := f.Engine().AppliedTs()

	// Crash: stop shipping, abandon the store without Close (the WAL and
	// the last periodic seal survive; the final in-memory state does not).
	tailer.Close()
	// The store object is dropped un-Closed — a process kill. MemFS state
	// is all that survives. A killed process stops touching its directory
	// and its counter; the abandoned store's background flushes and
	// compactions would not, so let them finish before the restart reads
	// the same files.
	if err := f.Engine().WaitMaintenance(); err != nil {
		t.Fatal(err)
	}

	// Restart from the same directory with the same roots of trust.
	f2, err := core.Open(testCfg(fs, h.platform, ctr))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer f2.Close()
	// Recovery must land exactly on the durable frontier: nothing lost
	// (every applied group was fsynced), nothing invented.
	if got := f2.Engine().AppliedTs(); got != crashTs {
		t.Fatalf("recovered frontier %d, want %d", got, crashTs)
	}

	// Resume tailing; new leader writes must flow, old ones must not
	// re-apply (contiguity would reject them).
	tailer2 := StartTailer(f2, h.src, 0, 1)
	defer tailer2.Close()
	for i := 0; i < 50; i++ {
		h.put(t, fmt.Sprintf("key-%04d", i), "v3")
	}
	waitCaughtUp(t, f2, h.st.Engine().AppliedTs())
	if err := tailer2.Err(); err != nil {
		t.Fatalf("resumed tailer failed: %v", err)
	}
	for i := 0; i < 100; i++ {
		expectSame(t, h.st, f2, fmt.Sprintf("key-%04d", i))
	}
}
