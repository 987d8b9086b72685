package elsm_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"elsm"
	"elsm/internal/lsm"
	"elsm/internal/netsrv"
	"elsm/internal/repl"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// sourceOpener makes leader reachable and returns the follower's way to it.
type sourceOpener = func(t *testing.T, leader *elsm.Store) elsm.FollowerSource

// sources are the two ways a follower reaches its leader, held to one
// contract: the leader's in-process hubs, and the leader's netsrv front end
// on a loopback port. A network source's server closes with the test.
var sources = []struct {
	name string
	open sourceOpener
}{
	{"local", func(t *testing.T, leader *elsm.Store) elsm.FollowerSource {
		src, err := leader.ReplicationSource()
		if err != nil {
			t.Fatal(err)
		}
		return src
	}},
	{"net", func(t *testing.T, leader *elsm.Store) elsm.FollowerSource {
		srv, err := netsrv.New(leader, netsrv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		return elsm.NewFollowerSource(ln.Addr().String())
	}},
}

// overSources runs test once per source.
func overSources(t *testing.T, test func(t *testing.T, open sourceOpener)) {
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) { test(t, src.open) })
	}
}

// replicaOpts builds small-scale leader/follower options over a shared
// attestation secret.
func replicaOpts(shards int, secret string) elsm.Options {
	return elsm.Options{
		Mode:     elsm.ModeP2,
		Shards:   shards,
		Platform: sgx.NewPlatformFromSecret([]byte(secret)),
	}.WithGeometry(lsm.Geometry{MemtableSize: 8 << 10, BlockSize: 512})
}

// scanAll returns the store's full verified scan.
func scanAll(t *testing.T, s *elsm.Store) []elsm.Result {
	t.Helper()
	res, err := s.Scan([]byte("a"), []byte("z"))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return res
}

// sameResults compares two verified scans byte for byte.
func sameResults(a, b []elsm.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) ||
			a[i].Ts != b[i].Ts || a[i].Found != b[i].Found {
			return false
		}
	}
	return true
}

// waitConverged polls until the follower's verified scan is byte-identical
// to the leader's, returning the converged scan.
func waitConverged(t *testing.T, leader, follower *elsm.Store) []elsm.Result {
	t.Helper()
	want := scanAll(t, leader)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := follower.ReplicationErr(); err != nil {
			t.Fatalf("replication failed: %v", err)
		}
		// A read racing an automatic re-bootstrap's engine swap sees the old
		// engine's closed error for a moment (rebootstrapLocked): retry.
		got, err := follower.Scan([]byte("a"), []byte("z"))
		if err != nil && !errors.Is(err, lsm.ErrClosed) {
			t.Fatalf("scan: %v", err)
		}
		if err == nil && sameResults(want, got) {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: leader %d results, follower %d", len(want), len(got))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// testFollowerOracle is the replication oracle: a follower bootstrapped
// from a checkpoint and then tailed must answer every verified Get and
// Scan byte-identically to the leader — same keys, same values, same
// trusted timestamps.
func testFollowerOracle(t *testing.T, shards int, open sourceOpener) {
	secret := "oracle-secret"
	leader, err := elsm.Open(replicaOpts(shards, secret))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()

	put := func(k, v string) {
		t.Helper()
		if _, err := leader.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		put(fmt.Sprintf("key-%04d", i), fmt.Sprintf("v1-%d", i))
	}

	follower, err := elsm.OpenFollower(replicaOpts(shards, secret), open(t, leader))
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	defer follower.Close()
	if !follower.IsFollower() {
		t.Fatal("follower does not report IsFollower")
	}

	// Live writes after bootstrap: overwrites, deletes, fresh keys, and a
	// cross-shard batch.
	for i := 0; i < 300; i += 2 {
		put(fmt.Sprintf("key-%04d", i), fmt.Sprintf("v2-%d", i))
	}
	for i := 0; i < 300; i += 7 {
		if _, err := leader.Delete([]byte(fmt.Sprintf("key-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	b := leader.NewBatch()
	for i := 0; i < 50; i++ {
		b.Put([]byte(fmt.Sprintf("batch-%04d", i)), []byte("bv"))
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	got := waitConverged(t, leader, follower)
	if len(got) == 0 {
		t.Fatal("converged on an empty scan")
	}
	// Point reads spot-check the same oracle.
	for i := 0; i < 300; i += 13 {
		key := []byte(fmt.Sprintf("key-%04d", i))
		lr, err := leader.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := follower.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if lr.Found != fr.Found || !bytes.Equal(lr.Value, fr.Value) || lr.Ts != fr.Ts {
			t.Fatalf("get divergence at %s: leader %+v follower %+v", key, lr, fr)
		}
	}

	// Replication gauges are visible on both sides.
	if fc := leader.Stats().FollowersConnected; fc < uint64(shards) {
		t.Fatalf("leader reports %d connected follower streams, want >= %d", fc, shards)
	}
	// The tailer records a frame's lag once its apply has returned, a
	// moment after the group became readable.
	for deadline := time.Now().Add(5 * time.Second); follower.Stats().ReplLagGroups != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("converged follower reports lag %d groups", follower.Stats().ReplLagGroups)
		}
	}

	// Writes are rejected with the typed error on every write surface.
	if _, err := follower.Put([]byte("w"), []byte("v")); !errors.Is(err, elsm.ErrReadOnlyReplica) {
		t.Fatalf("follower Put: %v, want ErrReadOnlyReplica", err)
	}
	if _, err := follower.Delete([]byte("w")); !errors.Is(err, elsm.ErrReadOnlyReplica) {
		t.Fatalf("follower Delete: %v, want ErrReadOnlyReplica", err)
	}
	fb := follower.NewBatch()
	fb.Put([]byte("w"), []byte("v"))
	if _, err := fb.Commit(); !errors.Is(err, elsm.ErrReadOnlyReplica) {
		t.Fatalf("follower batch Commit: %v, want ErrReadOnlyReplica", err)
	}
	fb2 := follower.NewBatch()
	fb2.Put([]byte("w"), []byte("v"))
	if _, err := fb2.CommitAsync(nil); !errors.Is(err, elsm.ErrReadOnlyReplica) {
		t.Fatalf("follower CommitAsync: %v, want ErrReadOnlyReplica", err)
	}
	// The rejected writes never reached the replica.
	if r, err := follower.Get([]byte("w")); err != nil || r.Found {
		t.Fatalf("rejected write visible on follower: %+v err %v", r, err)
	}
}

func TestFollowerOracle(t *testing.T) {
	overSources(t, func(t *testing.T, open sourceOpener) {
		testFollowerOracle(t, 1, open)
	})
}

func TestFollowerOracleSharded(t *testing.T) {
	overSources(t, func(t *testing.T, open sourceOpener) {
		testFollowerOracle(t, 4, open)
	})
}

// TestFollowerShardCountMismatchRejected: a follower configured with a
// partition count different from the leader's must fail bootstrap with an
// error (the checkpoint header attests the leader's topology), not come up
// as a silently incomplete replica.
func TestFollowerShardCountMismatchRejected(t *testing.T) {
	secret := "topology-secret"
	leader, err := elsm.Open(replicaOpts(4, secret))
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
	if _, err := elsm.OpenFollower(replicaOpts(2, secret), src); !elsm.IsAuthFailure(err) {
		t.Fatalf("follower with 2 shards of a 4-shard leader: %v, want auth failure", err)
	}
}

// TestFollowerWrongSecretRejected: a follower whose platform does not share
// the leader's attestation root must fail bootstrap, not serve bad data.
func TestFollowerWrongSecretRejected(t *testing.T) {
	leader, err := elsm.Open(replicaOpts(1, "leader-secret"))
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
	if _, err := elsm.OpenFollower(replicaOpts(1, "other-secret"), src); !elsm.IsAuthFailure(err) {
		t.Fatalf("mismatched platform bootstrap: %v, want auth failure", err)
	}
}

// testPromotionUnderLoad is the failover oracle: concurrent writers load
// the leader while a follower tails; once the follower converges the
// leader is killed abruptly and the follower promoted. Every write the
// leader acknowledged as durable (and shipped) must read back
// byte-identical on the promoted store, the promoted store must accept
// writes, and a revived zombie leader's old-epoch frames must be rejected
// with repl.ErrFenced.
func testPromotionUnderLoad(t *testing.T, shards int, open sourceOpener) {
	secret := "failover-secret"
	leaderOpts := replicaOpts(shards, secret)
	leaderFS := vfs.NewMem() // kept so the dead leader can be revived as a zombie
	leaderOpts.FS = leaderFS
	leader, err := elsm.Open(leaderOpts)
	if err != nil {
		t.Fatal(err)
	}
	closeLeader := sync.OnceFunc(func() { leader.Close() })
	defer closeLeader()

	follower, err := elsm.OpenFollower(replicaOpts(shards, secret), open(t, leader))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	// Load phase: concurrent writers hammer the leader while the follower
	// tails. Acks are recorded only for writes the leader confirmed
	// durable.
	var ackMu sync.Mutex
	acked := make(map[string]string)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				k := fmt.Sprintf("load-%d-%04d", w, i)
				v := fmt.Sprintf("val-%d-%04d", w, i)
				if _, err := leader.Put([]byte(k), []byte(v)); err != nil {
					return
				}
				ackMu.Lock()
				acked[k] = v
				ackMu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Converge, then kill the leader abruptly: replication is
	// asynchronous, so the oracle covers acked-durable writes the stream
	// shipped — after convergence, that is all of them.
	waitConverged(t, leader, follower)
	closeLeader()

	epoch, err := follower.Promote(context.Background())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if epoch == 0 {
		t.Fatal("promotion did not advance the epoch")
	}
	if follower.IsFollower() {
		t.Fatal("promoted store still reports IsFollower")
	}
	if got := follower.Stats().ReplEpoch; got != epoch {
		t.Fatalf("Stats().ReplEpoch = %d, want %d", got, epoch)
	}

	// Every acked write reads back byte-identical on the promoted store.
	for k, v := range acked {
		res, err := follower.Get([]byte(k))
		if err != nil {
			t.Fatalf("promoted read %q: %v", k, err)
		}
		if !res.Found || !bytes.Equal(res.Value, []byte(v)) {
			t.Fatalf("acked write %q lost or mutated after failover: %+v", k, res)
		}
	}

	// The promoted store is writable again.
	if _, err := follower.Put([]byte("post-failover"), []byte("ok")); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if res, err := follower.Get([]byte("post-failover")); err != nil || !res.Found {
		t.Fatalf("write after promotion not readable: %+v err %v", res, err)
	}

	// Fencing: revive the dead leader from its own disk (epoch 0) and
	// replay its stream at the promoted store. Every frame — including
	// idle heartbeats — carries the attested epoch, so the promoted
	// store's tailer must fail stop with ErrFenced, not regress.
	oldHB := repl.HeartbeatInterval
	repl.HeartbeatInterval = 20 * time.Millisecond
	defer func() { repl.HeartbeatInterval = oldHB }()
	zombieOpts := replicaOpts(shards, secret)
	zombieOpts.FS = leaderFS
	zombie, err := elsm.Open(zombieOpts)
	if err != nil {
		t.Fatalf("revive zombie leader: %v", err)
	}
	defer zombie.Close()
	if _, err := zombie.Put([]byte("zombie-write"), []byte("stale")); err != nil {
		t.Fatal(err)
	}
	cores, _ := follower.LoadedSet()
	tl := repl.StartTailer(cores[0], open(t, zombie), 0, len(cores))
	defer tl.Close()
	select {
	case <-tl.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("tailer on zombie leader never failed stop")
	}
	if err := tl.Err(); !errors.Is(err, repl.ErrFenced) {
		t.Fatalf("old-epoch replay: %v, want repl.ErrFenced", err)
	}
	// The zombie's stale write never reached the promoted store.
	if res, err := follower.Get([]byte("zombie-write")); err != nil || res.Found {
		t.Fatalf("stale old-epoch write visible after fencing: %+v err %v", res, err)
	}
}

func TestPromotionUnderLoad(t *testing.T) {
	overSources(t, func(t *testing.T, open sourceOpener) {
		testPromotionUnderLoad(t, 1, open)
	})
}

func TestPromotionUnderLoadSharded(t *testing.T) {
	overSources(t, func(t *testing.T, open sourceOpener) {
		testPromotionUnderLoad(t, 4, open)
	})
}

// TestFollowerAutoRebootstrap: a follower whose frontier falls out of the
// leader's retained ring while it is down must re-bootstrap from a fresh
// checkpoint automatically on reopen (repl.ErrBehind is recoverable), then
// converge — surfacing the recovery in Stats().ReplRebootstraps instead of
// an error.
func TestFollowerAutoRebootstrap(t *testing.T) {
	overSources(t, testFollowerAutoRebootstrap)
}

func testFollowerAutoRebootstrap(t *testing.T, open sourceOpener) {
	secret := "rebootstrap-secret"
	leaderOpts := replicaOpts(1, secret)
	leaderOpts.ReplRingBytes = 4096 // a tiny ring: a burst of groups evicts it
	leader, err := elsm.Open(leaderOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if _, err := leader.Put([]byte("seed"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	src := open(t, leader)

	fopts := replicaOpts(1, secret)
	fopts.FS = vfs.NewMem()
	fopts.ShardCounters = []*sgx.MonotonicCounter{sgx.NewMonotonicCounter()}
	follower, err := elsm.OpenFollower(fopts, src)
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, leader, follower)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// While the follower is down, push the leader far past the tiny ring.
	val := bytes.Repeat([]byte("x"), 512)
	for i := 0; i < 200; i++ {
		if _, err := leader.Put([]byte(fmt.Sprintf("gap-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen on the stale directory: the tail starts behind the ring, the
	// tailer fails stop with ErrBehind, and the supervisor re-bootstraps
	// from a fresh checkpoint without surfacing an error.
	follower, err = elsm.OpenFollower(fopts, src)
	if err != nil {
		t.Fatalf("reopen stale follower: %v", err)
	}
	defer follower.Close()
	waitConverged(t, leader, follower)
	if n := follower.Stats().ReplRebootstraps; n < 1 {
		t.Fatalf("ReplRebootstraps = %d, want >= 1", n)
	}
	if err := follower.ReplicationErr(); err != nil {
		t.Fatalf("ReplicationErr after recovered re-bootstrap: %v", err)
	}
}

// cutSource is a follower source the test can partition: going down closes
// every open tail stream and fails new ones until it comes back.
type cutSource struct {
	elsm.FollowerSource
	mu   sync.Mutex
	down bool
	open []io.Closer
}

func (c *cutSource) Tail(shard int, fromTs uint64) (io.ReadCloser, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return nil, errors.New("cutSource: partitioned")
	}
	rc, err := c.FollowerSource.Tail(shard, fromTs)
	if err == nil {
		c.open = append(c.open, rc)
	}
	return rc, err
}

func (c *cutSource) partition(down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.down = down
	for _, rc := range c.open {
		rc.Close()
	}
	c.open = nil
}

// TestRebootstrapUnderReaders pins the engine swap: while a live follower
// re-bootstraps again and again (partitioned from its leader until the ring
// has moved past it), concurrent readers see the old engines' closed error
// or the new engines' verified data — never another error, never a wrong
// value — and every load of the shard set is whole: its recorders are the
// ones its engines observe into. Run under -race, it is also the check that
// nothing reads the set except through the one pointer.
func TestRebootstrapUnderReaders(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testRebootstrapUnderReaders(t, shards) })
	}
}

func testRebootstrapUnderReaders(t *testing.T, shards int) {
	secret := "swap-secret"
	leaderOpts := replicaOpts(shards, secret)
	leaderOpts.ReplRingBytes = 4096
	leader, err := elsm.Open(leaderOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	const seeds = 16 // enough keys to land on every shard
	for i := 0; i < seeds; i++ {
		if _, err := leader.Put([]byte(fmt.Sprintf("seed-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	inner, err := leader.ReplicationSource()
	if err != nil {
		t.Fatal(err)
	}
	src := &cutSource{FollowerSource: inner}
	follower, err := elsm.OpenFollower(replicaOpts(shards, secret), src)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitConverged(t, leader, follower)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cores, recs := follower.LoadedSet()
				if len(cores) != shards || len(recs) != shards {
					t.Errorf("loaded a set of %d engines and %d recorders, want %d of each", len(cores), len(recs), shards)
					return
				}
				for sh := range cores {
					if cores[sh].Recorder() != recs[sh] {
						t.Errorf("torn set: shard %d's engine does not observe into the set's recorder", sh)
						return
					}
				}
				res, err := follower.Get([]byte(fmt.Sprintf("seed-%02d", i%seeds)))
				switch {
				case errors.Is(err, lsm.ErrClosed): // the engine this read borrowed was swapped out
				case err != nil:
					t.Errorf("read across the swap: %v", err)
					return
				case !res.Found || string(res.Value) != "v":
					t.Errorf("read across the swap returned %+v", res)
					return
				}
				if i%16 == 0 {
					follower.Stats()
					follower.Recorders()
				}
			}
		}(r)
	}

	val := bytes.Repeat([]byte("x"), 512)
	for round := 1; round <= 3; round++ {
		src.partition(true)
		for i := 0; i < 200; i++ { // far past every shard's ring
			if _, err := leader.Put([]byte(fmt.Sprintf("gap-%d-%04d", round, i)), val); err != nil {
				t.Fatal(err)
			}
		}
		src.partition(false)
		for deadline := time.Now().Add(20 * time.Second); follower.Stats().ReplRebootstraps < uint64(round); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: follower never re-bootstrapped (ReplicationErr: %v)", round, follower.ReplicationErr())
			}
		}
	}
	close(stop)
	readers.Wait()
	waitConverged(t, leader, follower)
	if err := follower.ReplicationErr(); err != nil {
		t.Fatalf("ReplicationErr after recovered re-bootstraps: %v", err)
	}
}

// savedCheckpoints is a follower source whose checkpoints were captured
// earlier; the tail is the leader's live one.
type savedCheckpoints struct {
	elsm.FollowerSource
	ckpts [][]byte
}

func (s savedCheckpoints) Checkpoint(shard int) (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(s.ckpts[shard])), nil
}

// testReplicatedGroupsOwnTheirBytes pins the leader hub's ownership of what
// it retains: Store.Put does not copy its arguments, so a caller may reuse
// its key and value buffers once Put returns — while the hub's ring serves
// (chains and attests) the group to followers arbitrarily later. A follower
// must receive what was written, never what the buffers hold by then.
func testReplicatedGroupsOwnTheirBytes(t *testing.T, shards int) {
	secret := "own-bytes-secret"
	leader, err := elsm.Open(replicaOpts(shards, secret))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	src, err := leader.ReplicationSource()
	if err != nil {
		t.Fatal(err)
	}
	saved := savedCheckpoints{FollowerSource: src}
	for i := 0; i < shards; i++ {
		rc, err := src.Checkpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		ckpt, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		saved.ckpts = append(saved.ckpts, ckpt)
	}

	// Every group below reaches the follower through the ring alone. The
	// last key's and value's buffers are scribbled on after their Put
	// returned and before any tail stream has served them.
	var key, val []byte
	for i := 0; i < 50; i++ {
		key, val = []byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%04d", i))
		if _, err := leader.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := range key {
		key[i], val[i] = 'x', 'x'
	}

	follower, err := elsm.OpenFollower(replicaOpts(shards, secret), saved)
	if err != nil {
		t.Fatalf("open follower: %v", err)
	}
	defer follower.Close()
	deadline := time.Now().Add(10 * time.Second)
	for len(scanAll(t, follower)) < 50 && follower.ReplicationErr() == nil && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := follower.ReplicationErr(); err != nil {
		t.Fatalf("replication failed: %v", err)
	}
	for _, r := range scanAll(t, follower) {
		if !bytes.HasPrefix(r.Key, []byte("key-")) || !bytes.HasPrefix(r.Value, []byte("val-")) {
			t.Fatalf("follower holds %q = %q, which the leader never wrote", r.Key, r.Value)
		}
	}
	waitConverged(t, leader, follower)

	// Live: the follower tails while one writer reuses a single key buffer
	// and a single value buffer for every Put.
	key, val = make([]byte, 8), make([]byte, 8)
	for i := 0; i < 200; i++ {
		copy(key, fmt.Sprintf("liv-%04d", i))
		copy(val, fmt.Sprintf("val-%04d", i))
		if _, err := leader.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	if got := waitConverged(t, leader, follower); len(got) != 250 {
		t.Fatalf("converged on %d keys, want 250", len(got))
	}
}

func TestReplicatedGroupsOwnTheirBytes(t *testing.T)        { testReplicatedGroupsOwnTheirBytes(t, 1) }
func TestReplicatedGroupsOwnTheirBytesSharded(t *testing.T) { testReplicatedGroupsOwnTheirBytes(t, 4) }
