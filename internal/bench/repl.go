package bench

import (
	"fmt"
	"sync"
	"time"

	"elsm/internal/core"
	"elsm/internal/repl"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// The replication ablation measures what read replicas cost the leader and
// buy the readers: durable put throughput on the leader with 0, 1 and 2
// followers tailing its commit stream (the hub hands each committed group
// to the ring on the single-threaded sync stage, so shipping overhead lands
// on the commit path), verified read throughput served by a follower, and
// the time to bootstrap a follower from a portable checkpoint.
const (
	replSyncDelay = 200 * time.Microsecond
	replWriters   = 4
)

// replFollowerSweep is the ablation's X axis: the follower count.
var replFollowerSweep = []int{0, 1, 2}

// openReplBench builds one eLSM-P2 store on sync-delayed storage bound to
// platform and ctr (shared attestation root: leader and followers verify
// each other's streams against it).
func (c Config) openReplBench(platform *sgx.Platform, ctr *sgx.MonotonicCounter) (*core.Store, vfs.FS, error) {
	fs := vfs.NewSlowSync(vfs.NewMem(), replSyncDelay)
	st, err := core.Open(core.Config{
		FS:              fs,
		Platform:        platform,
		Counter:         ctr,
		MemtableSize:    c.paperMB(4),
		TableFileSize:   c.paperMB(4),
		LevelBase:       int64(c.paperMB(10)),
		MaxLevels:       7,
		KeepVersions:    1,
		CounterInterval: 4096,
		MmapReads:       true,
	})
	return st, fs, err
}

// bootstrapReplFollower restores a follower from the leader's checkpoint
// stream and opens it, reporting the bootstrap wall time.
func (c Config) bootstrapReplFollower(src repl.Source, platform *sgx.Platform) (*core.Store, time.Duration, error) {
	ctr := sgx.NewMonotonicCounter()
	fs := vfs.NewSlowSync(vfs.NewMem(), replSyncDelay)
	start := time.Now()
	rc, err := src.Checkpoint(0)
	if err != nil {
		return nil, 0, err
	}
	err = core.RestoreCheckpoint(rc, core.RestoreConfig{FS: fs, Platform: platform, Counter: ctr, Shard: 0, Shards: 1})
	rc.Close()
	if err != nil {
		return nil, 0, err
	}
	st, err := core.Open(core.Config{
		FS:              fs,
		Platform:        platform,
		Counter:         ctr,
		MemtableSize:    c.paperMB(4),
		TableFileSize:   c.paperMB(4),
		LevelBase:       int64(c.paperMB(10)),
		MaxLevels:       7,
		KeepVersions:    1,
		CounterInterval: 4096,
		MmapReads:       true,
	})
	if err != nil {
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

// replPoint measures one follower count. The leader preloads cfg.Ops
// records (the checkpoint corpus), nFollowers bootstrap and tail, then
// replWriters goroutines pump another totalOps durable puts while the
// followers keep pace. After the followers converge, one of them serves
// totalOps verified point reads.
func (c Config) replPoint(nFollowers, totalOps int) (leaderKops, readKops float64, bootstrap time.Duration, err error) {
	platform, err := sgx.NewPlatform()
	if err != nil {
		return 0, 0, 0, err
	}
	leader, _, err := c.openReplBench(platform, sgx.NewMonotonicCounter())
	if err != nil {
		return 0, 0, 0, err
	}
	defer leader.Close()

	val := []byte("repl-ablation-value-0123456789ab")
	for i := 0; i < totalOps; i++ {
		if _, err = core.Put(leader, []byte(fmt.Sprintf("pre-%07d", i)), val); err != nil {
			return 0, 0, 0, err
		}
	}

	hub := repl.NewLeader(leader, 0, 0, 1)
	defer hub.Close()
	src := repl.NewLocalSource([]*repl.Leader{hub})

	followers := make([]*core.Store, 0, nFollowers)
	tailers := make([]*repl.Tailer, 0, nFollowers)
	defer func() {
		for _, tl := range tailers {
			tl.Close()
		}
		for _, f := range followers {
			f.Close()
		}
	}()
	for i := 0; i < nFollowers; i++ {
		f, dur, ferr := c.bootstrapReplFollower(src, platform)
		if ferr != nil {
			return 0, 0, 0, fmt.Errorf("bootstrap follower %d: %w", i, ferr)
		}
		if i == 0 {
			bootstrap = dur
		}
		followers = append(followers, f)
		tailers = append(tailers, repl.StartTailer(f, src, 0, 1))
	}

	// Leader write throughput with the followers tailing live.
	perWriter := totalOps / replWriters
	if perWriter == 0 {
		perWriter = 1
	}
	var wg sync.WaitGroup
	errCh := make(chan error, replWriters)
	start := time.Now()
	for w := 0; w < replWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, perr := core.Put(leader, []byte(fmt.Sprintf("w%d-%06d", w, i)), val); perr != nil {
					errCh <- perr
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	if werr := <-errCh; werr != nil {
		return 0, 0, 0, werr
	}
	records := float64(perWriter * replWriters)
	leaderKops = records / elapsed.Seconds() / 1e3

	if nFollowers == 0 {
		return leaderKops, 0, 0, nil
	}

	// Convergence barrier, then verified reads off follower 0.
	head := leader.Engine().AppliedTs()
	deadline := time.Now().Add(30 * time.Second)
	for _, f := range followers {
		for f.Engine().AppliedTs() < head {
			for _, tl := range tailers {
				if terr := tl.Err(); terr != nil {
					return 0, 0, 0, fmt.Errorf("tailer failed: %w", terr)
				}
			}
			if time.Now().After(deadline) {
				return 0, 0, 0, fmt.Errorf("follower stuck at %d of %d", f.Engine().AppliedTs(), head)
			}
			time.Sleep(time.Millisecond)
		}
	}
	reader := followers[0]
	start = time.Now()
	for i := 0; i < totalOps; i++ {
		res, rerr := core.Get(reader, []byte(fmt.Sprintf("pre-%07d", i%totalOps)))
		if rerr != nil {
			return 0, 0, 0, rerr
		}
		if !res.Found {
			return 0, 0, 0, fmt.Errorf("follower lost key pre-%07d", i%totalOps)
		}
	}
	readKops = float64(totalOps) / time.Since(start).Seconds() / 1e3
	return leaderKops, readKops, bootstrap, nil
}

// AblationRepl quantifies verified replication: leader durable put
// throughput with 0/1/2 followers attached (shipping overhead), the
// verified read throughput a follower serves from its own Merkle forest,
// and checkpoint bootstrap time. Expected shape: leader throughput is
// nearly flat in the follower count (shipping reuses the already-verified
// commit stream; the hub copies references, not records), while each
// follower adds a full read replica.
func AblationRepl(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Name: "Ablation: repl",
		Caption: fmt.Sprintf("leader durable put throughput vs follower count, %d writers, %v fsync; follower verified reads and checkpoint bootstrap",
			replWriters, replSyncDelay),
		XLabel: "followers",
		Series: seriesOrder("leader kops/s", "follower read kops/s", "bootstrap ms"),
	}
	for _, n := range replFollowerSweep {
		cfg.logf("AblationRepl followers=%d", n)
		leaderKops, readKops, boot, err := cfg.replPoint(n, cfg.Ops)
		if err != nil {
			return t, fmt.Errorf("repl ablation (%d followers): %w", n, err)
		}
		cfg.logf("    %d followers: leader %.1f kops/s, reads %.1f kops/s, bootstrap %v",
			n, leaderKops, readKops, boot)
		row := Row{X: fmt.Sprintf("%d", n), Series: map[string]float64{
			"leader kops/s": leaderKops,
		}}
		if n > 0 {
			row.Series["follower read kops/s"] = readKops
			row.Series["bootstrap ms"] = float64(boot.Nanoseconds()) / 1e6
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
