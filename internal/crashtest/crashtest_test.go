package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"path"
	"regexp"
	"testing"
	"time"

	"elsm"
	"elsm/internal/core"
	"elsm/internal/sgx"
)

// storeOpts are the elsm options every scenario opens the store under:
// the env's fault-injecting disk and its persistent root of trust.
func storeOpts(env *Env) elsm.Options {
	return elsm.Options{
		FS:            env.Fault,
		Platform:      env.Platform,
		ShardCounters: []*sgx.MonotonicCounter{env.Counter},
	}
}

// recoverStore reopens the store on the healed disk. Recovery MUST succeed
// at every crash point: a crash artifact that reads as tampering or
// rollback is a false positive that bricks the store.
func recoverStore(t *testing.T, env *Env, opts elsm.Options) *elsm.Store {
	t.Helper()
	st, err := elsm.Open(opts)
	if err != nil {
		t.Fatalf("recovery after crash failed (crash read as tamper/rollback?): %v", err)
	}
	return st
}

// checkDurability verifies every acked write reads back byte-identical and
// every unacked commit group recovered whole or not at all.
func checkDurability(t *testing.T, env *Env, st *elsm.Store) {
	t.Helper()
	for k, v := range env.Acked {
		res, err := st.Get([]byte(k))
		if err != nil {
			t.Fatalf("acked key %q: verified read failed: %v", k, err)
		}
		if !res.Found {
			t.Fatalf("acked key %q lost by the crash", k)
		}
		if !bytes.Equal(res.Value, []byte(v)) {
			t.Fatalf("acked key %q: value %q, want %q", k, res.Value, v)
		}
	}
	for gi, g := range env.Groups {
		if g.Acked {
			continue // covered above
		}
		present := 0
		for i, k := range g.Keys {
			res, err := st.Get([]byte(k))
			if err != nil {
				t.Fatalf("group %d key %q: verified read failed: %v", gi, k, err)
			}
			if res.Found {
				if !bytes.Equal(res.Value, []byte(g.Vals[i])) {
					t.Fatalf("group %d key %q: value %q, want %q", gi, k, res.Value, g.Vals[i])
				}
				present++
			}
		}
		if present != 0 && present != len(g.Keys) {
			t.Fatalf("unacked group %d torn by recovery: %d of %d keys present", gi, present, len(g.Keys))
		}
	}
}

// tamperProbe checks that surviving the crash has not widened recovery
// into accepting arbitrary damage: a corrupted byte in the sealed trusted
// state must still be rejected. It works on a clone so the env's disk and
// counter stay untouched — call it BEFORE any further opens bump the
// counter, or the probe's rejection could come from the counter instead of
// the corruption.
func tamperProbe(t *testing.T, env *Env, opts elsm.Options) {
	t.Helper()
	const trusted = "TRUSTED.bin" // the on-disk contract recovery seals under
	clone := env.Mem.Clone()
	if !clone.Exists(trusted) {
		return // crashed before the first seal: nothing to corrupt yet
	}
	if err := clone.Corrupt(trusted, 3); err != nil {
		t.Fatal(err)
	}
	opts.FS = clone
	st, err := elsm.Open(opts)
	if err == nil {
		st.Close()
		t.Fatal("recovery accepted a corrupted trusted-state blob")
	}
	if !errors.Is(err, core.ErrAuthFailed) {
		t.Fatalf("corrupted trusted state rejected with %v, want ErrAuthFailed", err)
	}
}

// manifestLastTs matches the timestamp floor in the engine's JSON manifest.
var manifestLastTs = regexp.MustCompile(`"lastTs":\d+`)

// zeroManifestTs zeroes the timestamp floor in every MANIFEST of the crash
// image (shard subdirectories included), as a hostile host could: the
// manifest is plain untrusted JSON, so nothing recovery hands out may rest
// on it. Call it after the tamper probe and before recovery.
func zeroManifestTs(t *testing.T, env *Env) {
	t.Helper()
	names, err := env.Mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if path.Base(name) != "MANIFEST" {
			continue
		}
		f, err := env.Mem.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		data := manifestLastTs.ReplaceAll(f.Bytes(), []byte(`"lastTs":0`))
		if f, err = env.Mem.Create(name); err == nil {
			_, err = f.Append(data)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkTsFloor verifies the recovered store's trusted timestamp counter sits
// above every acked write: a fresh Put must not reuse a timestamp, whatever
// the manifest claimed.
func checkTsFloor(t *testing.T, env *Env, st *elsm.Store) {
	t.Helper()
	ts, err := st.Put([]byte("ts-floor-probe"), []byte("x"))
	if err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	for k := range env.Acked {
		res, err := st.Get([]byte(k))
		if err != nil {
			t.Fatalf("acked key %q: verified read failed: %v", k, err)
		}
		if res.Ts >= ts {
			t.Fatalf("fresh Put got ts %d, not above acked key %q at ts %d", ts, k, res.Ts)
		}
	}
}

// verifyRecovered is the shared Verify: tamper probe on the crash image,
// the manifest's timestamp floor zeroed, then recover and check the
// durability and timestamp-floor invariants.
func verifyRecovered(t *testing.T, env *Env, opts elsm.Options) {
	t.Helper()
	tamperProbe(t, env, opts)
	zeroManifestTs(t, env)
	st := recoverStore(t, env, opts)
	defer st.Close()
	checkDurability(t, env, st)
	checkTsFloor(t, env, st)
}

// TestCrashMatrixWALAppend enumerates crashes — with torn writes — over
// the WAL files while committing batches through group commit.
func TestCrashMatrixWALAppend(t *testing.T) {
	Enumerate(t, Scenario{
		Name: "wal-append",
		Glob: "wal*",
		Torn: true,
		Run: func(env *Env) {
			st, err := elsm.Open(storeOpts(env))
			if err != nil {
				return // crashed during open; Verify inspects the remains
			}
			defer st.Close()
			for g := 0; g < 12; g++ {
				keys := make([]string, 3)
				vals := make([]string, 3)
				b := st.NewBatch()
				for i := range keys {
					keys[i] = fmt.Sprintf("g%02d-k%d", g, i)
					vals[i] = fmt.Sprintf("v%02d-%d", g, i)
					b.Put([]byte(keys[i]), []byte(vals[i]))
				}
				_, err := b.Commit()
				env.AckGroup(keys, vals, err == nil)
				if err != nil {
					return // disk is dead; the crash happened
				}
			}
		},
		Verify: func(t *testing.T, env *Env) {
			verifyRecovered(t, env, storeOpts(env))
		},
	})
}

// TestCrashMatrixFlushInstall enumerates crashes over EVERY file while a
// tiny memtable forces flushes — covering the SSTable writes, the
// manifest tmp+rename install, the frozen-WAL deletions and the
// transition/post-install seals.
func TestCrashMatrixFlushInstall(t *testing.T) {
	Enumerate(t, Scenario{
		Name: "flush-install",
		Run: func(env *Env) {
			opts := storeOpts(env)
			opts.MemtableSize = 4 << 10
			st, err := elsm.Open(opts)
			if err != nil {
				return
			}
			defer st.Close()
			val := bytes.Repeat([]byte("x"), 256)
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("flush-%03d", i)
				if _, err := st.Put([]byte(key), val); err != nil {
					return
				}
				env.Ack(key, string(val))
			}
			_ = st.Flush() // drive at least one full install inside the window
		},
		Verify: func(t *testing.T, env *Env) {
			opts := storeOpts(env)
			opts.MemtableSize = 4 << 10
			verifyRecovered(t, env, opts)
		},
	})
}

// TestCrashMatrixParallelMaintenance enumerates crashes — torn writes
// included — while TWO maintenance workers run concurrent phase-2 jobs: a
// tiny memtable and level budget keep a flush and a disjoint compaction in
// flight together for most of the workload. The invariants are the usual
// ones, which here mean each level recovers as its old run set or its new
// one, never a mix, no matter which of the two jobs the crash interrupts —
// and tamper detection survives the parallel install traffic.
func TestCrashMatrixParallelMaintenance(t *testing.T) {
	parallelOpts := func(env *Env) elsm.Options {
		opts := storeOpts(env)
		opts.MemtableSize = 4 << 10
		opts.TableFileSize = 4 << 10
		opts.LevelBase = 16 << 10
		opts.MaxLevels = 5
		opts.CompactionWorkers = 2
		return opts
	}
	Enumerate(t, Scenario{
		Name: "parallel-maintenance",
		Torn: true,
		Run: func(env *Env) {
			st, err := elsm.Open(parallelOpts(env))
			if err != nil {
				return
			}
			defer st.Close()
			val := bytes.Repeat([]byte("y"), 256)
			for i := 0; i < 90; i++ {
				key := fmt.Sprintf("par-%03d", i)
				if _, err := st.Put([]byte(key), val); err != nil {
					return
				}
				env.Ack(key, string(val))
			}
			_ = st.Flush() // settle the tail so the final installs crash too
		},
		Verify: func(t *testing.T, env *Env) {
			verifyRecovered(t, env, parallelOpts(env))
		},
	})
}

// TestCrashMatrixCheckpointRestore enumerates crashes during a follower's
// checkpoint import. A crashed import must never produce a directory that
// opens as a valid store with partial data: either the import completed
// (all leader data present) or the directory is re-importable.
func TestCrashMatrixCheckpointRestore(t *testing.T) {
	platform := sgx.NewPlatformFromSecret([]byte("crashtest-checkpoint"))
	leader, err := elsm.Open(elsm.Options{Platform: platform})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	leaderData := make(map[string]string, 30)
	for i := 0; i < 30; i++ {
		k, v := fmt.Sprintf("ckpt-%03d", i), fmt.Sprintf("val-%03d", i)
		if _, err := leader.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		leaderData[k] = v
	}
	var ckpt bytes.Buffer
	if err := leader.ServeCheckpoint(0, &ckpt); err != nil {
		t.Fatal(err)
	}

	restore := func(env *Env) error {
		return core.RestoreCheckpoint(bytes.NewReader(ckpt.Bytes()), core.RestoreConfig{
			FS:       env.Fault,
			Platform: env.Platform,
			Counter:  env.Counter,
		})
	}
	Enumerate(t, Scenario{
		Name:     "checkpoint-restore",
		Platform: platform,
		Run: func(env *Env) {
			if err := restore(env); err != nil {
				return // crashed mid-import; Verify re-imports
			}
			for k, v := range leaderData {
				env.Ack(k, v)
			}
		},
		Verify: func(t *testing.T, env *Env) {
			if len(env.Acked) == 0 {
				// The import crashed. The remains must be re-importable on
				// the healed disk — TRUSTED.bin lands last, so the
				// directory still reads as unseeded (or is wiped clean).
				if err := core.WipeFS(env.Fault); err != nil {
					t.Fatal(err)
				}
				if err := restore(env); err != nil {
					t.Fatalf("re-import after crashed import failed: %v", err)
				}
				for k, v := range leaderData {
					env.Ack(k, v)
				}
			}
			verifyRecovered(t, env, storeOpts(env))
		},
	})
}

// TestCrashMatrixPromotion enumerates crashes during follower promotion:
// the epoch-bump seal and the drain must leave either the old epoch or the
// new one, with every replicated-durable write intact. The crash window is
// self-armed so the bootstrap and catch-up phases do not count as points.
func TestCrashMatrixPromotion(t *testing.T) {
	platform := sgx.NewPlatformFromSecret([]byte("crashtest-promotion"))
	Enumerate(t, Scenario{
		Name:     "promotion",
		Platform: platform,
		SelfArm:  true,
		Run: func(env *Env) {
			leader, err := elsm.Open(elsm.Options{Platform: platform})
			if err != nil {
				return
			}
			defer leader.Close()
			data := make(map[string]string, 20)
			lastKey := ""
			for i := 0; i < 20; i++ {
				k, v := fmt.Sprintf("prom-%03d", i), fmt.Sprintf("val-%03d", i)
				if _, err := leader.Put([]byte(k), []byte(v)); err != nil {
					return
				}
				data[k] = v
				lastKey = k
			}
			src, err := leader.ReplicationSource()
			if err != nil {
				return
			}
			follower, err := elsm.OpenFollower(storeOpts(env), src)
			if err != nil {
				return
			}
			defer follower.Close()
			caughtUp := false
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
				if res, err := follower.Get([]byte(lastKey)); err == nil && res.Found {
					caughtUp = true
					break
				}
				time.Sleep(time.Millisecond)
			}
			if !caughtUp {
				return // leaves zero matching ops; the count run fails loudly
			}
			for k, v := range data {
				env.Ack(k, v)
			}
			env.ArmCrash() // the crash window: promotion only
			_, _ = follower.Promote(nil)
		},
		Verify: func(t *testing.T, env *Env) {
			tamperProbe(t, env, storeOpts(env))
			zeroManifestTs(t, env)
			st := recoverStore(t, env, storeOpts(env))
			defer st.Close()
			checkDurability(t, env, st)
			checkTsFloor(t, env, st)
			if epoch := st.ReplEpoch(); epoch > 1 {
				t.Fatalf("epoch after crashed promotion = %d, want 0 or 1", epoch)
			}
		},
	})
}
