package core

import (
	"errors"
	"fmt"
	"testing"

	"elsm/internal/hashutil"
	"elsm/internal/record"
	"elsm/internal/vfs"
	"elsm/internal/wal"
)

func chainGroup(first int, keys ...string) []record.Record {
	recs := make([]record.Record, len(keys))
	for i, k := range keys {
		recs[i] = record.Record{Key: []byte(k), Ts: uint64(first + i), Kind: record.KindSet, Value: []byte("v" + k)}
	}
	return recs
}

// TestWALChainBasesAndFrontier walks the chain through one flush
// generation: both bases while a frozen log is live, a failed fsync that
// keeps the old frontier, and a flush install that rebases the tip, the
// frontier and an in-flight group's mark onto the active log.
func TestWALChainBasesAndFrontier(t *testing.T) {
	g1, g2, g3 := chainGroup(1, "a", "b"), chainGroup(3, "c"), chainGroup(4, "d", "e")
	var ch walChain
	ch.appended(g1)
	ch.synced(true)
	d1 := LinkWAL(hashutil.Zero, g1)
	if ch.durable != (walMark{digest: d1, fresh: d1, appends: 2}) || ch.tip != d1 || ch.fresh != d1 {
		t.Fatalf("after one durable group: %+v", ch)
	}

	ch.frozen()
	ch.appended(g2)
	if ch.tip != LinkWAL(d1, g2) || ch.fresh != LinkWAL(hashutil.Zero, g2) {
		t.Fatal("a group after a freeze must extend both bases")
	}
	ch.synced(false)
	if ch.durable != (walMark{digest: d1, appends: 2}) {
		t.Fatalf("a failed fsync moved the frontier: %+v", ch.durable)
	}

	ch.appended(g3)
	ch.rebase() // the flush installs while g3 awaits its fsync
	fresh := LinkWAL(LinkWAL(hashutil.Zero, g2), g3)
	if ch.tip != fresh || ch.durable.digest != hashutil.Zero {
		t.Fatalf("rebase: tip %s, durable %s", ch.tip, ch.durable.digest)
	}
	ch.synced(true)
	if ch.durable != (walMark{digest: fresh, fresh: fresh, appends: 5}) {
		t.Fatalf("the in-flight group's mark was not rebased: %+v", ch.durable)
	}
	if !ch.bumpDue(5) || ch.bumpDue(5) || ch.bumpDue(0) {
		t.Fatal("bumpDue must fire once per interval of durable appends, never at interval 0")
	}
}

// TestRecoveryFindsSealedDigestInOneReplay: the sealed WAL digest is found
// on the chain the engine's one replay feeds the listener — the records
// after it are counted past the seal, the log is opened once to replay and
// once to append, and a log whose chain never meets the seal is refused.
func TestRecoveryFindsSealedDigestInOneReplay(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	cfg := smallCfg(fs)
	cfg.CounterInterval = -1
	s := mustOpenP2(t, cfg)
	if _, err := Put(s, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	s.SealState()
	for _, k := range []string{"b", "c"} {
		if _, err := Put(s, []byte(k), []byte("2")); err != nil {
			t.Fatal(err)
		}
	}
	s.Engine().Close() // crash: the seal covers "a" only
	cfg.Platform, cfg.Counter = s.platform, s.counter

	fs.ArmFilter(vfs.OpOpen, "wal*")
	s2 := mustOpenP2(t, cfg)
	if n := fs.MatchingOps(); n != 2 {
		t.Fatalf("recovery opened the log %d times, want 2 (replay, then append)", n)
	}
	if n := s2.ReplayedPastSeal(); n != 2 {
		t.Fatalf("suffix past the seal = %d, want 2", n)
	}
	for _, k := range []string{"a", "b", "c"} {
		if res, err := Get(s2, []byte(k)); err != nil || !res.Found {
			t.Fatalf("after recovery %q: %+v %v", k, res, err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A CRC-valid log with other values: its chain never meets the seal.
	f, err := fs.Create("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	forged := chainGroup(1, "a", "b", "c")
	if err := wal.NewWriter(f).AppendBatch(forged); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); !errors.Is(err, ErrRollback) {
		t.Fatalf("a log whose chain misses the seal: %v, want ErrRollback", err)
	}
}

// TestRecoveryAcrossFlushGenerations seals every seven records across
// several freezes and flush installs, each of which rebases the chain onto
// the active log, then crashes: recovery finds the last seal on the chain
// of the live log, with fewer than one interval of records past it.
func TestRecoveryAcrossFlushGenerations(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	cfg.CounterInterval = 7
	s := mustOpenP2(t, cfg)
	want := map[string]string{}
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("key%03d", i%60), fmt.Sprintf("v%d", i)
		if _, err := Put(s, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	s.Engine().Close()
	cfg.Platform, cfg.Counter = s.platform, s.counter
	s2 := mustOpenP2(t, cfg)
	defer s2.Close()
	if n := s2.ReplayedPastSeal(); n >= 7 {
		t.Fatalf("%d records past the last seal with a bump every 7", n)
	}
	for k, v := range want {
		if res, err := Get(s2, []byte(k)); err != nil || string(res.Value) != v {
			t.Fatalf("after recovery %q: %+v %v", k, res, err)
		}
	}
}

// TestRecoveryAfterFreezeLostItsActiveLog: a freeze renames the active log
// and then creates the next one; a crash or a failed create between the two
// leaves only frozen logs. The log appends resume on after that recovery is
// a new active log, and the next recovery replays it as one: the groups on
// it still pass their tags after a second crash.
func TestRecoveryAfterFreezeLostItsActiveLog(t *testing.T) {
	for _, cause := range []string{"crash after the rename", "failed create"} {
		t.Run(cause, func(t *testing.T) {
			fs := vfs.NewFault(vfs.NewMem())
			s := mustOpenP2(t, forgeCfg(fs))
			putAll(t, s, "a", "b")
			if cause == "failed create" {
				fs.ArmFilter(vfs.OpCreate, "wal.log")
				fs.Arm(0)
				if err := s.Flush(); !errors.Is(err, vfs.ErrInjected) {
					t.Fatalf("Flush with the new active log's create failing: %v", err)
				}
			} else if err := fs.Rename("wal.log", "wal-frozen-00000000.log"); err != nil {
				t.Fatal(err)
			}
			s.Engine().Close() // crash
			fs.Disarm()
			if fs.Exists("wal.log") {
				t.Fatal("the active log survived the freeze")
			}

			s2, err := reopen(s, fs)
			if err != nil {
				t.Fatal(err)
			}
			putAll(t, s2, "c", "d")
			s2.Engine().Close() // crash: two groups past the seal Open wrote
			s3, err := reopen(s, fs)
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			defer s3.Close()
			if n := s3.ReplayedPastSeal(); n != 2 {
				t.Fatalf("replayed %d records past the seal, want 2", n)
			}
			for _, k := range []string{"a", "b", "c", "d"} {
				if res, err := Get(s3, []byte(k)); err != nil || string(res.Value) != "v"+k {
					t.Fatalf("after recovery %q: %+v %v", k, res, err)
				}
			}
		})
	}
}
