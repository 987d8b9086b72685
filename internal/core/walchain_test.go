package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"time"

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

// liveGroup is one group of a live log as the host holds it.
type liveGroup struct {
	recs []record.Record
	tag  wal.Tag
}

// liveGroups reads the live logs the way recovery does — the frozen logs in
// sequence order, then the active log — and returns their groups.
func liveGroups(t *testing.T, fs vfs.FS) []liveGroup {
	t.Helper()
	names, err := fs.List("wal-")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Exists("wal.log") {
		names = append(names, "wal.log")
	}
	var out []liveGroup
	for _, name := range names {
		data, err := vfs.ReadFile(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wal.Replay(data, func(group []record.Record, tag *wal.Tag) error {
			g := liveGroup{tag: *tag}
			for _, r := range group {
				g.recs = append(g.recs, r.Clone())
			}
			out = append(out, g)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestWALTagsArePositional walks the chain through one flush generation: a
// group's tag is the MAC of its position and its records' link from zero,
// whatever log it lands in; a failed fsync keeps the old frontier; and a
// flush install that lands while a group awaits its fsync moves the base of
// the live logs without touching that group's position.
func TestWALTagsArePositional(t *testing.T) {
	g1, g2, g3 := chainGroup(1, "a", "b"), chainGroup(3, "c"), chainGroup(4, "d", "e")
	var ch walChain
	ch.keyed([32]byte{1}, []byte("seed"))
	if tag := ch.appended(g1); tag != ch.tag(2, LinkWAL(hashutil.Zero, g1)) {
		t.Fatal("a group's tag is not MAC(appends ‖ LinkWAL(0, group))")
	}
	ch.synced(true)
	if ch.durable != 2 || ch.inFlight {
		t.Fatalf("after one durable group: %+v", ch)
	}

	tag2 := ch.appended(g2)
	ch.synced(false)
	if ch.durable != 2 {
		t.Fatalf("a failed fsync moved the frontier to %d", ch.durable)
	}
	if tag2 == ch.tag(3, LinkWAL(LinkWAL(hashutil.Zero, g1), g2)) {
		t.Fatal("a group's tag chains the groups before it")
	}

	tag3 := ch.appended(g3)
	ch.base = 3 // the flush install lands while g3 awaits its fsync
	ch.synced(true)
	if ch.durable != 5 || tag3 != ch.tag(5, LinkWAL(hashutil.Zero, g3)) {
		t.Fatalf("the in-flight group lost its position: durable %d", ch.durable)
	}
	if !ch.bumpDue(5) || ch.bumpDue(5) || ch.bumpDue(0) {
		t.Fatal("bumpDue must fire once per interval of durable appends, never at interval 0")
	}

	// A log that starts after g1 replays g2 and g3 from base 2; from any
	// other base they fail.
	for _, base := range []uint64{2, 3} {
		rec := walChain{key: ch.key, seek: walSeek{base: base, frontier: 5}}
		rec.replayed(g2, &tag2)
		rec.replayed(g3, &tag3)
		if bad := rec.seek.bad; (bad == 0) != (base == 2) {
			t.Fatalf("replay from base %d: first bad group ends at %d", base, bad)
		}
	}
}

// TestRecoveryChecksEveryTagInOneReplay: recovery reads the log once, counts
// the records past the seal and reads back every group — and refuses as
// rollback a group before the seal whose tag does not verify.
func TestRecoveryChecksEveryTagInOneReplay(t *testing.T) {
	mem := vfs.NewMem()
	fs := vfs.NewFault(mem)
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
	crashed := mem.Clone()

	// The sealed group's tag flipped and its marker's CRC recomputed, as a
	// host can.
	log := readLog(t, fs)
	n := int(binary.BigEndian.Uint32(log[4:]))
	marker := 8 + n // the first group is one record, then its marker
	body := log[marker+8 : marker+8+1+4+wal.TagSize]
	body[1+4] ^= 1
	binary.BigEndian.PutUint32(log[marker:], crc32.ChecksumIEEE(body))
	writeLog(t, fs, log)
	if _, err := Open(cfg); !errors.Is(err, ErrRollback) {
		t.Fatalf("a flipped tag before the seal: %v, want ErrRollback", err)
	}

	mem.Restore(crashed)
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
}

// TestOpenLeavesNoGroupOfAnEarlierSeed: an Open that replayed groups flushes
// them before it draws a new WAL key, so it leaves no group in any live log,
// and every group written after it verifies under the new key — at the
// position counted from the sealed base — and under no earlier one.
func TestOpenLeavesNoGroupOfAnEarlierSeed(t *testing.T) {
	fs := vfs.NewMem()
	s := mustOpenP2(t, forgeCfg(fs))
	putAll(t, s, "a", "b")
	s.Engine().Close() // crash: two groups past the seal
	oldSeed := s.walSeed

	s2, err := reopen(s, fs)
	if err != nil {
		t.Fatal(err)
	}
	if g := liveGroups(t, fs); len(g) != 0 {
		t.Fatalf("Open left %d replayed groups in the live logs", len(g))
	}
	putAll(t, s2, "c", "d")
	groups := liveGroups(t, fs)
	if len(groups) != 2 {
		t.Fatalf("%d live groups, want 2", len(groups))
	}
	for i, seed := range [][]byte{s2.walSeed, oldSeed} {
		ch := walChain{seek: walSeek{base: s2.chain.base, frontier: s2.chain.durable}}
		ch.keyed(s2.sealKey, seed)
		for _, g := range groups {
			ch.replayed(g.recs, &g.tag)
		}
		if bad := ch.seek.bad; (bad == 0) != (i == 0) {
			t.Fatalf("seed %x: first bad group ends at %d", seed[:4], bad)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// logLink chains the records of every group in the live logs from zero.
func logLink(t *testing.T, fs vfs.FS) hashutil.Hash {
	t.Helper()
	link := hashutil.Zero
	for _, g := range liveGroups(t, fs) {
		link = LinkWAL(link, g.recs)
	}
	return link
}

// TestSealWindow: the records appended since the last seal that succeeded
// and its age, which a seal resets.
func TestSealWindow(t *testing.T) {
	s := mustOpenP2(t, forgeCfg(vfs.NewMem()))
	defer s.Close()
	putAll(t, s, "a", "b", "c")
	if n, age := s.SealWindow(); n != 3 || age < 0 {
		t.Fatalf("after three puts: %d unsealed appends, age %v", n, age)
	}
	time.Sleep(2 * time.Millisecond)
	_, before := s.SealWindow()
	s.SealState()
	if n, age := s.SealWindow(); n != 0 || age >= before {
		t.Fatalf("after a seal: %d unsealed appends, age %v (was %v)", n, age, before)
	}
}

// forgeCfg is smallCfg with a memtable no test here fills: every group stays
// in the active log unless a test flushes it.
func forgeCfg(fs vfs.FS) Config {
	cfg := smallCfg(fs)
	cfg.MemtableSize = 1 << 20
	cfg.CounterInterval = -1
	return cfg
}

// reopen opens the store's directory again, as a restart on the same
// platform and counter would.
func reopen(s *Store, fs vfs.FS) (*Store, error) {
	cfg := forgeCfg(fs)
	cfg.Platform, cfg.Counter = s.platform, s.counter
	return Open(cfg)
}

// putAll commits one single-record group per key.
func putAll(t *testing.T, s *Store, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if _, err := Put(s, []byte(k), []byte("v"+k)); err != nil {
			t.Fatal(err)
		}
	}
}

// readLog and writeLog are the host's hands on the active log.
func readLog(t *testing.T, fs vfs.FS) []byte {
	t.Helper()
	data, err := vfs.ReadFile(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeLog(t *testing.T, fs vfs.FS, data []byte) {
	t.Helper()
	if err := vfs.WriteFile(fs, "wal.log", data); err != nil {
		t.Fatal(err)
	}
}
