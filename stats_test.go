package elsm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"elsm/internal/vfs"
)

func TestStatsSnapshot(t *testing.T) {
	s, err := Open(testOptions(ModeP2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 1000; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Get([]byte(fmt.Sprintf("key%04d", i*7))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Fatal("flushes not counted")
	}
	if st.DiskBytes == 0 {
		t.Fatal("disk bytes zero after flush")
	}
	if st.ECalls == 0 || st.OCalls == 0 {
		t.Fatalf("boundary crossings not counted: %+v", st)
	}
	if st.VerifiedGets == 0 {
		t.Fatal("verified gets not counted")
	}
	if st.RunsProbed == 0 || st.ProofBytes == 0 {
		t.Fatalf("verification work not counted: %+v", st)
	}
	if st.VerifyNodeCacheHits+st.VerifyNodeCacheMisses == 0 || st.VerifyNodeHashes == 0 {
		t.Fatalf("path walks not counted: %+v", st)
	}
}

// TestStatsCountScans: verification work is counted under one set of names
// whoever does it. A store that has only ever been scanned reports proof
// bytes, Merkle walks and node hashes, and its recorder's Verify and
// ProofBytes histograms have one observation per chunk — while the point-read
// counters stay at zero.
func TestStatsCountScans(t *testing.T) {
	s, err := Open(testOptions(ModeP2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 1000; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		out, err := s.Scan([]byte(fmt.Sprintf("key%04d", i*40)), []byte(fmt.Sprintf("key%04d", i*40+29)))
		if err != nil || len(out) != 30 {
			t.Fatalf("Scan = %d rows, %v", len(out), err)
		}
	}
	st := s.Stats()
	if st.VerifiedGets != 0 || st.RunsProbed != 0 {
		t.Fatalf("point-read counters moved without a Get: %+v", st)
	}
	if st.ProofBytes == 0 || st.VerifyNodeHashes == 0 || st.VerifyNodeCacheHits+st.VerifyNodeCacheMisses == 0 {
		t.Fatalf("a scan's verification work is not counted: %+v", st)
	}
	var chunks, verifies, proofObs uint64
	for _, rec := range s.Recorders() {
		chunks += rec.ScanChunk.Snapshot().Count
		verifies += rec.Verify.Snapshot().Count
		proofObs += rec.ProofBytes.Snapshot().Count
	}
	if chunks == 0 || verifies != chunks || proofObs != chunks {
		t.Fatalf("%d scan chunks, %d Verify and %d ProofBytes observations", chunks, verifies, proofObs)
	}
}

// TestStatsAdaptiveCommitWindow checks the public plumbing of the
// adaptive group-commit window: with GroupCommitWindow =
// AutoGroupCommitWindow on fsync-bound storage, Stats must report a
// non-zero resolved window derived from the fsync-latency EWMA.
func TestStatsAdaptiveCommitWindow(t *testing.T) {
	opts := testOptions(ModeP2)
	opts.FS = vfs.NewSlowSync(vfs.NewMem(), 300*time.Microsecond)
	opts.MemtableSize = 1 << 20 // keep flushes out of the picture
	opts.GroupCommitWindow = AutoGroupCommitWindow
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 12; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.FsyncEWMANanos == 0 {
		t.Fatal("fsync EWMA not plumbed through Stats")
	}
	if st.GroupCommitWindowNanos == 0 {
		t.Fatal("resolved adaptive window not plumbed through Stats")
	}
}

// statsFoldRules classifies EVERY Stats field by its documented
// shard-aggregation rule. TestStatsShardFold walks the struct by
// reflection against this table, so adding a Stats field without deciding
// its fold semantics fails the test rather than silently mis-aggregating.
var statsFoldRules = map[string]string{
	// Counters and current-level gauges: sum across shards.
	"Shards": "sum", "Flushes": "sum", "Compactions": "sum",
	"BytesFlushed": "sum", "BytesCompacted": "sum", "RecordsDropped": "sum",
	"ManifestUpdates": "sum", "DiskBytes": "sum", "WALSyncs": "sum",
	"GroupCommits": "sum", "GroupedRecords": "sum", "WALTornRecords": "sum",
	"FlushStallNanos": "sum", "CompactionStallNanos": "sum",
	"BackgroundCompactions": "sum", "PinnedRuns": "sum",
	"CompactionDebtBytes": "sum", "ParallelCompactions": "sum",
	"SnapshotsOpen": "sum", "AsyncCommitsInFlight": "sum",
	"VerifiedGets": "sum", "ProofBytes": "sum", "RunsProbed": "sum",
	"VerifyNodeCacheHits": "sum", "VerifyNodeCacheMisses": "sum", "VerifyNodeHashes": "sum",
	"ReplLagGroups": "sum", "ReplLagBytes": "sum",
	"FollowersConnected": "sum", "ReplReconnects": "sum",
	// Per-pipeline tuning gauges: the maximum across shards.
	"CompactionWorkersBusy": "max", "GroupCommitWindowNanos": "max",
	"FsyncEWMANanos": "max",
	// The enclave is shared by every shard (per-shard entries repeat its
	// totals); whole-store replication state likewise: counted once.
	"ECalls": "once", "OCalls": "once", "CopiedBytes": "once", "EnclaveBytes": "once",
	"ReplEpoch": "once", "ReplRebootstraps": "once",
	// Element-wise sum.
	"CompactionDebtByLevel": "sum-by-level",
}

// TestStatsShardFold is the aggregation property test: on a quiescent
// store of one shard or four, Stats() must equal the documented fold of
// ShardStats() — the rules here are the reference the counter table's are
// held to (shared-enclave fields once, pipeline gauges the maximum).
func TestStatsShardFold(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { testStatsShardFold(t, n) })
	}
}

func testStatsShardFold(t *testing.T, n int) {
	opts := testOptions(ModeP2)
	opts.Shards = n
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 600; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Get([]byte(fmt.Sprintf("key%04d", i*13))); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce: durability barrier, then drain background maintenance, so
	// both snapshots below observe the same frozen counters.
	if err := s.Sync(nil); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	shards := s.ShardStats()
	agg := s.Stats()
	if len(shards) != n {
		t.Fatalf("ShardStats returned %d entries, want %d", len(shards), n)
	}

	num := func(v reflect.Value) int64 {
		switch v.Kind() {
		case reflect.Uint64:
			return int64(v.Uint())
		case reflect.Int, reflect.Int64:
			return v.Int()
		}
		t.Fatalf("unhandled Stats field kind %v", v.Kind())
		return 0
	}
	av := reflect.ValueOf(agg)
	tp := av.Type()
	for i := 0; i < tp.NumField(); i++ {
		name := tp.Field(i).Name
		rule, ok := statsFoldRules[name]
		if !ok {
			t.Fatalf("Stats field %s has no fold rule: classify it in statsFoldRules (and in stats.go's statCounters)", name)
		}
		got := av.Field(i)
		switch rule {
		case "sum":
			var want int64
			for _, ss := range shards {
				want += num(reflect.ValueOf(ss).Field(i))
			}
			if num(got) != want {
				t.Errorf("%s: aggregate %d != shard sum %d", name, num(got), want)
			}
		case "max":
			var want int64
			for _, ss := range shards {
				if v := num(reflect.ValueOf(ss).Field(i)); v > want {
					want = v
				}
			}
			if num(got) != want {
				t.Errorf("%s: aggregate %d != shard max %d", name, num(got), want)
			}
		case "once":
			want := num(reflect.ValueOf(shards[0]).Field(i))
			if num(got) != want {
				t.Errorf("%s: aggregate %d != shard 0's %d (shared, counted once)", name, num(got), want)
			}
		case "sum-by-level":
			var want []uint64
			for _, ss := range shards {
				for len(want) < len(ss.CompactionDebtByLevel) {
					want = append(want, 0)
				}
				for l, d := range ss.CompactionDebtByLevel {
					want[l] += d
				}
			}
			for l := 0; l < len(want) || l < len(agg.CompactionDebtByLevel); l++ {
				var w, g uint64
				if l < len(want) {
					w = want[l]
				}
				if l < len(agg.CompactionDebtByLevel) {
					g = agg.CompactionDebtByLevel[l]
				}
				if w != g {
					t.Errorf("CompactionDebtByLevel[%d]: aggregate %d != shard sum %d", l, g, w)
				}
			}
		default:
			t.Fatalf("unknown fold rule %q for %s", rule, name)
		}
	}
}

// TestStatsTableIsTotal: every exported numeric field of Stats is declared
// in statCounters exactly once, so a new counter cannot be left out of the
// fold, the STATS verb or /metrics; and no two rows share a wire name.
func TestStatsTableIsTotal(t *testing.T) {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	rows := map[uintptr]int{} // field address → rows of the table naming it
	wire := map[string]bool{}
	for _, c := range statCounters {
		rows[reflect.ValueOf(c.field(&st)).Pointer()]++
		if wire[c.wire] {
			t.Errorf("wire name %q declared twice", c.wire)
		}
		wire[c.wire] = true
	}
	numeric := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			continue // CompactionDebtByLevel, the one non-scalar, folds and renders by hand
		}
		if !f.IsExported() {
			continue
		}
		numeric++
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("Stats.%s is %v: the table's accessors are *uint64", f.Name, f.Type)
			continue
		}
		if n := rows[v.Field(i).Addr().Pointer()]; n != 1 {
			t.Errorf("Stats.%s appears in statCounters %d times, want exactly once", f.Name, n)
		}
	}
	if len(statCounters) != numeric {
		t.Errorf("statCounters has %d rows for %d numeric fields", len(statCounters), numeric)
	}
	// The fold rules of the table against the reference classification.
	names := map[uintptr]string{}
	for i := 0; i < v.NumField(); i++ {
		names[v.Field(i).Addr().Pointer()] = v.Type().Field(i).Name
	}
	for _, c := range statCounters {
		name := names[reflect.ValueOf(c.field(&st)).Pointer()]
		if want := map[foldRule]string{foldSum: "sum", foldMax: "max", foldOnce: "once"}[c.fold]; statsFoldRules[name] != want {
			t.Errorf("Stats.%s folds by %q in statCounters, %q in the reference", name, want, statsFoldRules[name])
		}
		// A row names where a shard's value is read, but for the few that
		// statsOf (Shards, DiskBytes, ReplEpoch) and ShardStats (the
		// replication gauges) set themselves.
		setByHand := name == "Shards" || name == "DiskBytes" || name == "FollowersConnected" || strings.HasPrefix(name, "Repl")
		if (c.from == nil) != setByHand {
			t.Errorf("Stats.%s: has a source = %v, set by hand = %v", name, c.from != nil, setByHand)
		}
	}
}

func TestStatsUnsecuredMode(t *testing.T) {
	s, err := Open(testOptions(ModeUnsecured))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 500; i++ {
		s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v"))
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Fatal("unsecured flushes not counted")
	}
	if st.VerifiedGets != 0 {
		t.Fatal("unsecured store reported verification work")
	}
}
