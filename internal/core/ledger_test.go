package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"elsm/internal/lsm"
	"elsm/internal/vfs"
)

var update = flag.Bool("update", false, "rewrite testdata/cost_ledger.golden")

// Sizes of the cost ledger's run.
const (
	ledgerKeys      = 30000
	ledgerOverwrite = 15000 // records of the overwrite pass
	ledgerValue     = 100
	ledgerStep      = 512 // records between two quiesce points
	ledgerBatch     = 64  // records per Commit
	ledgerGets      = 2000
	ledgerScans     = 200
	ledgerScanRows  = 50
)

func ledgerKey(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// TestCostLedger counts what the write path and the read path cost on a
// seeded paced load — default geometry, one maintenance worker, an explicit
// Flush and WaitMaintenance every 512 records, then an overwrite pass paced
// the same way — and diffs the counts with testdata/cost_ledger.golden
// (go test -run TestCostLedger -update ./internal/core rewrites it). Every
// row is a count or a ratio of counts, so the file is the same on any
// machine and in any run: a change to the merge policy, the proof layout or
// the read path shows up as a diff of this file.
func TestCostLedger(t *testing.T) {
	s := mustOpenP2(t, Config{
		FS:           vfs.NewMem(),
		CacheSize:    8 << 20,
		KeepVersions: 1,
		Workers:      lsm.NewWorkerPool(1),
	})
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	var user uint64
	value := make([]byte, ledgerValue)
	load := func(order []int) {
		ops := make([]BatchOp, 0, ledgerBatch)
		for n, i := range order {
			rng.Read(value)
			ops = append(ops, BatchOp{Key: ledgerKey(i), Value: bytes.Clone(value)})
			user += uint64(len(ops[len(ops)-1].Key) + ledgerValue)
			if len(ops) == cap(ops) || (n+1)%ledgerStep == 0 || n+1 == len(order) {
				if _, err := s.Commit(nil, ops); err != nil {
					t.Fatal(err)
				}
				ops = ops[:0]
			}
			if (n+1)%ledgerStep == 0 || n+1 == len(order) {
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := s.Engine().WaitMaintenance(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	load(rng.Perm(ledgerKeys))
	load(rng.Perm(ledgerKeys)[:ledgerOverwrite])

	var out strings.Builder
	row := func(name string, format string, args ...any) {
		fmt.Fprintf(&out, "%-34s "+format+"\n", append([]any{name}, args...)...)
	}
	st := s.Engine().Stats()
	row("user_bytes", "%d", user)
	row("flushes", "%d", st.Flushes)
	row("compactions", "%d", st.Compactions)
	row("bytes_flushed_per_user_byte", "%.4f", float64(st.BytesFlushed)/float64(user))
	row("bytes_compacted_per_user_byte", "%.4f", float64(st.BytesCompacted)/float64(user))
	row("disk_bytes_per_user_byte", "%.4f", float64(st.DiskBytes)/float64(user))
	perLevel := map[int]int{}
	deepest := 0
	for _, r := range s.Engine().Runs() {
		perLevel[r.Level]++
		deepest = max(deepest, r.Level)
	}
	for lvl := 1; lvl <= deepest; lvl++ {
		row(fmt.Sprintf("runs_at_L%d", lvl), "%d", perLevel[lvl])
	}

	// Gets over a fixed key list: nine in ten present, one in ten absent.
	before := s.VerifyStatsSnapshot()
	for g := 0; g < ledgerGets; g++ {
		key := ledgerKey(rng.Intn(ledgerKeys))
		if g%10 == 9 {
			key = append(key, '~')
		}
		if _, err := Get(s, key); err != nil {
			t.Fatal(err)
		}
	}
	after := s.VerifyStatsSnapshot()
	perGet := func(n uint64) float64 { return float64(n) / ledgerGets }
	row("get_runs_probed", "%.4f", perGet(after.RunsProbed-before.RunsProbed))
	row("get_runs_filtered", "%.4f", perGet(after.RunsFiltered-before.RunsFiltered))
	row("get_runs_cached", "%.4f", perGet(after.RunsCached-before.RunsCached))
	row("get_proof_bytes", "%.1f", perGet(after.ProofBytes-before.ProofBytes))

	// 50-row Scans at seeded starts: one chunk each.
	before = s.VerifyStatsSnapshot()
	for n := 0; n < ledgerScans; n++ {
		lo := rng.Intn(ledgerKeys - ledgerScanRows)
		rows, err := Scan(s, ledgerKey(lo), ledgerKey(lo+ledgerScanRows-1))
		if err != nil || len(rows) != ledgerScanRows {
			t.Fatalf("Scan from %d: %d rows, %v", lo, len(rows), err)
		}
	}
	after = s.VerifyStatsSnapshot()
	row("scan_chunk_proof_bytes", "%.1f", float64(after.ProofBytes-before.ProofBytes)/ledgerScans)

	golden := filepath.Join("testdata", "cost_ledger.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("the cost ledger differs from %s (rerun with -update if the change is meant):\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
