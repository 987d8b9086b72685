package core

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"elsm/internal/hashutil"
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

// jobCompressions splits the SHA-256 compressions of maintenance between
// flushes and compactions. One worker runs the jobs one at a time, so what is
// hashed from one job's start to the next's, or to the settle, is the first
// job's; what a Flush hashes before its job starts (the freeze) is the
// flush's.
type jobCompressions struct {
	mu                   sync.Mutex
	mark                 uint64 // the count where the running job began
	flush                bool   // the running job is a flush
	flushes, compactions uint64
}

// next charges what was hashed since mark to the running job and starts
// the next one.
func (j *jobCompressions) next(flush bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	now := hashutil.Compressions()
	if j.flush {
		j.flushes += now - j.mark
	} else {
		j.compactions += now - j.mark
	}
	j.mark, j.flush = now, flush
}

// start opens a window at a Flush: nothing hashed before it is charged.
func (j *jobCompressions) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.mark, j.flush = hashutil.Compressions(), true
}

// TestCostLedger counts what the write path and the read path cost on a
// seeded paced load — default geometry, one maintenance worker, an explicit
// Flush and WaitMaintenance every 512 records, then an overwrite pass paced
// the same way — and diffs the counts with testdata/cost_ledger.golden
// (go test -run TestCostLedger -update ./internal/core rewrites it). Every
// row is a count or a ratio of counts, so the file is the same on any
// machine and in any run: a change to the merge policy, the proof layout or
// the read path shows up as a diff of this file. The rows that end in
// compressions count the SHA-256 blocks hashutil compresses: per proved Get,
// per run an absent key is proved absent from, per 50-row Scan chunk, and
// per user byte flushed or compacted.
func TestCostLedger(t *testing.T) {
	hashutil.CountCompressions(true)
	defer hashutil.CountCompressions(false)
	var jobs jobCompressions
	s := mustOpenP2(t, Config{
		FS:           vfs.NewMem(),
		CacheSize:    8 << 20,
		KeepVersions: 1,
		Workers:      lsm.NewWorkerPool(1),
		beginJob:     func(info lsm.CompactionInfo) { jobs.next(info.MemtableInput) },
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
				jobs.start()
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := s.Engine().WaitMaintenance(); err != nil {
					t.Fatal(err)
				}
				jobs.next(false)
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
	row("flush_compressions_per_user_byte", "%.4f", float64(jobs.flushes)/float64(user))
	row("compact_compressions_per_user_byte", "%.4f", float64(jobs.compactions)/float64(user))
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

	// Gets over a fixed key list: nine in ten present, one in ten absent. A
	// present key's Get is proved if it proves a run, and every run an
	// absent key's Get proves is an absence proof.
	before := s.VerifyStatsSnapshot()
	var proved, provedCost, absentProofs, absentCost uint64
	for g := 0; g < ledgerGets; g++ {
		key := ledgerKey(rng.Intn(ledgerKeys))
		absent := g%10 == 9
		if absent {
			key = append(key, '~')
		}
		probed, hashed := s.VerifyStatsSnapshot().RunsProbed, hashutil.Compressions()
		if _, err := Get(s, key); err != nil {
			t.Fatal(err)
		}
		probed, hashed = s.VerifyStatsSnapshot().RunsProbed-probed, hashutil.Compressions()-hashed
		switch {
		case absent:
			absentProofs += probed
			absentCost += hashed
		case probed > 0:
			proved++
			provedCost += hashed
		}
	}
	after := s.VerifyStatsSnapshot()
	perGet := func(n uint64) float64 { return float64(n) / ledgerGets }
	row("get_runs_probed", "%.4f", perGet(after.RunsProbed-before.RunsProbed))
	row("get_runs_filtered", "%.4f", perGet(after.RunsFiltered-before.RunsFiltered))
	row("get_runs_cached", "%.4f", perGet(after.RunsCached-before.RunsCached))
	row("get_proof_bytes", "%.1f", perGet(after.ProofBytes-before.ProofBytes))
	row("get_compressions_per_proved_get", "%.2f", float64(provedCost)/float64(proved))
	row("absent_key_compressions_per_proof", "%.2f", float64(absentCost)/float64(absentProofs))

	// 50-row Scans at seeded starts: one chunk each.
	before = s.VerifyStatsSnapshot()
	hashed := hashutil.Compressions()
	for n := 0; n < ledgerScans; n++ {
		lo := rng.Intn(ledgerKeys - ledgerScanRows)
		rows, err := Scan(s, ledgerKey(lo), ledgerKey(lo+ledgerScanRows-1))
		if err != nil || len(rows) != ledgerScanRows {
			t.Fatalf("Scan from %d: %d rows, %v", lo, len(rows), err)
		}
	}
	after = s.VerifyStatsSnapshot()
	row("scan_chunk_proof_bytes", "%.1f", float64(after.ProofBytes-before.ProofBytes)/ledgerScans)
	row("scan_chunk_compressions", "%.1f", float64(hashutil.Compressions()-hashed)/ledgerScans)

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
