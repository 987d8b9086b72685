package core

import (
	"bytes"
	"fmt"
	"testing"

	"elsm/internal/record"
)

// invarianceStore builds the fixed tree of TestGetEarlyStopCounts — three
// explicit flushes, oldest run first — with fill keys beside the named ones
// and one key of three versions in the middle run, at the default block and
// file sizes. It returns the store and the timestamps of the three versions.
func invarianceStore(t *testing.T) (*Store, []uint64) {
	t.Helper()
	cfg := smallCfg(nil)
	cfg.MemtableSize = 1 << 20 // only the explicit flushes below make runs
	cfg.BlockSize, cfg.TableFileSize = 0, 0
	cfg.IterChunkKeys = 16
	cfg.DisableCompaction = true
	s := mustOpenP2(t, cfg)
	var multi []uint64
	for run, keys := range [][]string{{"deep", "shared"}, {"mid"}, {"new", "shared"}} {
		for i := 0; i < 100; i++ {
			keys = append(keys, fmt.Sprintf("fill-%d-%03d", run, i))
		}
		for _, k := range keys {
			if _, err := Put(s, []byte(k), []byte("v-"+k)); err != nil {
				t.Fatal(err)
			}
		}
		for v := 0; run == 1 && v < 3; v++ {
			ts, err := Put(s, []byte("multi"), []byte(fmt.Sprintf("v-multi-%d", v)))
			if err != nil {
				t.Fatal(err)
			}
			multi = append(multi, ts)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return s, multi
}

// TestVerifyWorkInvariance pins what the enclave sees against the numbers the
// per-record proof layout gave on this tree: every witness the host hands
// over is byte for byte the reference EmbeddedProof encoding, and the proof
// bytes, node hashes and cache hits of a fixed list of Gets and Scans are
// the ones measured before proofs were stored per block, less the runs the
// enclave's key filters skip. Only the bytes on disk may change, and they
// must shrink.
func TestVerifyWorkInvariance(t *testing.T) {
	s, multi := invarianceStore(t)
	defer s.Close()

	// Every witness equals the reference proof.
	snap := s.Engine().AcquireSnapshot()
	refs := make([]*refOutputTree, len(snap.Runs()))
	for i := range snap.Runs() {
		b := &refTreeBuilder{trackVer: true}
		if err := snap.RunRecords(i, func(rec record.Record) error { return b.Add(rec.Clone()) }); err != nil {
			t.Fatal(err)
		}
		refs[i] = refFinishOutput(b)
	}
	same := func(what string, run int, rec *record.Record) {
		t.Helper()
		if rec == nil {
			return
		}
		p, err := refs[run].proofFor(*rec)
		if err != nil {
			t.Fatalf("%s in run %d: %v", what, run, err)
		}
		if !bytes.Equal(rec.Proof, p.Encode()) {
			t.Fatalf("%s %q@%d in run %d: witness proof differs from the reference encoding", what, rec.Key, rec.Ts, run)
		}
	}
	probes := []string{"a", "deep", "fill-0-050", "fill-0-050x", "fill-1-099", "mid", "multi", "new", "shared", "zzz"}
	for i := range snap.Runs() {
		for _, k := range probes {
			for _, tsq := range append([]uint64{record.MaxTs}, multi...) {
				lk, err := snap.LookupRun(i, []byte(k), tsq)
				if err != nil {
					t.Fatal(err)
				}
				if lk.Found {
					same("found", i, &lk.Rec)
				}
				same("pred", i, lk.Pred)
				same("succ", i, lk.Succ)
			}
		}
		rs, err := snap.ScanRunChunk(i, []byte("fill-0-020"), []byte("mid"), 40)
		if err != nil {
			t.Fatal(err)
		}
		for j := range rs.Records {
			same("scanned", i, &rs.Records[j])
		}
		same("scan pred", i, rs.Pred)
		same("scan succ", i, rs.Succ)
	}
	snap.Release()

	// The work of a fixed list of reads, cold and then warm.
	type work struct {
		proofBytes                           []uint64
		hashes, hits, misses, runs, filtered uint64
	}
	measure := func() work {
		var w work
		before := s.VerifyStatsSnapshot()
		for _, k := range probes {
			s.emptyRecordCache() // every Get proves: the node cache alone is warm
			v0 := s.VerifyStatsSnapshot().ProofBytes
			if _, err := Get(s, []byte(k)); err != nil {
				t.Fatalf("get %q: %v", k, err)
			}
			w.proofBytes = append(w.proofBytes, s.VerifyStatsSnapshot().ProofBytes-v0)
		}
		for _, tsq := range multi {
			s.emptyRecordCache()
			v0 := s.VerifyStatsSnapshot().ProofBytes
			if res, err := s.GetAt(nil, []byte("multi"), tsq); err != nil || !res.Found || res.Ts != tsq {
				t.Fatalf("get multi@%d: %+v, %v", tsq, res, err)
			}
			w.proofBytes = append(w.proofBytes, s.VerifyStatsSnapshot().ProofBytes-v0)
		}
		for _, r := range [][2]string{{"a", "zzz"}, {"fill-0-020", "fill-0-070"}, {"fill-1-090", "new"}, {"m", "n"}} {
			v0 := s.VerifyStatsSnapshot().ProofBytes
			if _, err := Scan(s, []byte(r[0]), []byte(r[1])); err != nil {
				t.Fatalf("scan %q: %v", r, err)
			}
			w.proofBytes = append(w.proofBytes, s.VerifyStatsSnapshot().ProofBytes-v0)
		}
		after := s.VerifyStatsSnapshot()
		w.hashes = after.VerifyNodeHashes - before.VerifyNodeHashes
		w.hits = after.VerifyNodeCacheHits - before.VerifyNodeCacheHits
		w.misses = after.VerifyNodeCacheMisses - before.VerifyNodeCacheMisses
		w.runs = after.RunsProbed - before.RunsProbed
		w.filtered = after.RunsFiltered - before.RunsFiltered
		return w
	}
	// The Gets' proof bytes are what is left of the ones measured on this
	// tree with one root path stored per record, 813, 813, 813, 1084, 476,
	// 549, 549, 172, 172, 596, 629, 589 and 549, once each run whose key
	// filter rules the key out is skipped: runs proved and runs filtered add
	// up to the 29 runs those Gets proved. The Scans consult no filter.
	perRead := []uint64{0, 542, 271, 0, 205, 172, 172, 172, 172, 0, 252, 212, 172, 33638, 6504, 14058, 1270}
	const parentDiskBytes = 94221
	for _, tc := range []struct {
		name string
		want work
	}{
		{"cold", work{proofBytes: perRead, hashes: 769, hits: 201, misses: 10, runs: 11, filtered: 18}},
		{"warm", work{proofBytes: perRead, hashes: 566, hits: 207, misses: 4, runs: 11, filtered: 18}},
	} {
		if got := measure(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: verify work %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if disk := s.Engine().DiskBytes(); disk*100 > parentDiskBytes*45 {
		t.Errorf("DiskBytes %d, want at most 0.45 × %d", disk, parentDiskBytes)
	}
}
