package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// streamRec is one record of a synthetic merge stream: where it came from
// and what the engine's retention policy decided.
type streamRec struct {
	rec     record.Record
	src     uint64 // run ID, lsm.MemtableRunID for the memtable
	dropped bool
}

// randomStream builds a merge stream the way a compaction would see it:
// several sources (runs 1..nRuns, optionally the memtable) hold versions of
// overlapping keys, the merge orders them key ascending and timestamp
// descending, and the engine's retention policy (KeepVersions, tombstone
// shadowing, bottom-most tombstone elimination) marks what is dropped.
func randomStream(rnd *rand.Rand, nRuns int, withMem bool, keepVersions int, bottomMost bool) ([]uint64, []streamRec) {
	var sources []uint64
	for id := 1; id <= nRuns; id++ {
		sources = append(sources, uint64(id))
	}
	inputs := append([]uint64(nil), sources...)
	if withMem {
		sources = append(sources, lsm.MemtableRunID)
	}
	var stream []streamRec
	ts := uint64(1_000_000)
	nKeys := 1 + rnd.Intn(120)
	for k := 0; k < nKeys; k++ {
		key := []byte(fmt.Sprintf("key%04d-%s", k, strings.Repeat("x", rnd.Intn(6))))
		nVersions := 1
		if rnd.Intn(3) == 0 {
			nVersions += rnd.Intn(6)
		}
		kept, dropRest := 0, false
		for v := 0; v < nVersions; v++ {
			ts -= uint64(1 + rnd.Intn(3))
			rec := record.Record{Key: key, Ts: ts, Kind: record.KindSet, Value: []byte(fmt.Sprintf("v%d-%d", k, ts))}
			if rnd.Intn(8) == 0 {
				rec.Kind, rec.Value = record.KindDelete, nil
			}
			// lsm.runCompaction's policy, restated.
			drop := false
			switch {
			case dropRest:
				drop = true
			case rec.Kind == record.KindDelete && keepVersions > 0:
				dropRest = true
				if bottomMost {
					drop = true
				} else {
					kept++
				}
			default:
				if keepVersions > 0 && kept >= keepVersions {
					drop = true
				} else {
					kept++
				}
			}
			stream = append(stream, streamRec{rec: rec, src: sources[rnd.Intn(len(sources))], dropped: drop})
		}
	}
	return inputs, stream
}

// TestHasherMatchesReference is the equivalence property of the single-pass
// compaction path: over randomized merge streams it must produce the run
// digests of the per-tree builders it replaced, proofs byte-identical to
// proofFor(rec).Encode(), and proofs that verify.
func TestHasherMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(20260928))
	reused := 0
	for iter := 0; iter < 300; iter++ {
		nRuns := 1 + rnd.Intn(4)
		keepVersions := []int{0, 1, 3}[rnd.Intn(3)]
		inputs, stream := randomStream(rnd, nRuns, rnd.Intn(2) == 0, keepVersions, rnd.Intn(2) == 0)

		h := newCompactionHasher(inputs, rnd.Intn(2)*len(stream))
		refIn := map[uint64]*refTreeBuilder{}
		for _, id := range inputs {
			refIn[id] = &refTreeBuilder{}
		}
		refOut := &refTreeBuilder{trackVer: true}
		var kept []record.Record
		for _, sr := range stream {
			if err := h.add(sr.src, sr.rec, sr.dropped); err != nil {
				t.Fatalf("iter %d: add: %v", iter, err)
			}
			if sr.src != lsm.MemtableRunID {
				if err := refIn[sr.src].Add(sr.rec); err != nil {
					t.Fatal(err)
				}
			}
			if !sr.dropped {
				if err := refOut.Add(sr.rec); err != nil {
					t.Fatal(err)
				}
				kept = append(kept, sr.rec)
			}
		}
		out := h.finish()
		reused += h.reused
		for i, id := range inputs {
			if _, want := refIn[id].Finish(); h.inputs[i].digest() != want {
				t.Fatalf("iter %d: input run %d digest %+v, reference %+v", iter, id, h.inputs[i].digest(), want)
			}
		}
		ref := refFinishOutput(refOut)
		if out.digest != ref.digest {
			t.Fatalf("iter %d: output digest %+v, reference %+v", iter, out.digest, ref.digest)
		}

		// One appender sizes the whole stream, as the engine does to place
		// file boundaries; then each "file" (a random contiguous cut) gets
		// its own.
		sizer := out.newAppender()
		var app *proofAppender
		for i, rec := range kept {
			if app == nil || rnd.Intn(10) == 0 {
				app = out.newAppender()
			}
			p, err := ref.proofFor(rec)
			if err != nil {
				t.Fatal(err)
			}
			want := p.Encode()
			if n, err := sizer.ProofLen(rec); err != nil || n != len(want) {
				t.Fatalf("iter %d rec %d: ProofLen = %d, %v; want %d", iter, i, n, err, len(want))
			}
			prefix := []byte("block bytes before")
			got, err := app.AppendProof(append([]byte(nil), prefix...), rec)
			if err != nil {
				t.Fatalf("iter %d rec %d: AppendProof: %v", iter, i, err)
			}
			if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("iter %d rec %d: proof bytes differ from proofFor(rec).Encode()", iter, i)
			}
			rec.Proof = got[len(prefix):]
			if err := noCache.verifyMembership(rec.Key, rec.Ts, rec, out.digest); err != nil {
				t.Fatalf("iter %d rec %d: emitted proof does not verify: %v", iter, i, err)
			}
		}
	}
	if reused == 0 {
		t.Fatal("no stream exercised leaf reuse")
	}
}

// TestLeafReuse pins when an output leaf may be taken over from an input
// run's reconstruction, and that a taken-over leaf is the leaf a fresh fold
// computes (the reference recomputes every one).
func TestLeafReuse(t *testing.T) {
	set := func(key string, ts uint64) record.Record {
		return record.Record{Key: []byte(key), Ts: ts, Kind: record.KindSet, Value: []byte(fmt.Sprintf("%s@%d", key, ts))}
	}
	cases := []struct {
		name   string
		stream []streamRec
		reused int
	}{
		{"one run rewritten whole", []streamRec{
			{set("a", 9), 1, false}, {set("a", 5), 1, false}, {set("b", 7), 1, false}}, 2},
		{"a dropped version breaks the chain", []streamRec{
			{set("a", 9), 1, false}, {set("a", 5), 1, true}, {set("b", 7), 1, false}}, 1},
		{"a memtable version on top", []streamRec{
			{set("a", 9), lsm.MemtableRunID, false}, {set("a", 5), 1, false}, {set("b", 7), 1, false}}, 1},
		{"a dropped memtable version does not matter", []streamRec{
			{set("a", 5), 1, false}, {set("a", 3), lsm.MemtableRunID, true}}, 1},
		{"two runs interleaved in one key", []streamRec{
			{set("a", 9), 1, false}, {set("a", 5), 2, false}, {set("b", 7), 2, false}}, 1},
		{"the other run's version dropped", []streamRec{
			{set("a", 9), 1, false}, {set("a", 5), 2, true}}, 1},
		{"everything dropped", []streamRec{
			{set("a", 9), 1, true}, {set("b", 5), 2, true}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newCompactionHasher([]uint64{1, 2}, 0)
			refOut := &refTreeBuilder{trackVer: true}
			for _, sr := range tc.stream {
				if err := h.add(sr.src, sr.rec, sr.dropped); err != nil {
					t.Fatal(err)
				}
				if !sr.dropped {
					if err := refOut.Add(sr.rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			out := h.finish()
			if h.reused != tc.reused {
				t.Fatalf("reused %d leaves, want %d", h.reused, tc.reused)
			}
			refTree, refDigest := refOut.Finish()
			if out.digest != refDigest {
				t.Fatalf("output digest %+v, recomputed %+v", out.digest, refDigest)
			}
			for i := 0; i < refTree.NumLeaves(); i++ {
				if out.tree.Leaf(i) != refTree.Leaf(i) {
					t.Fatalf("leaf %d differs from the recomputed leaf", i)
				}
			}
		})
	}
}

// TestHasherRejectsDisorder: stream-order and version-order violations —
// what a tampered input block turns into once merged — stop the job.
func TestHasherRejectsDisorder(t *testing.T) {
	rec := func(key string, ts uint64) record.Record {
		return record.Record{Key: []byte(key), Ts: ts, Kind: record.KindSet}
	}
	for name, stream := range map[string][]streamRec{
		"key goes backwards":             {{rec("b", 5), 1, false}, {rec("a", 9), 1, false}},
		"version repeats within a run":   {{rec("a", 5), 1, true}, {rec("a", 5), 1, true}},
		"version ascends within a run":   {{rec("a", 5), 1, true}, {rec("a", 7), 2, true}, {rec("a", 6), 1, true}},
		"kept versions ascend":           {{rec("a", 5), 1, false}, {rec("a", 6), 2, false}},
		"record from an undeclared run":  {{rec("a", 5), 3, false}},
		"kept version repeats across it": {{rec("a", 5), 1, false}, {rec("a", 5), lsm.MemtableRunID, false}},
	} {
		h := newCompactionHasher([]uint64{1, 2}, 0)
		var err error
		for _, sr := range stream {
			if err = h.add(sr.src, sr.rec, sr.dropped); err != nil {
				break
			}
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// hashStream digests a random full-history stream over nRuns runs and the
// memtable, returning the finished output tree and the records it keeps.
func hashStream(t *testing.T, rnd *rand.Rand, nRuns int) (*outputTree, []record.Record) {
	t.Helper()
	inputs, stream := randomStream(rnd, nRuns, true, 0, false)
	h := newCompactionHasher(inputs, 0)
	var kept []record.Record
	for _, sr := range stream {
		if err := h.add(sr.src, sr.rec, sr.dropped); err != nil {
			t.Fatal(err)
		}
		if !sr.dropped {
			kept = append(kept, sr.rec)
		}
	}
	return h.finish(), kept
}

// TestAppenderLocatesOutOfOrder: the cursor is a fast path, not a contract.
// Records asked for in any order get their proofs; records the tree does not
// hold get the errors the keyed lookup used to give.
func TestAppenderLocatesOutOfOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	out, kept := hashStream(t, rnd, 2)
	inOrder := out.newAppender()
	want := make([][]byte, len(kept))
	for i, rec := range kept {
		p, err := inOrder.AppendProof(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	shuffled := out.newAppender()
	for _, i := range rnd.Perm(len(kept)) {
		got, err := shuffled.AppendProof(nil, kept[i])
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("record %d asked for out of order: err %v, same bytes %v", i, err, bytes.Equal(got, want[i]))
		}
	}
	stranger := record.Record{Key: []byte("key9999-absent"), Ts: 1}
	if _, err := shuffled.ProofLen(stranger); err == nil || !strings.Contains(err.Error(), "no leaf for key") {
		t.Fatalf("absent key: %v", err)
	}
	ghost := kept[0]
	ghost.Ts = 1
	if _, err := shuffled.AppendProof(nil, ghost); err == nil || !strings.Contains(err.Error(), "no version") {
		t.Fatalf("absent version: %v", err)
	}
}

// TestConcurrentAppenders drives the engine's pipelined output build: the
// files of one job are built at once, each through its own appender over the
// shared finished tree. Run under -race.
func TestConcurrentAppenders(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	out, kept := hashStream(t, rnd, 3)
	seq := out.newAppender()
	want := make([][]byte, len(kept))
	for i, rec := range kept {
		want[i], _ = seq.AppendProof(nil, rec)
	}
	const files = 8
	var wg sync.WaitGroup
	for f := 0; f < files; f++ {
		lo, hi := f*len(kept)/files, (f+1)*len(kept)/files
		app := out.newAppender()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				got, err := app.AppendProof(nil, kept[i])
				if err != nil || !bytes.Equal(got, want[i]) {
					t.Errorf("record %d built concurrently: err %v, same bytes %v", i, err, bytes.Equal(got, want[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestProofListOverflow: the format counts newer versions in a uint16. A key
// with more than 65 535 newer versions in one run has no encodable proof:
// the write path must refuse it, not wrap the count.
func TestProofListOverflow(t *testing.T) {
	const versions = maxProofList + 2
	h := newCompactionHasher(nil, 0)
	key := []byte("hot")
	for v := 0; v < versions; v++ {
		rec := record.Record{Key: key, Ts: uint64(versions - v), Kind: record.KindSet}
		if err := h.add(lsm.MemtableRunID, rec, false); err != nil {
			t.Fatal(err)
		}
	}
	app := h.finish().newAppender()
	last := record.Record{Key: key, Ts: 2} // maxProofList newer versions: the limit
	if n, err := app.ProofLen(last); err != nil || n != proofSize(maxProofList, 0) {
		t.Fatalf("proof at the limit: len %d, err %v", n, err)
	}
	over := record.Record{Key: key, Ts: 1}
	if _, err := app.ProofLen(over); !errors.Is(err, ErrBadProof) {
		t.Fatalf("ProofLen past the limit = %v, want ErrBadProof", err)
	}
	if _, err := app.AppendProof(nil, over); !errors.Is(err, ErrBadProof) {
		t.Fatalf("AppendProof past the limit = %v, want ErrBadProof", err)
	}
	p := &EmbeddedProof{Newer: make([]ChainEntry, maxProofList+1)}
	if enc := p.Encode(); enc != nil {
		t.Fatalf("Encode wrapped an over-long list into %d bytes", len(enc))
	}
}

// TestDecodeProofSizing: the decoded lists have exactly the announced
// lengths, and a header announcing more than the bytes hold is rejected
// before anything is sized from it.
func TestDecodeProofSizing(t *testing.T) {
	p := &EmbeddedProof{LeafIndex: 3, Newer: make([]ChainEntry, 5)}
	for i := range p.Newer {
		p.Newer[i].Ts = uint64(10 + i)
	}
	p.Path = make([]merkle.PathNode, 9)
	got, err := DecodeProof(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Newer) != 5 || cap(got.Newer) != 5 || len(got.Path) != 9 || cap(got.Path) != 9 {
		t.Fatalf("decoded lists: newer %d/%d, path %d/%d", len(got.Newer), cap(got.Newer), len(got.Path), cap(got.Path))
	}
	bare, err := DecodeProof((&EmbeddedProof{}).Encode())
	if err != nil || bare.Newer != nil || bare.Path != nil {
		t.Fatalf("empty lists decode to %v %v, err %v", bare.Newer, bare.Path, err)
	}
	hostile := (&EmbeddedProof{}).Encode()
	hostile[4], hostile[5] = 0xff, 0xff // 65 535 newer versions in 40 bytes
	if _, err := DecodeProof(hostile); !errors.Is(err, ErrBadProof) {
		t.Fatalf("oversized chain count: %v", err)
	}
	hostile = (&EmbeddedProof{}).Encode()
	hostile[len(hostile)-2], hostile[len(hostile)-1] = 0xff, 0xff
	if _, err := DecodeProof(hostile); !errors.Is(err, ErrBadProof) {
		t.Fatalf("oversized path count: %v", err)
	}
}

// TestTamperedInputAbortsReusingCompaction rewrites a bottom run — the case
// where every output leaf is taken over from the input's reconstruction —
// after flipping one value byte in it. Reuse must not weaken the input
// check: the reconstructed root differs from the trusted one and the job
// aborts with ErrCompactionInput, leaving the store as it was.
func TestTamperedInputAbortsReusingCompaction(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	cfg.MemtableSize = 1 << 20
	cfg.LevelBase = 1 << 30
	s := mustOpenP2(t, cfg)
	defer s.Close()
	for i := 0; i < 300; i++ {
		if _, err := Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("value-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	flipped := false
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if at := bytes.Index(f.Bytes(), []byte("value-00123")); at >= 0 {
			if err := fs.Corrupt(name, int64(at)+8); err != nil {
				t.Fatal(err)
			}
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("value to tamper with not found in any table")
	}
	before := s.Engine().Runs()
	err = s.Compact(before[0].Level)
	if !errors.Is(err, ErrCompactionInput) {
		t.Fatalf("compaction over a tampered run = %v, want ErrCompactionInput", err)
	}
	if after := s.Engine().Runs(); len(after) != len(before) || after[0] != before[0] {
		t.Fatalf("aborted compaction changed the version: %v → %v", before, after)
	}
}

// TestPipelinedOutputBuildVerifies is the concurrent-flusher path end to
// end: a compaction whose output spans many files builds them at once, each
// through its own proof appender, and every record of every file must then
// verify. Run under -race.
func TestPipelinedOutputBuildVerifies(t *testing.T) {
	cfg := smallCfg(nil) // 4 KiB files: a 1500-key run is dozens of them
	cfg.MemtableSize = 1 << 20
	cfg.LevelBase = 1 << 30
	cfg.CompactionWorkers = 4
	s := mustOpenP2(t, cfg)
	defer s.Close()
	const n = 1500
	for round := 0; round < 2; round++ {
		for i := round; i < n; i += 1 + round {
			if _, err := Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("r%d-%05d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			if err := s.Compact(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Compact(1); err != nil { // two runs, version chains, many files
		t.Fatal(err)
	}
	if st := s.Engine().Stats(); st.Compactions != 2 {
		t.Fatalf("%d compactions, want 2", st.Compactions)
	}
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("r0-%05d", i)
		if i%2 == 1 {
			want = fmt.Sprintf("r1-%05d", i)
		}
		res, err := Get(s, []byte(fmt.Sprintf("key%05d", i)))
		if err != nil || !res.Found || string(res.Value) != want {
			t.Fatalf("key %d: %q found=%v err=%v, want %q", i, res.Value, res.Found, err, want)
		}
	}
	rows, err := Scan(s, []byte("key"), []byte("kez"))
	if err != nil || len(rows) != n {
		t.Fatalf("verified scan: %d rows, err %v, want %d", len(rows), err, n)
	}
}
