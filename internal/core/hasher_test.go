package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
func randomStream(rnd *rand.Rand, nRuns int, withMem bool, keepVersions int, bottomMost bool, maxKeys int) ([]uint64, []streamRec) {
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
	nKeys := 1 + rnd.Intn(maxKeys)
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

// randomBounds cuts a stream's key space for parted hashers, the way the
// engine's bounds or a lying host's might: at keys with several versions, at
// keys every version of which is dropped, between keys, before the first and
// after the last, and in pairs with no key between them — empty parts.
func randomBounds(rnd *rand.Rand, stream []streamRec) [][]byte {
	var keys, multi, droppedOnly [][]byte
	for i := 0; i < len(stream); {
		j, allDropped := i, true
		for ; j < len(stream) && bytes.Equal(stream[j].rec.Key, stream[i].rec.Key); j++ {
			allDropped = allDropped && stream[j].dropped
		}
		key := stream[i].rec.Key
		keys = append(keys, key)
		if j-i > 1 {
			multi = append(multi, key)
		}
		if allDropped {
			droppedOnly = append(droppedOnly, key)
		}
		i = j
	}
	pick := func(from [][]byte) []byte {
		if len(from) == 0 {
			return keys[rnd.Intn(len(keys))]
		}
		return from[rnd.Intn(len(from))]
	}
	var bounds [][]byte
	for n := rnd.Intn(5); len(bounds) < n; {
		switch rnd.Intn(6) {
		case 0:
			bounds = append(bounds, pick(multi))
		case 1:
			bounds = append(bounds, pick(droppedOnly))
		case 2:
			bounds = append(bounds, append(append([]byte(nil), pick(keys)...), 0))
		case 3:
			bounds = append(bounds, []byte("a"), []byte("z"))
		case 4:
			k := append(append([]byte(nil), pick(keys)...), 0)
			bounds = append(bounds, k, append(k, 0))
		default:
			bounds = append(bounds, pick(keys))
		}
	}
	slices.SortFunc(bounds, bytes.Compare)
	return slices.CompactFunc(bounds, bytes.Equal)
}

// partOf is the part of a stream cut at bounds that key lies in.
func partOf(key []byte, bounds [][]byte) int {
	return sort.Search(len(bounds), func(i int) bool { return bytes.Compare(bounds[i], key) > 0 })
}

// hashParted digests stream in one pooled hasher per part of bounds, each
// part on a goroutine of its own as the engine feeds them, and finishes the
// joined trees; the first hasher returned holds them. The caller releases
// every hasher.
func hashParted(t *testing.T, inputs []uint64, stream []streamRec, bounds [][]byte, expect, blockSize int) []*compactionHasher {
	t.Helper()
	parts, err := newPartedHashers(nil, inputs, bounds, expect)
	if err != nil {
		t.Fatal(err)
	}
	parts[0].out.blockSize = blockSize
	var wg sync.WaitGroup
	for p, h := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, sr := range stream {
				if partOf(sr.rec.Key, bounds) != p {
					continue
				}
				if err := h.add(sr.src, sr.rec, sr.dropped); err != nil {
					t.Errorf("part %d of %q: add: %v", p, bounds, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	parts[0].finish(parts[1:]...)
	return parts
}

// requireSameJob fails unless two finished hashers agree on everything a
// job reads from them: every input digest, the output digest and its k, the
// leaves reused, every leaf, and every kept record's group, section, chain
// part and whole proof.
func requireSameJob(t *testing.T, what string, got, want *compactionHasher, kept []record.Record) {
	t.Helper()
	g, w := &got.out, &want.out
	for i := range want.inputs {
		if got.inputs[i].digest() != want.inputs[i].digest() {
			t.Fatalf("%s: input %d digest %+v, want %+v", what, i, got.inputs[i].digest(), want.inputs[i].digest())
		}
	}
	if g.digest != w.digest || g.groupBits != w.groupBits || got.reused != want.reused {
		t.Fatalf("%s: output %+v k=%d reused %d, want %+v k=%d reused %d", what,
			g.digest, g.groupBits, got.reused, w.digest, w.groupBits, want.reused)
	}
	for i := 0; i < w.digest.NumLeaves; i++ {
		if g.tree.Leaf(i) != w.tree.Leaf(i) {
			t.Fatalf("%s: leaf %d differs", what, i)
		}
	}
	gotApp, wantApp := g.newAppender(), w.newAppender()
	for i, rec := range kept {
		gg, errGot := gotApp.Group(rec)
		wg, errWant := wantApp.Group(rec)
		if errGot != nil || errWant != nil || gg != wg {
			t.Fatalf("%s rec %d: group %d (%v), want %d (%v)", what, i, gg, errGot, wg, errWant)
		}
		if !bytes.Equal(gotApp.AppendSection(nil), wantApp.AppendSection(nil)) ||
			!bytes.Equal(gotApp.AppendChain(nil), wantApp.AppendChain(nil)) {
			t.Fatalf("%s rec %d: section or chain differs", what, i)
		}
		gp, _ := gotApp.AppendProof(nil, rec)
		wp, _ := wantApp.AppendProof(nil, rec)
		if !bytes.Equal(gp, wp) {
			t.Fatalf("%s rec %d: proof differs", what, i)
		}
	}
}

// TestHasherMatchesReference is the equivalence property of the single-pass
// compaction path: over randomized merge streams it must produce the run
// digests of the per-tree builders it replaced, proofs byte-identical to
// proofFor(rec).Encode(), and proofs that verify. The same stream cut at
// random bounds and digested in parts must give what one hasher gives.
func TestHasherMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(20260928))
	reused, parted := 0, 0
	for iter := 0; iter < 300; iter++ {
		nRuns := 1 + rnd.Intn(4)
		keepVersions := []int{0, 1, 3}[rnd.Intn(3)]
		inputs, stream := randomStream(rnd, nRuns, rnd.Intn(2) == 0, keepVersions, rnd.Intn(2) == 0, 120)

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
			if _, want := refIn[id].Finish(); !h.inputs[i].matches(want) {
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

		bounds := randomBounds(rnd, stream)
		parts := hashParted(t, inputs, stream, bounds, rnd.Intn(2)*len(stream), h.out.blockSize)
		requireSameJob(t, fmt.Sprintf("iter %d cut at %q", iter, bounds), parts[0], h, kept)
		parted += len(parts) - 1
		for _, p := range parts {
			p.release()
		}
	}
	if reused == 0 || parted == 0 {
		t.Fatalf("streams reused %d leaves and were cut %d times; want both", reused, parted)
	}
}

// TestHasherReuseMatchesFresh runs randomized streams back to back through
// one hasher — a large job, a small one, a large one again, and so on — with
// dropped versions, tombstones and reused leaves, and requires of each what
// a fresh hasher gives the same stream: the input digests, the output digest
// and its k, every leaf, and every record's group, section, chain part and
// whole proof. Reuse keeps a finished job's arrays, never their contents.
// Each stream is also cut at random bounds and digested by pooled parted
// hashers, a later part's leaves in pooled chunks, which must agree too.
func TestHasherReuseMatchesFresh(t *testing.T) {
	rnd := rand.New(rand.NewSource(20261017))
	reused := new(compactionHasher)
	leavesReused, dropped := 0, 0
	for job := 0; job < 9; job++ {
		maxKeys := 1500
		if job%2 == 1 {
			maxKeys = 40
		}
		inputs, stream := randomStream(rnd, 1+rnd.Intn(4), rnd.Intn(2) == 0, []int{0, 1, 3}[job%3], job%4 == 0, maxKeys)
		expect := rnd.Intn(2) * len(stream)
		fresh := new(compactionHasher)
		fresh.reset(inputs, expect, expect)
		reused.reset(inputs, expect, expect)
		var kept []record.Record
		for _, h := range []*compactionHasher{fresh, reused} {
			h.out.blockSize = 1024
			for _, sr := range stream {
				if err := h.add(sr.src, sr.rec, sr.dropped); err != nil {
					t.Fatalf("job %d: add: %v", job, err)
				}
			}
		}
		for _, sr := range stream {
			if sr.dropped {
				dropped++
			} else {
				kept = append(kept, sr.rec)
			}
		}
		fresh.finish()
		reused.finish()
		leavesReused += fresh.reused
		requireSameJob(t, fmt.Sprintf("job %d", job), reused, fresh, kept)
		bounds := randomBounds(rnd, stream)
		parts := hashParted(t, inputs, stream, bounds, expect, 1024)
		requireSameJob(t, fmt.Sprintf("job %d cut at %q", job, bounds), parts[0], fresh, kept)
		for _, p := range parts {
			p.release()
		}
	}
	if leavesReused == 0 || dropped == 0 {
		t.Fatalf("streams reused %d leaves and dropped %d versions; want both", leavesReused, dropped)
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

	// A parted job's bounds must ascend strictly, and each part refuses a
	// key outside its own range.
	for _, bounds := range [][][]byte{{[]byte("b"), []byte("a")}, {[]byte("b"), []byte("b")}, {[]byte("a"), []byte("c"), []byte("b")}} {
		if _, err := newPartedHashers(nil, []uint64{1}, bounds, 0); err == nil {
			t.Errorf("bounds %q accepted", bounds)
		}
	}
	for name, c := range map[string]struct {
		part int
		key  string
	}{
		"below the first part's end in the second": {1, "a"},
		"at the first part's end":                  {0, "b"},
		"past the first part's end":                {0, "c"},
		"at the second part's end":                 {1, "d"},
	} {
		parts, err := newPartedHashers(nil, []uint64{1}, [][]byte{[]byte("b"), []byte("d")}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := parts[c.part].add(1, rec(c.key, 5), false); err == nil {
			t.Errorf("key %s: accepted", name)
		}
		for _, h := range parts {
			h.release()
		}
	}
}

// hashStream digests a random full-history stream over nRuns runs and the
// memtable, returning the finished output tree and the records it keeps.
func hashStream(t *testing.T, rnd *rand.Rand, nRuns int) (*outputTree, []record.Record) {
	t.Helper()
	inputs, stream := randomStream(rnd, nRuns, true, 0, false, 120)
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

// TestJobEndLetsGoOfItsHasher: whichever of Committed and Abort ends a job
// hands its hasher back and keeps no reference to it, so nothing of a
// finished job's output tree is reachable through the job.
func TestJobEndLetsGoOfItsHasher(t *testing.T) {
	s := mustOpenP2(t, smallCfg(vfs.NewMem()))
	defer s.Close()
	l := &authListener{c: s}
	rec := record.Record{Key: []byte("k"), Ts: 1, Kind: record.KindSet, Value: []byte("v")}
	for _, end := range []string{"Committed", "Abort"} {
		j := l.BeginJob(lsm.CompactionInfo{OutputRun: 1 << 40, MemtableInput: true, BlockSize: 512}).(*compactionJob)
		j.Filter(0, lsm.MemtableRunID, rec, false)
		if _, err := j.NewProofAppender(); err != nil {
			t.Fatal(err)
		}
		if end == "Committed" {
			j.Committed()
		} else {
			j.Abort()
		}
		if j.parts != nil {
			t.Fatalf("a job ended by %s still holds its hashers", end)
		}
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
	cfg.Workers = lsm.NewWorkerPool(4)
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
