package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"elsm/internal/kvtest/model"
	"elsm/internal/record"
)

func put(t *Table, key string, ts uint64, val string) {
	t.Put(record.Record{Key: []byte(key), Ts: ts, Kind: record.KindSet, Value: []byte(val)})
}

func TestPutGetLatest(t *testing.T) {
	mt := New(nil)
	put(mt, "a", 1, "v1")
	put(mt, "a", 3, "v3")
	put(mt, "a", 2, "v2")
	rec, ok := mt.Get([]byte("a"), record.MaxTs)
	if !ok || string(rec.Value) != "v3" {
		t.Fatalf("latest = %q ok=%v", rec.Value, ok)
	}
}

func TestGetHistorical(t *testing.T) {
	mt := New(nil)
	put(mt, "k", 10, "v10")
	put(mt, "k", 20, "v20")
	put(mt, "k", 30, "v30")
	cases := []struct {
		tsq  uint64
		want string
		ok   bool
	}{
		{5, "", false},
		{10, "v10", true},
		{15, "v10", true},
		{20, "v20", true},
		{25, "v20", true},
		{30, "v30", true},
		{100, "v30", true},
	}
	for _, c := range cases {
		rec, ok := mt.Get([]byte("k"), c.tsq)
		if ok != c.ok || (ok && string(rec.Value) != c.want) {
			t.Fatalf("tsq=%d: got %q,%v want %q,%v", c.tsq, rec.Value, ok, c.want, c.ok)
		}
	}
}

func TestGetMissing(t *testing.T) {
	mt := New(nil)
	put(mt, "b", 1, "v")
	if _, ok := mt.Get([]byte("a"), record.MaxTs); ok {
		t.Fatal("found absent key before")
	}
	if _, ok := mt.Get([]byte("c"), record.MaxTs); ok {
		t.Fatal("found absent key after")
	}
}

func TestTombstoneVisible(t *testing.T) {
	mt := New(nil)
	put(mt, "k", 1, "v")
	mt.Put(record.Record{Key: []byte("k"), Ts: 2, Kind: record.KindDelete})
	rec, ok := mt.Get([]byte("k"), record.MaxTs)
	if !ok || rec.Kind != record.KindDelete {
		t.Fatalf("tombstone not returned: %v %v", rec.Kind, ok)
	}
}

func TestIterSortedOrder(t *testing.T) {
	mt := New(nil)
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		put(mt, fmt.Sprintf("key%04d", rnd.Intn(300)), uint64(i+1), "v")
	}
	it := mt.Iter()
	var prev record.Record
	n := 0
	for ; it.Valid(); it.Next() {
		rec := it.Record()
		if n > 0 && record.CompareRecords(prev, rec) >= 0 {
			t.Fatalf("order violation at %d: %q@%d then %q@%d", n, prev.Key, prev.Ts, rec.Key, rec.Ts)
		}
		prev = rec.Clone()
		n++
	}
	if n != 1000 {
		t.Fatalf("iterated %d of 1000", n)
	}
	if mt.Count() != 1000 {
		t.Fatalf("count = %d", mt.Count())
	}
}

func TestIterSeekGE(t *testing.T) {
	mt := New(nil)
	for i := 0; i < 100; i += 2 {
		put(mt, fmt.Sprintf("k%02d", i), uint64(i+1), "v")
	}
	it := mt.Iter()
	it.SeekGE([]byte("k51"), record.MaxTs)
	if !it.Valid() || string(it.Record().Key) != "k52" {
		t.Fatalf("seek landed at %q", it.Record().Key)
	}
	it.SeekGE([]byte("k99"), record.MaxTs)
	if it.Valid() {
		t.Fatal("seek past end still valid")
	}
}

func TestOverwriteSameKeyTs(t *testing.T) {
	mt := New(nil)
	put(mt, "k", 5, "old")
	put(mt, "k", 5, "new")
	rec, _ := mt.Get([]byte("k"), record.MaxTs)
	if string(rec.Value) != "new" {
		t.Fatalf("value = %q", rec.Value)
	}
	if mt.Count() != 1 {
		t.Fatalf("count = %d", mt.Count())
	}
}

func TestApproxBytesGrows(t *testing.T) {
	mt := New(nil)
	before := mt.ApproxBytes()
	for i := 0; i < 100; i++ {
		put(mt, fmt.Sprintf("key%d", i), uint64(i+1), "some value data")
	}
	if mt.ApproxBytes() <= before {
		t.Fatal("ApproxBytes did not grow")
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	mt := New(nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			put(mt, fmt.Sprintf("k%03d", i%100), uint64(i+1), "v")
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := []byte(fmt.Sprintf("k%03d", i%100))
				if rec, ok := mt.Get(key, record.MaxTs); ok && !bytes.Equal(rec.Key, key) {
					t.Errorf("got key %q for query %q", rec.Key, key)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestClonedRecordsIndependent(t *testing.T) {
	mt := New(nil)
	key := []byte("mutate")
	val := []byte("value")
	mt.Put(record.Record{Key: key, Ts: 1, Kind: record.KindSet, Value: val})
	key[0] = 'X' // caller mutates its buffer after Put
	val[0] = 'X'
	if _, ok := mt.Get([]byte("mutate"), record.MaxTs); !ok {
		t.Fatal("memtable aliased caller's key buffer")
	}
	rec, _ := mt.Get([]byte("mutate"), record.MaxTs)
	if string(rec.Value) != "value" {
		t.Fatalf("value corrupted: %q", rec.Value)
	}
}

func sameRecord(a, b record.Record) bool {
	return bytes.Equal(a.Key, b.Key) && a.Ts == b.Ts && a.Kind == b.Kind && bytes.Equal(a.Value, b.Value)
}

// TestModel drives random Put / Get / Iter / SeekGE sequences against the
// model: few short keys (the empty key among them) with many
// versions each, empty and slab-sized values, tombstones, and duplicate
// (key, ts) pairs that replace a node.
func TestModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		mt := New(nil)
		var want model.Model
		randKey := func() []byte {
			k := make([]byte, rnd.Intn(3))
			for i := range k {
				k[i] = byte('a' + rnd.Intn(2))
			}
			return k
		}
		randValue := func() []byte {
			switch rnd.Intn(10) {
			case 0:
				return nil
			case 1:
				return bytes.Repeat([]byte{'L'}, byteSlab/4+1+rnd.Intn(100)) // its own allocation
			}
			v := make([]byte, rnd.Intn(40))
			rnd.Read(v)
			return v
		}
		for step := 0; step < 2000; step++ {
			switch op := rnd.Intn(10); {
			case op < 5:
				rec := record.Record{Key: randKey(), Ts: uint64(1 + rnd.Intn(300)), Kind: record.KindSet, Value: randValue()}
				if rnd.Intn(8) == 0 {
					rec.Kind, rec.Value = record.KindDelete, nil
				}
				mt.Put(rec)
				want.Put(rec)
			case op < 8:
				key, tsq := randKey(), uint64(rnd.Intn(320))
				got, ok := mt.Get(key, tsq)
				exp, expOK := want.Get(key, tsq)
				if ok != expOK || (ok && !sameRecord(got, exp)) {
					t.Fatalf("seed %d step %d: Get(%q, %d) = %v %+v, want %v %+v", seed, step, key, tsq, ok, got, expOK, exp)
				}
			case op < 9:
				key, ts := randKey(), uint64(rnd.Intn(320))
				it := mt.Iter()
				it.SeekGE(key, ts)
				for i, rec := range want.SeekGE(key, ts) {
					if !it.Valid() || !sameRecord(it.Record(), rec) {
						t.Fatalf("seed %d step %d: SeekGE(%q, %d) diverges from the model at %d", seed, step, key, ts, i)
					}
					it.Next()
				}
				if it.Valid() {
					t.Fatalf("seed %d step %d: SeekGE(%q, %d) runs past the model", seed, step, key, ts)
				}
			default:
				it := mt.Iter()
				for i, rec := range want.SeekGE(nil, record.MaxTs) {
					if !it.Valid() || !sameRecord(it.Record(), rec) {
						t.Fatalf("seed %d step %d: Iter diverges from the model at %d", seed, step, i)
					}
					it.Next()
				}
				if it.Valid() {
					t.Fatalf("seed %d step %d: Iter runs past the model", seed, step)
				}
			}
			if mt.Count() != want.Len() {
				t.Fatalf("seed %d step %d: Count %d, the model holds %d", seed, step, mt.Count(), want.Len())
			}
		}
	}
}

// TestReadersBesideTheWriter runs one writer inserting versions in
// timestamp order, publishing each like the engine's appliedTs, and four
// readers that keep fixing a snapshot timestamp and reading at it without a
// lock until the writer is done: every Get, and every Iter filtered to the
// snapshot, must equal the model at that timestamp, however far the writer
// has moved on. Each new version sorts just before its key's older ones, so
// a lookup that re-read a link after comparing it would return a version
// newer than its snapshot.
func TestReadersBesideTheWriter(t *testing.T) {
	const n, keys = 12000, 40
	recs := make([]record.Record, n)
	var all model.Model
	for i := range recs {
		key := []byte(fmt.Sprintf("k%02d", (i*7)%keys))
		recs[i] = record.Record{Key: key, Ts: uint64(i + 1), Kind: record.KindSet, Value: []byte(fmt.Sprintf("v%d", i))}
		all.Put(recs[i])
	}
	mt := New(nil)
	var applied atomic.Uint64
	var writing atomic.Bool
	writing.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writing.Store(false)
		for _, rec := range recs {
			mt.Put(rec)
			applied.Store(rec.Ts)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			for round := 0; writing.Load() || round < 2; round++ {
				// Every version at or below ts is in the table, so the
				// full model answers a Get at ts.
				ts := applied.Load()
				for i := 0; i < 50; i++ {
					key := []byte(fmt.Sprintf("k%02d", rnd.Intn(keys+2)))
					got, ok := mt.Get(key, ts)
					exp, expOK := all.Get(key, ts)
					if ok != expOK || (ok && !sameRecord(got, exp)) {
						t.Errorf("reader %d at ts %d: Get(%s) = %v %+v, want %v %+v", r, ts, key, ok, got, expOK, exp)
						return
					}
				}
				if round%64 != 0 {
					continue
				}
				var want []record.Record
				for _, rec := range all.SeekGE(nil, record.MaxTs) {
					if rec.Ts <= ts {
						want = append(want, rec)
					}
				}
				i := 0
				for it := mt.Iter(); it.Valid(); it.Next() {
					rec := it.Record()
					if rec.Ts > ts {
						continue // committed after the snapshot
					}
					if i >= len(want) || !sameRecord(rec, want[i]) {
						t.Errorf("reader %d at ts %d: Iter diverges from the model at %d", r, ts, i)
						return
					}
					i++
				}
				if i != len(want) {
					t.Errorf("reader %d at ts %d: Iter saw %d records, want %d", r, ts, i, len(want))
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestApproxBytesFormula pins the flush trigger record for record: it is
// Σ(record size + 8·height) with the heights drawn from the table's seeded
// sequence, a replaced (key, ts) adding only its size difference. The
// engine's flush points — and with them every space and write
// amplification figure — depend on this sequence.
func TestApproxBytesFormula(t *testing.T) {
	rnd := rand.New(rand.NewSource(0xe15a))
	height := func() int {
		h := 1
		for h < 12 && rnd.Intn(4) == 0 {
			h++
		}
		return h
	}
	mt := New(nil)
	want := 0
	vals := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		rec := record.Record{
			Key:   []byte(fmt.Sprintf("key%05d", vals.Intn(4000))),
			Ts:    uint64(vals.Intn(3) + 1),
			Kind:  record.KindSet,
			Value: make([]byte, vals.Intn(200)),
		}
		if old, ok := mt.Get(rec.Key, rec.Ts); ok && old.Ts == rec.Ts {
			want += rec.Size() - old.Size()
		} else {
			want += rec.Size() + 8*height()
		}
		mt.Put(rec)
		if got := mt.ApproxBytes(); got != want {
			t.Fatalf("after record %d: ApproxBytes %d, the formula gives %d", i, got, want)
		}
	}
}
