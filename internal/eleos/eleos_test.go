package eleos

import (
	"errors"
	"fmt"
	"testing"

	"elsm/internal/core"
	"elsm/internal/record"
	"elsm/internal/ycsb"
)

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := mustOpen(t, Config{})
	defer s.Close()
	if _, err := core.Put(s, []byte("b"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Put(s, []byte("a"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	res, err := core.Get(s, []byte("a"))
	if err != nil || !res.Found || string(res.Value) != "v2" {
		t.Fatalf("get a = %+v err=%v", res, err)
	}
	if res, _ := core.Get(s, []byte("zz")); res.Found {
		t.Fatal("found absent key")
	}
	if _, err := core.Delete(s, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if res, _ := core.Get(s, []byte("a")); res.Found {
		t.Fatal("deleted key still found")
	}
}

func TestUpdateInPlace(t *testing.T) {
	s := mustOpen(t, Config{})
	defer s.Close()
	ts1, _ := core.Put(s, []byte("k"), []byte("v1"))
	ts2, _ := core.Put(s, []byte("k"), []byte("v2"))
	if ts2 <= ts1 {
		t.Fatal("timestamps not monotonic")
	}
	res, _ := core.Get(s, []byte("k"))
	if string(res.Value) != "v2" || res.Ts != ts2 {
		t.Fatalf("res = %+v", res)
	}
	// Update-in-place has no history.
	old, _ := s.GetAt(nil, []byte("k"), ts1)
	if old.Found {
		t.Fatal("update-in-place store returned history")
	}
}

func TestManyInsertsSorted(t *testing.T) {
	s := mustOpen(t, Config{})
	defer s.Close()
	// Insert in reverse order to force shifting.
	for i := 2000; i > 0; i-- {
		if _, err := core.Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	out, err := core.Scan(s, []byte("key00000"), []byte("key99999"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2000 {
		t.Fatalf("scan = %d entries", len(out))
	}
	for i := 1; i < len(out); i++ {
		if string(out[i-1].Key) >= string(out[i].Key) {
			t.Fatal("scan out of order")
		}
	}
}

func TestCapacityLimit(t *testing.T) {
	s := mustOpen(t, Config{MaxBytes: 4096})
	defer s.Close()
	var hitCap bool
	for i := 0; i < 1000; i++ {
		if _, err := core.Put(s, []byte(fmt.Sprintf("key%05d", i)), make([]byte, 100)); err != nil {
			if !errors.Is(err, ErrCapacity) {
				t.Fatalf("unexpected error: %v", err)
			}
			hitCap = true
			break
		}
	}
	if !hitCap {
		t.Fatal("capacity limit never hit")
	}
}

func TestBulkLoadAndScan(t *testing.T) {
	s := mustOpen(t, Config{})
	defer s.Close()
	recs := ycsb.GenRecords(3000, 32)
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1499, 2999} {
		res, err := core.Get(s, recs[i].Key)
		if err != nil || !res.Found {
			t.Fatalf("bulk key %d: %+v err=%v", i, res, err)
		}
	}
	out, err := core.Scan(s, ycsb.Key(100), ycsb.Key(199))
	if err != nil || len(out) != 100 {
		t.Fatalf("scan = %d err=%v", len(out), err)
	}
	// Bulk load twice rejected; oversized rejected.
	if err := s.BulkLoad(recs); err == nil {
		t.Fatal("second bulk load accepted")
	}
	s2 := mustOpen(t, Config{MaxBytes: 1024})
	defer s2.Close()
	if err := s2.BulkLoad(recs); !errors.Is(err, ErrCapacity) {
		t.Fatalf("oversized bulk load: %v", err)
	}
}

func TestInsertAfterBulkLoad(t *testing.T) {
	s := mustOpen(t, Config{})
	defer s.Close()
	if err := s.BulkLoad(ycsb.GenRecords(500, 16)); err != nil {
		t.Fatal(err)
	}
	ts, err := core.Put(s, []byte("zzz-new"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if ts <= 500 {
		t.Fatalf("ts %d did not advance past bulk data", ts)
	}
	res, _ := core.Get(s, []byte("zzz-new"))
	if !res.Found {
		t.Fatal("inserted key missing")
	}
}

func TestPersistenceFlushes(t *testing.T) {
	s := mustOpen(t, Config{PersistEvery: 10})
	for i := 0; i < 25; i++ {
		core.Put(s, []byte(fmt.Sprintf("k%02d", i)), []byte("value"))
	}
	if s.persistFile.Size() == 0 {
		t.Fatal("nothing persisted after 25 writes with interval 10")
	}
	s.Close()
}

var _ = record.MaxTs // keep record import for doc parity
