package core

import (
	"fmt"
	"testing"

	"elsm/internal/record"
)

// TestHistoricalScanSeesMemtableHistory regression-tests ScanAt: a
// historical range query must return the version that was current at tsq
// even when newer versions of the key still sit in the memtable.
func TestHistoricalScanSeesMemtableHistory(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	tsOld := make(map[string]uint64)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key%02d", i)
		ts, err := Put(s, []byte(key), []byte("old"))
		if err != nil {
			t.Fatal(err)
		}
		tsOld[key] = ts
	}
	cut := s.Engine().LastTs()
	for i := 0; i < 20; i++ {
		if _, err := Put(s, []byte(fmt.Sprintf("key%02d", i)), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	// Everything is still in the memtable: the historical scan must see
	// the "old" values at the cut timestamp.
	out, err := ScanAll(s.IterAt(nil, []byte("key00"), []byte("key19"), cut))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Fatalf("historical scan returned %d of 20", len(out))
	}
	for _, r := range out {
		if string(r.Value) != "old" {
			t.Fatalf("key %q at ts %d = %q, want old", r.Key, cut, r.Value)
		}
	}
	// At the latest timestamp, the same scan sees the new values.
	out, err = ScanAll(s.IterAt(nil, []byte("key00"), []byte("key19"), record.MaxTs))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out {
		if string(r.Value) != "new" {
			t.Fatalf("key %q latest = %q, want new", r.Key, r.Value)
		}
	}
	// After a flush the same historical scan still verifies (versions now
	// live in on-disk chains).
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err = ScanAll(s.IterAt(nil, []byte("key00"), []byte("key19"), cut))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 20 {
		t.Fatalf("post-flush historical scan returned %d of 20", len(out))
	}
	for _, r := range out {
		if string(r.Value) != "old" {
			t.Fatalf("post-flush key %q = %q, want old", r.Key, r.Value)
		}
	}
	// Before any writes: verified-empty historical scan.
	out, err = ScanAll(s.IterAt(nil, []byte("key00"), []byte("key19"), tsOld["key00"]-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("pre-history scan returned %d records", len(out))
	}
}
