package wal

import (
	"runtime"
	"testing"

	"elsm/internal/hashutil"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// FuzzWALReplay hands ReplayBytes an arbitrary log — the host keeps the WAL
// — and holds it to what recovery and checkpoint import rely on: it never
// panics; it allocates a small multiple of the log, never a length a frame
// declares; it delivers only records of whole marker-terminated groups; and
// CommittedSize cuts the log at a prefix that replays, cleanly, to the same
// records and the same chain digest.
func FuzzWALReplay(f *testing.F) {
	file, err := vfs.NewMem().Create("wal")
	if err != nil {
		f.Fatal(err)
	}
	w := NewWriter(file)
	recs := testRecords(9)
	for _, group := range [][]record.Record{recs[:1], recs[1:5], recs[5:]} {
		if err := w.AppendBatch(group); err != nil {
			f.Fatal(err)
		}
	}
	log := append([]byte(nil), file.Bytes()...)
	f.Add(log)
	f.Add(log[:len(log)-3])                                 // torn marker: the last group never committed
	f.Add(append(append([]byte(nil), log...), log[:40]...)) // a torn frame after the last marker
	f.Add(encodeMarker(nil, 2))                             // a marker counting records that are not there
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})       // a frame length beyond any input
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var start hashutil.Hash
		var delivered int
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		info, err := ReplayBytes(data, start, func(record.Record) error { delivered++; return nil })
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > uint64(16*len(data)+1<<16) {
			t.Fatalf("%d bytes allocated replaying a %d-byte log", n, len(data))
		}
		if delivered != info.Records {
			t.Fatalf("delivered %d records, reported %d", delivered, info.Records)
		}
		if info.CommittedSize < 0 || info.CommittedSize > int64(len(data)) {
			t.Fatalf("CommittedSize %d outside the %d-byte log", info.CommittedSize, len(data))
		}
		// Whatever followed (a torn tail, or damage reported as err), the
		// committed prefix stands on its own: every record delivered came
		// from a whole group inside it.
		again, perr := ReplayBytes(data[:info.CommittedSize], start, func(record.Record) error { return nil })
		if perr != nil {
			t.Fatalf("committed prefix does not replay: %v (full replay: %v)", perr, err)
		}
		if again.Records != info.Records || again.Digest != info.Digest {
			t.Fatalf("committed prefix replays to %d records, digest %s; the log to %d, %s",
				again.Records, again.Digest, info.Records, info.Digest)
		}
		if again.TornRecords != 0 || again.CommittedSize != info.CommittedSize {
			t.Fatalf("committed prefix is not whole groups: %d torn, committed %d of %d",
				again.TornRecords, again.CommittedSize, info.CommittedSize)
		}
	})
}
