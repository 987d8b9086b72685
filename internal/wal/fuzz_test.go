package wal

import (
	"fmt"
	"runtime"
	"testing"

	"elsm/internal/record"
	"elsm/internal/vfs"
)

// FuzzWALReplay hands Replay an arbitrary log — the host keeps the WAL
// — and holds it to what recovery and checkpoint import rely on: it never
// panics; it allocates a small multiple of the log, never a length a frame
// declares; it delivers only records of whole marker-terminated groups, each
// with the tag its marker carries; and CommittedSize cuts the log at a
// prefix that replays, cleanly, to the same records and tags and so to the
// same chain. The seed groups carry tags of distinct bytes, so the fuzzer
// mutates tag bytes as well as framing.
func FuzzWALReplay(f *testing.F) {
	file, err := vfs.NewMem().Create("wal")
	if err != nil {
		f.Fatal(err)
	}
	w := NewWriter(file)
	recs := testRecords(9)
	for i, group := range [][]record.Record{recs[:1], recs[1:5], recs[5:]} {
		var tag Tag
		for j := range tag {
			tag[j] = byte(i*TagSize + j + 1)
		}
		if err := w.AppendTagged(group, &tag); err != nil {
			f.Fatal(err)
		}
	}
	log := append([]byte(nil), file.Bytes()...)
	f.Add(log)
	f.Add(log[:len(log)-3])                                 // torn marker: the last group never committed
	f.Add(append(append([]byte(nil), log...), log[:40]...)) // a torn frame after the last marker
	f.Add(encodeMarker(nil, 2, &Tag{1}))                    // a marker counting records that are not there
	f.Add(format1Group(recs[:2]))                           // a format 1 group
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})       // a frame length beyond any input
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var delivered []record.Record
		var tags []Tag
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		info, err := Replay(data, func(group []record.Record, tag *Tag) error {
			delivered = append(delivered, group...)
			tags = append(tags, *tag)
			return nil
		})
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > uint64(16*len(data)+1<<16) {
			t.Fatalf("%d bytes allocated replaying a %d-byte log", n, len(data))
		}
		if len(delivered) != info.Records {
			t.Fatalf("delivered %d records, reported %d", len(delivered), info.Records)
		}
		if info.CommittedSize < 0 || info.CommittedSize > int64(len(data)) {
			t.Fatalf("CommittedSize %d outside the %d-byte log", info.CommittedSize, len(data))
		}
		// Whatever followed (a torn tail, or damage reported as err), the
		// committed prefix stands on its own: every record delivered came
		// from a whole group inside it.
		var redelivered []record.Record
		var retags []Tag
		again, perr := Replay(data[:info.CommittedSize], func(group []record.Record, tag *Tag) error {
			redelivered = append(redelivered, group...)
			retags = append(retags, *tag)
			return nil
		})
		if perr != nil {
			t.Fatalf("committed prefix does not replay: %v (full replay: %v)", perr, err)
		}
		if again.Records != info.Records || chain(redelivered) != chain(delivered) {
			t.Fatalf("committed prefix replays to %d records, chain %s; the log to %d, %s",
				again.Records, chain(redelivered), info.Records, chain(delivered))
		}
		if fmt.Sprint(retags) != fmt.Sprint(tags) {
			t.Fatalf("committed prefix replays to tags %x; the log to %x", retags, tags)
		}
		if again.TornRecords != 0 || again.CommittedSize != info.CommittedSize {
			t.Fatalf("committed prefix is not whole groups: %d torn, committed %d of %d",
				again.TornRecords, again.CommittedSize, info.CommittedSize)
		}
	})
}
