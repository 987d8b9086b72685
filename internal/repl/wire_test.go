package repl

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"elsm/internal/race"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/wal"
)

// frameCase is one frame body and whether decodeFrame must accept it.
type frameCase struct {
	name string
	body []byte
	ok   bool
}

// frameCases are the bodies the decoder is held to, accepted and refused:
// a group frame carries exactly one whole commit group of at least one
// record, as wal.AppendGroup writes it, and nothing after it.
func frameCases() []frameCase {
	recs := []record.Record{
		{Key: []byte("a"), Ts: 8, Kind: record.KindSet, Value: []byte("one")},
		{Key: []byte("b"), Ts: 9, Kind: record.KindDelete},
	}
	hdr := groupFrame{
		Shard: 1, Shards: 4, Epoch: 2, PrevTs: 7, LastTs: 9, Seq: 3,
		FrontierSeq: 5, FrontierTs: 12, FrontierBytes: 90, CumBytes: 60,
	}
	frame := func(parts ...[]byte) []byte {
		f := hdr
		f.Group = bytes.Join(parts, nil)
		return encodeFrame(&f)
	}
	tag := &wal.Tag{0: 0xA5, wal.TagSize - 1: 0x5A} // any tag: a follower re-tags the group and checks none
	group := wal.AppendGroup(nil, recs, tag)
	unmarked := group[:len(group)-wal.GroupSize(nil)] // the record frames alone
	beat := encodeFrame(&groupFrame{Heartbeat: true, Shards: 1, FrontierTs: 9, CumBytes: 60})
	return []frameCase{
		{"one group", frame(group), true},
		{"heartbeat", beat, true},
		{"torn mid-record", frame(group[:20]), false},
		{"torn before the marker", frame(unmarked), false},
		{"two groups", frame(group, group), false},
		{"marker-only group", frame(wal.AppendGroup(nil, nil, tag)), false},
		{"marker-only group before the group", frame(wal.AppendGroup(nil, nil, tag), group), false},
		{"byte after the marker", frame(group, []byte{0}), false},
		{"records after the marker", frame(group, unmarked), false},
		{"heartbeat followed by bytes", append(beat, 0), false},
		{"short header", frame(group)[:frameHeaderLen-1], false},
		{"chain layout", chainLayoutFrame(group), false},
		{"codec layout", codecLayoutFrame(recs), false},
	}
}

// chainLayoutFrame is a group frame as the layout before this one wrote it:
// type byte 3, the shard pair and the eight position fields, a 32-byte
// chain over the group's records, then the group.
func chainLayoutFrame(group []byte) []byte {
	b := binary.BigEndian.AppendUint64([]byte{3}, 1<<32|4) // shard 1 of 4
	for i := 0; i < 8; i++ {
		b = binary.BigEndian.AppendUint64(b, uint64(i))
	}
	b = append(b, make([]byte, 32)...)
	return append(b, group...)
}

// codecLayoutFrame is a group frame as an earlier layout wrote it: type
// byte 1, the position fields with a byte count among them, a record
// count, the records in that layout's own codec, then the chain.
func codecLayoutFrame(recs []record.Record) []byte {
	b := binary.BigEndian.AppendUint64([]byte{1}, 1<<32|4) // shard 1 of 4
	for i := 0; i < 9; i++ {
		b = binary.BigEndian.AppendUint64(b, uint64(i))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(recs)))
	for _, r := range recs {
		b = append(b, byte(r.Kind))
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(r.Key))), r.Key...)
		b = binary.BigEndian.AppendUint64(b, r.Ts)
		b = append(binary.BigEndian.AppendUint32(b, uint32(len(r.Value))), r.Value...)
	}
	return append(b, make([]byte, 32)...)
}

// TestDecodeFrameCases: decodeFrame accepts a frame only if its group bytes
// are exactly one whole commit group, and what it accepts re-encodes to the
// same bytes.
func TestDecodeFrameCases(t *testing.T) {
	for _, c := range frameCases() {
		f, err := decodeFrame(c.body)
		if (err == nil) != c.ok {
			t.Errorf("%s: decodeFrame error %v, want accepted=%v", c.name, err, c.ok)
			continue
		}
		if err == nil && !bytes.Equal(reencode(f), c.body) {
			t.Errorf("%s: accepted body does not re-encode to itself", c.name)
		}
	}
}

// reencode encodes an accepted frame from its parsed records and the tag
// that ends its group, not from the group bytes it carried.
func reencode(f *groupFrame) []byte {
	if !f.Heartbeat {
		tag := wal.Tag(f.Group[len(f.Group)-wal.TagSize:])
		f.Group = wal.AppendGroup(nil, f.Recs, &tag)
	}
	return encodeFrame(f)
}

// TestGroupFrameOver64MiB: group commit puts no cap on a group, so a
// follower must read any frame the leader can write. A follower that
// refused bodies over 64 MiB as implausible treated such a frame as a cut
// stream and re-dialed for the same group for ever.
func TestGroupFrameOver64MiB(t *testing.T) {
	if race.Enabled {
		t.Skip("about 200 MB of frame buffers is too much beside the race detector")
	}
	recs := []record.Record{{Key: []byte("big"), Ts: 1, Kind: record.KindSet, Value: make([]byte, 64<<20)}}
	// encodeFrame's layout, built in place: the header, then the group.
	hdr := encodeFrame(&groupFrame{Shards: 1, LastTs: 1})
	body := wal.AppendGroup(append(make([]byte, 0, len(hdr)+wal.GroupSize(recs)), hdr...), recs, &wal.Tag{})
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(writeFrame(pw, body, sgx.Report{})) }()
	got, _, err := readFrame(pr)
	if err != nil {
		t.Fatalf("reading a %d-byte frame: %v", len(body), err)
	}
	f, err := decodeFrame(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Recs) != 1 || len(f.Recs[0].Value) != 64<<20 || string(f.Recs[0].Key) != "big" {
		t.Fatal("the group read back is not the one written")
	}
}
