package core

import (
	"bytes"
	"testing"

	"elsm/internal/hashutil"
	"elsm/internal/merkle"
	"elsm/internal/record"
)

// FuzzViewProof feeds arbitrary bytes to viewProof, the one parser of the
// embedded-proof format and the first thing the enclave does with a proof the
// host hands over: it must never panic or read past its input, and whatever
// it accepts is exactly the size its own counts dictate (proofSize), with
// every accessor in bounds and the materialized form in agreement. (Side
// bytes are not its business: the path walkers check them against the leaf
// index.)
func FuzzViewProof(f *testing.F) {
	honest := &EmbeddedProof{
		LeafIndex: 5,
		Newer:     []ChainEntry{{Ts: 9, RecDigest: hashutil.Hash{1}}, {Ts: 12, RecDigest: hashutil.Hash{2}}},
		Inner:     hashutil.Hash{3},
		Path:      []merkle.PathNode{{Hash: hashutil.Hash{4}, Left: true}, {Hash: hashutil.Hash{5}}},
	}
	enc := honest.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add(append(bytes.Clone(enc), 0))
	f.Add((&EmbeddedProof{}).Encode())
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff}) // 65535 newer versions in six bytes
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		in = in[:len(in):len(in)] // a read past the input panics
		v, err := viewProof(in)
		if err != nil {
			return
		}
		nPath := len(v.path) / merkle.PathNodeSize
		if len(v.newer)%chainEntrySize != 0 || len(v.path)%merkle.PathNodeSize != 0 || len(v.inner) != hashutil.Size ||
			len(in) != proofSize(v.numNewer(), nPath) {
			t.Fatalf("accepted %d bytes as %d newer + %d path steps", len(in), v.numNewer(), nPath)
		}
		for i := 0; i < v.numNewer(); i++ {
			v.newerEntry(i)
		}
		v.innerIsZero()
		rec := record.Record{Key: []byte("k"), Ts: 1, Kind: record.KindSet, Value: []byte("v")}
		p, err := DecodeProof(in)
		if err != nil {
			t.Fatalf("viewProof accepts what DecodeProof rejects: %v", err)
		}
		if len(p.Encode()) != len(in) || len(p.Newer) != v.numNewer() || len(p.Path) != nPath {
			t.Fatal("the materialized proof is not the size of its encoding")
		}
		if v.reconstructLeaf(rec) != p.ReconstructLeaf(rec) {
			t.Fatal("view and materialized proof disagree on the leaf")
		}
	})
}
