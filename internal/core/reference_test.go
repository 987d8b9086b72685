package core

import (
	"bytes"
	"fmt"

	"elsm/internal/bloom"
	"elsm/internal/hashutil"
	"elsm/internal/merkle"
	"elsm/internal/record"
)

// This file keeps, for tests only, the tree builder and proof server that
// authenticated compaction used before it digested each record once and
// wrote proofs in place: one builder per tree, every record digested per
// builder, proofs assembled as EmbeddedProof values and serialized with
// Encode. It is the reference the single-pass hasher is compared against —
// same run digests, same proof bytes — and shares no code with it beyond
// the hash primitives.

type refTreeBuilder struct {
	leaves []hashutil.Hash
	keys   [][]byte // one a leaf, for the run's key filter

	curKey   []byte
	pending  []refChainEntry // newest first
	haveKey  bool
	trackVer bool
	perLeaf  []refLeaf
}

type refChainEntry struct {
	ts    uint64
	dig   hashutil.Hash
	inner hashutil.Hash
}

type refLeaf struct {
	key      []byte
	versions []refChainEntry
}

func (b *refTreeBuilder) Add(rec record.Record) error {
	if b.haveKey {
		switch c := bytes.Compare(rec.Key, b.curKey); {
		case c < 0:
			return fmt.Errorf("reference: stream out of order: %q after %q", rec.Key, b.curKey)
		case c > 0:
			b.finishLeaf()
		default:
			if n := len(b.pending); n > 0 && rec.Ts >= b.pending[n-1].ts {
				return fmt.Errorf("reference: version order violation for key %q", rec.Key)
			}
		}
	}
	if !b.haveKey || !bytes.Equal(rec.Key, b.curKey) {
		b.curKey = append(b.curKey[:0], rec.Key...)
		b.haveKey = true
	}
	b.pending = append(b.pending, refChainEntry{ts: rec.Ts, dig: rec.Digest()})
	return nil
}

func (b *refTreeBuilder) finishLeaf() {
	if len(b.pending) == 0 {
		return
	}
	inner := hashutil.Zero
	for i := len(b.pending) - 1; i >= 0; i-- {
		b.pending[i].inner = inner
		inner = hashutil.ChainLink(b.pending[i].ts, b.pending[i].dig, inner)
	}
	b.leaves = append(b.leaves, inner) // the chain head is the leaf
	b.keys = append(b.keys, bytes.Clone(b.curKey))
	if b.trackVer {
		b.perLeaf = append(b.perLeaf, refLeaf{
			key:      append([]byte(nil), b.curKey...),
			versions: append([]refChainEntry(nil), b.pending...),
		})
	}
	b.pending = b.pending[:0]
}

func (b *refTreeBuilder) Finish() (*merkle.Tree, runDigest) {
	b.finishLeaf()
	t := merkle.New(b.leaves)
	d := runDigest{Root: t.Root(), NumLeaves: t.NumLeaves()}
	if len(b.keys) > 0 {
		d.Filter = hashutil.FilterHash(bloom.Build(b.keys, bloom.DefaultBitsPerKey))
	}
	return t, d
}

type refOutputTree struct {
	tree    *merkle.Tree
	digest  runDigest
	perLeaf []refLeaf
	keyIdx  map[string]int
}

func refFinishOutput(b *refTreeBuilder) *refOutputTree {
	t, d := b.Finish()
	o := &refOutputTree{tree: t, digest: d, perLeaf: b.perLeaf, keyIdx: make(map[string]int, len(b.perLeaf))}
	for i := range b.perLeaf {
		o.keyIdx[string(b.perLeaf[i].key)] = i
	}
	return o
}

func (o *refOutputTree) proofFor(rec record.Record) (*EmbeddedProof, error) {
	li, ok := o.keyIdx[string(rec.Key)]
	if !ok {
		return nil, fmt.Errorf("core: no leaf for key %q", rec.Key)
	}
	lv := o.perLeaf[li]
	vi := -1
	for i := range lv.versions {
		if lv.versions[i].ts == rec.Ts {
			vi = i
			break
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("core: no version %d for key %q", rec.Ts, rec.Key)
	}
	p := &EmbeddedProof{
		LeafIndex: uint32(li),
		Inner:     lv.versions[vi].inner,
		Path:      o.tree.Path(li),
	}
	for i := vi - 1; i >= 0; i-- {
		p.Newer = append(p.Newer, ChainEntry{Ts: lv.versions[i].ts, RecDigest: lv.versions[i].dig})
	}
	return p, nil
}
