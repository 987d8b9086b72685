package core

import (
	"context"
	"fmt"

	"elsm/internal/blockcache"
	"elsm/internal/crypto"
	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/sstable"
)

// RawStore is the store without a Merkle forest, opened two ways:
//
//   - OpenP1 — the strawman design of §4: the entire store, read buffer
//     included, lives inside the enclave, and out-of-enclave SSTable files
//     are protected at file granularity (every data block encrypted and
//     MACed, as the SGX SDK's protected FS would). Integrity comes from
//     block seals and confidentiality from block encryption; its cost
//     profile (enclave paging once the buffer outgrows the EPC, §4.2) is
//     the paper's motivation for eLSM-P2.
//   - OpenUnsecured — the ideal-performance baseline of §6: a plain LSM
//     store with no enclave, no authentication and no encryption, which
//     lower-bounds every secured configuration.
//
// The two differ only in what the opener hands the engine and in whether
// operations enter an enclave (enclave and cache are nil when unsecured).
type RawStore struct {
	engine        *lsm.Store
	enclave       *sgx.Enclave      // nil for the unsecured store
	cache         *blockcache.Cache // the in-enclave read buffer; nil for the unsecured store
	iterChunkKeys int
}

var _ KV = (*RawStore)(nil)

// blockSealer adapts crypto.BlockCipher to the engine's BlockTransform.
type blockSealer struct {
	bc *crypto.BlockCipher
}

var _ sstable.BlockTransform = (*blockSealer)(nil)

// Seal implements sstable.BlockTransform.
func (b *blockSealer) Seal(blockID uint64, plain []byte) []byte {
	return b.bc.EncryptBlock(blockID, plain)
}

// Open implements sstable.BlockTransform.
func (b *blockSealer) Open(blockID uint64, sealed []byte) ([]byte, error) {
	return b.bc.DecryptBlock(blockID, sealed)
}

// OpenP1 creates an eLSM-P1 store. The read buffer is always on (8 MB when
// CacheSize is not positive): P1's whole point is the in-enclave buffer.
func OpenP1(cfg Config) (*RawStore, error) {
	if cfg.MmapReads {
		return nil, fmt.Errorf("core: eLSM-P1 cannot mmap (files must be decrypted in enclave, §6.3)")
	}
	enclave := cfg.Enclave
	if enclave == nil {
		enclave = sgx.New(sgx.Params{})
	}
	mk, err := crypto.NewMasterKey()
	if err != nil {
		return nil, err
	}
	cacheSize := cfg.CacheSize
	if cacheSize <= 0 {
		cacheSize = 8 << 20
	}
	// The P1 read buffer lives INSIDE the enclave: hits pay MEE cost and,
	// once the buffer exceeds the EPC, enclave paging (Figure 2).
	opts := cfg.engineOptions()
	opts.Enclave = enclave
	opts.Cache = blockcache.New(cacheSize, enclave)
	opts.Transform = &blockSealer{bc: crypto.NewBlock(mk)}
	engine, err := lsm.Open(opts)
	if err != nil {
		return nil, err
	}
	return &RawStore{engine: engine, enclave: enclave, cache: opts.Cache, iterChunkKeys: cfg.chunkKeys()}, nil
}

// OpenUnsecured creates the unsecured baseline. The Config's Enclave is
// ignored; the read buffer (if any) lives in ordinary memory.
func OpenUnsecured(cfg Config) (*RawStore, error) {
	opts := cfg.engineOptions()
	if cfg.CacheSize > 0 {
		opts.Cache = blockcache.New(cfg.CacheSize, nil)
	}
	engine, err := lsm.Open(opts)
	if err != nil {
		return nil, err
	}
	return &RawStore{engine: engine, iterChunkKeys: cfg.chunkKeys()}, nil
}

// ecall runs fn as an enclave call when the store has an enclave.
func (s *RawStore) ecall(fn func()) {
	if s.enclave != nil {
		s.enclave.ECall(fn)
		return
	}
	fn()
}

// Sync implements KV: the durability barrier over the commit pipeline.
func (s *RawStore) Sync(ctx context.Context) error {
	var err error
	s.ecall(func() { err = s.engine.Sync(ctx) })
	return err
}

// GetAt implements KV: a live point read goes straight to the engine (no
// snapshot is pinned for it).
func (s *RawStore) GetAt(ctx context.Context, key []byte, tsq uint64) (Result, error) {
	return s.getAt(ctx, s.engine, key, tsq)
}

// rawGetter is what a raw point read looks the key up in: the live engine
// or a pinned engine snapshot.
type rawGetter interface {
	Get(key []byte, tsq uint64) (record.Record, bool, error)
}

// getAt is the point read the live store and its snapshots share.
func (s *RawStore) getAt(ctx context.Context, from rawGetter, key []byte, tsq uint64) (Result, error) {
	if err := lsm.CtxErr(ctx); err != nil {
		return Result{}, err
	}
	var res Result
	var err error
	s.ecall(func() {
		var rec record.Record
		var ok bool
		rec, ok, err = from.Get(key, tsq)
		if err == nil && ok {
			res = resultFrom(rec)
		}
	})
	return res, err
}

// IterAt implements KV: chunks stream through one ECall each, so large
// ranges never materialize inside the enclave at once. The stream runs over
// a pinned engine snapshot — a point-in-time observation, consistent across
// concurrent flushes and compactions, released when the iterator closes.
func (s *RawStore) IterAt(ctx context.Context, start, end []byte, tsq uint64) Iterator {
	snap, err := newRawSnapshot(s)
	if err != nil {
		return NewSliceIter(nil, nil, err)
	}
	it := snap.IterAt(ctx, start, end, tsq)
	snap.Close() // the iterator holds its own reference until it closes
	return it
}

// Snapshot implements KV.
func (s *RawStore) Snapshot() (Snapshot, error) {
	snap, err := newRawSnapshot(s)
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// Flush forces the memtable to disk.
func (s *RawStore) Flush() error { return s.engine.Flush() }

// BulkLoad populates an empty store.
func (s *RawStore) BulkLoad(recs []record.Record) error {
	var err error
	s.ecall(func() { err = s.engine.BulkLoad(recs) })
	return err
}

// Engine exposes the underlying engine.
func (s *RawStore) Engine() *lsm.Store { return s.engine }

// Close implements KV.
func (s *RawStore) Close() error {
	if s.cache != nil {
		s.cache.Release()
	}
	return s.engine.Close()
}
