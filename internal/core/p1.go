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

// StoreP1 is the strawman design of §4: the entire store — including the
// read buffer — lives inside the enclave, and out-of-enclave SSTable files
// are protected at file granularity (every data block encrypted and MACed,
// as the SGX SDK's protected FS would). No Merkle forest, no embedded
// proofs: integrity comes from block seals, and confidentiality from block
// encryption. Its cost profile (enclave paging once the buffer outgrows
// the EPC, §4.2) is the paper's motivation for eLSM-P2.
type StoreP1 struct {
	engine        *lsm.Store
	enclave       *sgx.Enclave
	cache         *blockcache.Cache
	iterChunkKeys int
}

var _ KV = (*StoreP1)(nil)

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

// OpenP1 creates an eLSM-P1 store. CacheSize must be positive: P1's whole
// point is the in-enclave read buffer.
func OpenP1(cfg Config) (*StoreP1, error) {
	if cfg.MmapReads {
		return nil, fmt.Errorf("core: eLSM-P1 cannot mmap (files must be decrypted in enclave, §6.3)")
	}
	enclave := cfg.Enclave
	if enclave == nil {
		enclave = sgx.New(cfg.SGX)
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
	return &StoreP1{engine: engine, enclave: enclave, cache: opts.Cache, iterChunkKeys: cfg.chunkKeys()}, nil
}

// Put implements KV.
func (s *StoreP1) Put(key, value []byte) (uint64, error) { return s.PutCtx(nil, key, value) }

// PutCtx implements KV.
func (s *StoreP1) PutCtx(ctx context.Context, key, value []byte) (uint64, error) {
	var ts uint64
	var err error
	s.enclave.ECall(func() { ts, err = s.engine.PutCtx(ctx, key, value) })
	return ts, err
}

// Delete implements KV.
func (s *StoreP1) Delete(key []byte) (uint64, error) { return s.DeleteCtx(nil, key) }

// DeleteCtx implements KV.
func (s *StoreP1) DeleteCtx(ctx context.Context, key []byte) (uint64, error) {
	var ts uint64
	var err error
	s.enclave.ECall(func() { ts, err = s.engine.DeleteCtx(ctx, key) })
	return ts, err
}

// Sync implements KV: the durability barrier over the commit pipeline.
func (s *StoreP1) Sync(ctx context.Context) error {
	var err error
	s.enclave.ECall(func() { err = s.engine.Sync(ctx) })
	return err
}

// Get implements KV.
func (s *StoreP1) Get(key []byte) (Result, error) { return s.GetAt(key, record.MaxTs) }

// GetAt implements KV.
func (s *StoreP1) GetAt(key []byte, tsq uint64) (Result, error) { return s.GetAtCtx(nil, key, tsq) }

// GetAtCtx implements KV.
func (s *StoreP1) GetAtCtx(ctx context.Context, key []byte, tsq uint64) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	var res Result
	var err error
	s.enclave.ECall(func() {
		var rec record.Record
		var ok bool
		rec, ok, err = s.engine.Get(key, tsq)
		if err == nil && ok {
			res = resultFrom(rec)
		}
	})
	return res, err
}

// Scan implements KV, rebased on the streaming iterator.
func (s *StoreP1) Scan(start, end []byte) ([]Result, error) {
	return ScanAll(s.IterAt(start, end, record.MaxTs))
}

// IterAt implements KV: chunks stream through one ECall each, so large
// ranges never materialize inside the enclave at once.
func (s *StoreP1) IterAt(start, end []byte, tsq uint64) Iterator {
	return s.IterAtCtx(nil, start, end, tsq)
}

// IterAtCtx implements KV. The stream runs over a pinned engine snapshot —
// a point-in-time observation, consistent across concurrent flushes and
// compactions, released when the iterator closes.
func (s *StoreP1) IterAtCtx(ctx context.Context, start, end []byte, tsq uint64) Iterator {
	snap := newRawSnapshot(s.engine, s.enclave, s.iterChunkKeys)
	it := snap.IterAt(ctx, start, end, tsq)
	snap.Close() // the iterator holds its own reference until it closes
	return it
}

// Flush forces the memtable to disk.
func (s *StoreP1) Flush() error { return s.engine.Flush() }

// BulkLoad populates an empty store.
func (s *StoreP1) BulkLoad(recs []record.Record) error {
	var err error
	s.enclave.ECall(func() { err = s.engine.BulkLoad(recs) })
	return err
}

// Engine exposes the underlying engine.
func (s *StoreP1) Engine() *lsm.Store { return s.engine }

// Enclave exposes the simulated enclave.
func (s *StoreP1) Enclave() *sgx.Enclave { return s.enclave }

// Close implements KV.
func (s *StoreP1) Close() error {
	s.cache.Release()
	return s.engine.Close()
}
