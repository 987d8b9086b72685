package core

import (
	"context"

	"elsm/internal/blockcache"
	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sgx"
)

// Unsecured is the ideal-performance baseline of §6: a plain LSM store with
// no enclave (zero-cost unlimited "enclave"), no authentication and no
// encryption. It lower-bounds every secured configuration.
type Unsecured struct {
	engine        *lsm.Store
	iterChunkKeys int
}

var _ KV = (*Unsecured)(nil)

// OpenUnsecured creates the unsecured baseline. The Config's SGX settings
// are ignored; the read buffer (if any) lives in ordinary memory.
func OpenUnsecured(cfg Config) (*Unsecured, error) {
	opts := cfg.engineOptions()
	opts.Enclave = sgx.NewUnlimited()
	if cfg.CacheSize > 0 {
		opts.Cache = blockcache.New(cfg.CacheSize, nil)
	}
	engine, err := lsm.Open(opts)
	if err != nil {
		return nil, err
	}
	return &Unsecured{engine: engine, iterChunkKeys: cfg.chunkKeys()}, nil
}

// Put implements KV.
func (s *Unsecured) Put(key, value []byte) (uint64, error) { return s.engine.Put(key, value) }

// PutCtx implements KV.
func (s *Unsecured) PutCtx(ctx context.Context, key, value []byte) (uint64, error) {
	return s.engine.PutCtx(ctx, key, value)
}

// Delete implements KV.
func (s *Unsecured) Delete(key []byte) (uint64, error) { return s.engine.Delete(key) }

// DeleteCtx implements KV.
func (s *Unsecured) DeleteCtx(ctx context.Context, key []byte) (uint64, error) {
	return s.engine.DeleteCtx(ctx, key)
}

// Sync implements KV: the durability barrier over the commit pipeline.
func (s *Unsecured) Sync(ctx context.Context) error { return s.engine.Sync(ctx) }

// Get implements KV.
func (s *Unsecured) Get(key []byte) (Result, error) { return s.GetAt(key, record.MaxTs) }

// GetAt implements KV.
func (s *Unsecured) GetAt(key []byte, tsq uint64) (Result, error) {
	return s.GetAtCtx(nil, key, tsq)
}

// GetAtCtx implements KV.
func (s *Unsecured) GetAtCtx(ctx context.Context, key []byte, tsq uint64) (Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}
	rec, ok, err := s.engine.Get(key, tsq)
	if err != nil || !ok {
		return Result{}, err
	}
	return resultFrom(rec), nil
}

// Scan implements KV, rebased on the streaming iterator.
func (s *Unsecured) Scan(start, end []byte) ([]Result, error) {
	return ScanAll(s.IterAt(start, end, record.MaxTs))
}

// IterAt implements KV.
func (s *Unsecured) IterAt(start, end []byte, tsq uint64) Iterator {
	return s.IterAtCtx(nil, start, end, tsq)
}

// IterAtCtx implements KV. The stream runs over a pinned engine snapshot —
// a point-in-time observation, released when the iterator closes.
func (s *Unsecured) IterAtCtx(ctx context.Context, start, end []byte, tsq uint64) Iterator {
	snap := newRawSnapshot(s.engine, nil, s.iterChunkKeys)
	it := snap.IterAt(ctx, start, end, tsq)
	snap.Close() // the iterator holds its own reference until it closes
	return it
}

// Flush forces the memtable to disk.
func (s *Unsecured) Flush() error { return s.engine.Flush() }

// BulkLoad populates an empty store.
func (s *Unsecured) BulkLoad(recs []record.Record) error { return s.engine.BulkLoad(recs) }

// Engine exposes the underlying engine.
func (s *Unsecured) Engine() *lsm.Store { return s.engine }

// Close implements KV.
func (s *Unsecured) Close() error { return s.engine.Close() }
