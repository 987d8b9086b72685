package elsm

import (
	"testing"

	"context"
	"elsm/internal/core"
	"elsm/internal/record"
)

// bulkLoad populates an empty store through the authenticated bulk-ingest
// path (every mode and the shard router support it) — the loading hook the
// tests use instead of the deprecated Internal() escape hatch.
func bulkLoad(t testing.TB, s *Store, recs []record.Record) {
	t.Helper()
	type bulk interface {
		BulkLoad([]record.Record) error
	}
	if err := s.base().(bulk).BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
}

// storeDB drives the PUBLIC Store surface through the ycsb.DB interface, so
// the workload tests exercise exactly what a client sees (batches through
// Batch.Commit, range reads through the public iterator) on sharded and
// unsharded stores alike.
type storeDB struct{ s *Store }

func (d storeDB) GetAt(ctx context.Context, key []byte, tsq uint64) (core.Result, error) {
	return d.s.GetAtCtx(ctx, key, tsq)
}

// Commit writes the way a client would: one op through Put or Delete, more
// through a Batch.
func (d storeDB) Commit(ctx context.Context, ops []core.BatchOp) (uint64, error) {
	if len(ops) == 1 && ops[0].Delete {
		return d.s.DeleteCtx(ctx, ops[0].Key)
	}
	if len(ops) == 1 {
		return d.s.PutCtx(ctx, ops[0].Key, ops[0].Value)
	}
	b := d.s.NewBatch()
	for _, op := range ops {
		if op.Delete {
			b.Delete(op.Key)
		} else {
			b.Put(op.Key, op.Value)
		}
	}
	return b.CommitCtx(ctx)
}

func (d storeDB) IterAt(ctx context.Context, start, end []byte, tsq uint64) core.Iterator {
	return d.s.IterAtCtx(ctx, start, end, tsq)
}
