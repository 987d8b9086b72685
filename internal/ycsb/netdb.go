package ycsb

import (
	"context"
	"errors"

	"elsm/internal/core"
	"elsm/internal/netclient"
	"elsm/internal/netproto"
	"elsm/internal/record"
)

// NetDB adapts a netclient.Client to the DB surface, so every YCSB
// workload and the bench harness can run end to end over the network
// front end — client, wire protocol, admission control and server
// pipeline included — instead of calling the store in-process.
type NetDB struct {
	c *netclient.Client
}

// NewNetDB wraps an established client. The caller keeps ownership (and
// Close responsibility) of the client.
func NewNetDB(c *netclient.Client) *NetDB { return &NetDB{c: c} }

// Commit applies one atomic durable commit over the wire: a single op as
// its own Put or Delete frame, more as one Batch. Here and below the ctx is
// ignored: the client's calls are not cancellable.
func (db *NetDB) Commit(_ context.Context, ops []core.BatchOp) (uint64, error) {
	if len(ops) == 1 {
		if ops[0].Delete {
			return db.c.Delete(ops[0].Key)
		}
		return db.c.Put(ops[0].Key, ops[0].Value)
	}
	wire := make([]netproto.BatchOp, len(ops))
	for i, op := range ops {
		wire[i] = netproto.BatchOp{Key: op.Key, Value: op.Value, Delete: op.Delete}
	}
	return db.c.Batch(wire)
}

// GetAt reads one verified record over the wire. The protocol's point read
// is latest-only, so any other tsq is refused.
func (db *NetDB) GetAt(_ context.Context, key []byte, tsq uint64) (core.Result, error) {
	if tsq != record.MaxTs {
		return core.Result{}, errors.New("ycsb: the wire protocol has no historical point read")
	}
	res, err := db.c.Get(key)
	if err != nil || !res.Found {
		return core.Result{}, err
	}
	return core.Result{Key: key, Value: res.Value, Ts: res.Ts, Found: true}, nil
}

// IterAt streams the verified range [start, end] at tsq as a
// core.Iterator over the protocol's chunked SCAN stream.
func (db *NetDB) IterAt(_ context.Context, start, end []byte, tsq uint64) core.Iterator {
	sc, err := db.c.ScanAt(start, end, tsq)
	if err != nil {
		return &netIter{err: err}
	}
	return &netIter{sc: sc}
}

// netIter adapts a netclient.Scanner to core.Iterator.
type netIter struct {
	sc  *netclient.Scanner
	res core.Result
	err error
}

func (it *netIter) Next() bool {
	if it.err != nil || it.sc == nil {
		return false
	}
	if !it.sc.Next() {
		return false
	}
	it.res = core.Result{Key: it.sc.Key(), Value: it.sc.Value(), Ts: it.sc.Ts(), Found: true}
	return true
}

func (it *netIter) Result() core.Result { return it.res }

func (it *netIter) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.sc.Err()
}

func (it *netIter) Close() error {
	if it.sc == nil {
		return it.err
	}
	if err := it.sc.Close(); err != nil && it.err == nil {
		it.err = err
	}
	return it.err
}
