package main

import (
	"bytes"
	"fmt"
	"runtime"

	"elsm/internal/blockcache"
	"elsm/internal/core"
	"elsm/internal/hashutil"
	"elsm/internal/memtable"
	"elsm/internal/merkle"
	"elsm/internal/netproto"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/sstable"
	"elsm/internal/vfs"
	"elsm/internal/wal"
)

// probeRecords bounds every probe loop: long enough to time, short enough
// that the traced run stays inside the run budget.
const probeRecords = 20000

// perOp times n calls of fn in one single-threaded loop, in ns per call.
func perOp(n int, fn func(i int)) float64 {
	start := nanotime()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(nanotime()-start) / float64(n)
}

// offlineProbes reopens the dataset the last trial left and runs the read
// replay and the write-side probes on it. All of it is single-threaded and
// outside every timed pass.
func (l *ledger) offlineProbes(d *dataset) error {
	cs, err := l.reopen(d)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	err = l.readReplay(cs, l.cfg.W.Shards)
	var recs []record.Record
	if err == nil {
		recs, err = l.tableShape(cs)
	}
	if cerr := cs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := l.sstableProbes(recs); err != nil {
		return err
	}
	if err := l.walMemtableProbes(recs); err != nil {
		return err
	}
	l.merkleProbes()
	l.cacheAndBoundaryProbes()
	if l.cfg.W.Conns == 0 {
		return nil // the wire codec is a layer of the wire workload only
	}
	return l.codecProbes()
}

// tableShape walks every run once: the share of SSTable bytes that is
// embedded proof, and the largest run's first records (proofs attached) as
// realistic input for the build and seek probes.
func (l *ledger) tableShape(cs *core.Store) ([]record.Record, error) {
	snap := cs.Engine().AcquireSnapshot()
	defer snap.Release()
	var proof float64
	var biggest []record.Record
	for i := range snap.Runs() {
		var recs []record.Record
		err := snap.RunRecords(i, func(r record.Record) error {
			proof += float64(len(r.Proof))
			if len(recs) < probeRecords {
				recs = append(recs, r.Clone())
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(recs) > len(biggest) {
			biggest = recs
		}
	}
	l.m["sstable.proof_share"] = ratio(proof, float64(cs.Engine().DiskBytes()))
	return biggest, nil
}

// capture is a BlockSource that remembers the blocks it served, so that
// decoding can be timed apart from seeking.
type capture struct {
	src    sstable.FileSource
	blocks map[int][]byte
}

func (c *capture) ReadBlock(fileNum uint64, idx int, off, length int64) ([]byte, error) {
	b, err := c.src.ReadBlock(fileNum, idx, off, length)
	if err == nil {
		c.blocks[idx] = b
	}
	return b, err
}

func (l *ledger) sstableProbes(recs []record.Record) error {
	if len(recs) == 0 {
		return nil
	}
	f, err := vfs.NewMem().Create("probe.sst")
	if err != nil {
		return err
	}
	b := sstable.NewBuilder(f, sstable.BuilderOptions{FileNum: 1})
	start := nanotime()
	for _, r := range recs {
		if err := b.Add(r); err != nil {
			return err
		}
	}
	if _, err := b.Finish(); err != nil {
		return err
	}
	l.m["sstable.build_ns_per_rec"] = float64(nanotime()-start) / float64(len(recs))

	src := &capture{src: sstable.FileSource{F: f}, blocks: map[int][]byte{}}
	tbl, err := sstable.Open(f, 1, src)
	if err != nil {
		return err
	}
	l.m["sstable.seek_with_prev_ns"] = perOp(len(recs)/4, func(i int) {
		r := recs[(i*7919)%len(recs)]
		_, _, err = tbl.SeekWithPrev(r.Key, record.MaxTs)
	})
	if err != nil {
		return err
	}
	blocks := make([][]byte, 0, len(src.blocks))
	for _, blk := range src.blocks {
		blocks = append(blocks, blk)
	}
	l.m["sstable.decode_block_ns"] = perOp(len(blocks), func(i int) {
		_, err = sstable.DecodeBlock(blocks[i])
	})
	return err
}

func (l *ledger) walMemtableProbes(recs []record.Record) error {
	plain := make([]record.Record, len(recs))
	for i, r := range recs {
		plain[i] = record.Record{Key: r.Key, Ts: uint64(i + 1), Kind: record.KindSet, Value: r.Value}
	}
	if len(plain) == 0 {
		return nil
	}
	f, err := vfs.NewMem().Create("probe.wal")
	if err != nil {
		return err
	}
	w := wal.NewWriter(f)
	groups := len(plain) / loadBatch
	perGroup := perOp(groups, func(i int) {
		if e := w.AppendBatch(plain[i*loadBatch : (i+1)*loadBatch]); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	l.m["wal.append_batch_ns_per_rec"] = perGroup / loadBatch
	if err := w.Close(); err != nil {
		return err
	}
	mt := memtable.New(sgx.NewUnlimited())
	l.m["memtable.put_ns"] = perOp(len(plain), func(i int) { mt.Put(plain[(i*7919)%len(plain)]) })
	mt.Release()
	return nil
}

func (l *ledger) merkleProbes() {
	leaves := make([]hashutil.Hash, l.ks.n)
	for i, k := range l.ks.keys {
		leaves[i] = hashutil.LeafHash(k, hashutil.Zero)
	}
	start := nanotime()
	tree := merkle.New(leaves)
	l.m["merkle.build_ns_per_leaf"] = float64(nanotime()-start) / float64(len(leaves))

	var path []merkle.PathNode
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l.m["merkle.path_ns"] = perOp(probeRecords, func(i int) { path = tree.Path((i * 7919) % len(leaves)) })
	runtime.ReadMemStats(&m1)
	l.m["merkle.path_allocs"] = float64(m1.Mallocs-m0.Mallocs) / probeRecords

	p := &core.EmbeddedProof{LeafIndex: 7, Path: path}
	var enc []byte
	l.m["core.proof_encode_ns"] = perOp(probeRecords, func(int) { enc = p.Encode() })
	_ = enc
}

func (l *ledger) cacheAndBoundaryProbes() {
	enclave := sgx.NewUnlimited()
	cache := blockcache.New(8<<20, enclave)
	block := make([]byte, sstable.DefaultBlockSize)
	const resident = 1024 // 4 MiB of blocks: every Get below is a hit
	for i := 0; i < resident; i++ {
		cache.Put(blockcache.Key{FileNum: 1, BlockIdx: i}, block)
	}
	l.m["blockcache.get_hit_ns"] = perOp(probeRecords, func(i int) {
		cache.Get(blockcache.Key{FileNum: 1, BlockIdx: (i * 7919) % resident})
	})
	cache.Release()
	// The store's own enclave parameters: zero cost model, default EPC. The
	// crossing must cost next to nothing; what is left is its mutex.
	e := sgx.New(sgx.Params{})
	l.m["sgx.ecall_ns"] = perOp(probeRecords*10, func(int) { e.ECall(func() {}) })
}

// codecProbes pushes the sample's 80/20 mix through the wire codec both
// ways without a socket: encode, frame, read back, decode.
func (l *ledger) codecProbes() error {
	ops := l.sample
	if len(ops) > probeRecords {
		ops = ops[:probeRecords]
	}
	var val [valueSize]byte
	fillValue(val[:], 1, 1)
	var buf []byte
	var err error
	l.m["netproto.request_codec_ns"] = perOp(len(ops), func(i int) {
		req := &netproto.Request{Op: netproto.OpGet, ID: uint64(i), Key: l.ks.keys[ops[i].idx]}
		if ops[i].kind == opPut {
			req.Op, req.Value = netproto.OpPut, val[:]
		}
		buf = netproto.AppendRequest(buf[:0], req)
		typ, id, body, e := netproto.ReadFrame(bytes.NewReader(buf), 0)
		if e == nil {
			_, e = netproto.DecodeRequest(typ, id, body)
		}
		if e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("request codec: %w", err)
	}
	var frame bytes.Buffer
	l.m["netproto.response_codec_ns"] = perOp(len(ops), func(i int) {
		code, body := netproto.CodeValue, netproto.AppendValue(buf[:0], uint64(i), val[:])
		if ops[i].kind == opPut {
			code, body = netproto.CodeOK, netproto.AppendOK(buf[:0], uint64(i))
		}
		buf = body
		frame.Reset()
		e := netproto.WriteFrame(&frame, uint8(code), uint64(i), body)
		if e == nil {
			var typ uint8
			var id uint64
			if typ, id, body, e = netproto.ReadFrame(&frame, 0); e == nil {
				_, e = netproto.DecodeResponse(typ, id, body)
			}
		}
		if e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("response codec: %w", err)
	}
	return nil
}
