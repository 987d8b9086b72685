// Package eleos reimplements the paper's baseline comparator (§6.1): an
// in-enclave, update-in-place sorted store in the style of Eleos (Orenbach
// et al., EuroSys'17). The entire dataset lives in enclave memory as a
// gapped sorted array with ~30% slack; reads binary-search it in place and
// writes update it in place. Eleos's SUVM avoids hardware enclave paging by
// managing its own in-enclave page cache, but still pays per-reference
// monitoring overhead and copy/crypto costs on misses — which is why the
// paper observes it trailing both eLSM variants at scale and capping out
// around 1 GB.
//
// The store declares to its enclave: (a) every array reference, as a touch
// of the region the array lives in — which is what a simulated enclave
// (costmodel.Sim) prices as SUVM's per-reference monitoring and pages, so
// working sets beyond the EPC thrash — and (b) periodic persistence OCalls
// and copies for recent writes.
package eleos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"

	"elsm/internal/core"
	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// ErrCapacity is returned when the dataset exceeds MaxBytes — the paper's
// observed 1 GB Eleos scalability limit.
var ErrCapacity = errors.New("eleos: dataset exceeds supported capacity (the 1 GB limit observed in §6.2)")

// DefaultMaxBytes is the paper's 1 GB limit scaled by 1/32.
const DefaultMaxBytes = 32 << 20

// slackFactor is the array headroom ("we leave 30% of the array space
// empty to accommodate data insertions without moving existing data").
const slackFactor = 1.3

// bucketCap is the gapped-array bucket capacity in entries; buckets are
// kept ~70% full so most inserts shift only within one bucket.
const bucketCap = 64

// Config configures the baseline.
type Config struct {
	// Enclave hosts the array; nil means a fresh one.
	Enclave *sgx.Enclave
	// FS receives the persistence stream; nil means a fresh in-memory FS.
	FS vfs.FS
	// MaxBytes caps the dataset (DefaultMaxBytes if zero).
	MaxBytes int64
	// PersistEvery flushes the write buffer to disk after this many
	// writes (default 256).
	PersistEvery int
}

type entry struct {
	key []byte
	val []byte
	ts  uint64
	del bool
}

type bucket struct {
	entries []entry
}

// Store is the Eleos-style baseline. Safe for single-goroutine use (the
// paper's YCSB driver is configured per-thread; our benchmarks serialize).
type Store struct {
	cfg     Config
	enclave *sgx.Enclave
	region  *sgx.Region
	buckets []*bucket
	nextTs  uint64
	bytes   int64

	persistFile vfs.File
	dirty       int
	writeBuf    []byte

	closed bool
}

var _ core.KV = (*Store)(nil)

// Open creates an empty baseline store.
func Open(cfg Config) (*Store, error) {
	if cfg.Enclave == nil {
		cfg.Enclave = sgx.New(sgx.Params{})
	}
	if cfg.FS == nil {
		cfg.FS = vfs.NewMem()
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.PersistEvery == 0 {
		cfg.PersistEvery = 256
	}
	var f vfs.File
	var err error
	cfg.Enclave.OCall(func() { f, err = cfg.FS.Create("eleos.dat") })
	if err != nil {
		return nil, fmt.Errorf("eleos: persistence file: %w", err)
	}
	s := &Store{
		cfg:         cfg,
		enclave:     cfg.Enclave,
		region:      cfg.Enclave.Alloc(0),
		buckets:     []*bucket{{}},
		persistFile: f,
	}
	return s, nil
}

// touch declares a reference to approximately n bytes around byte-offset off
// of the array.
func (s *Store) touch(off int64, n int) {
	size := s.region.Size()
	if size == 0 {
		return
	}
	if off >= int64(size) {
		off = int64(size) - 1
	}
	if off < 0 {
		off = 0
	}
	s.region.Touch(int(off), n)
}

// grow reserves enclave space for delta new bytes (with slack).
func (s *Store) grow(delta int) error {
	s.bytes += int64(delta)
	if s.bytes > s.cfg.MaxBytes {
		s.bytes -= int64(delta)
		return fmt.Errorf("%w: %d bytes", ErrCapacity, s.bytes+int64(delta))
	}
	s.region.Grow(int(float64(delta) * slackFactor))
	return nil
}

// locate finds the bucket index and within-bucket position for key.
func (s *Store) locate(key []byte) (int, int, bool) {
	bi := sort.Search(len(s.buckets), func(i int) bool {
		b := s.buckets[i]
		if len(b.entries) == 0 {
			return true
		}
		return bytes.Compare(b.entries[len(b.entries)-1].key, key) >= 0
	})
	if bi >= len(s.buckets) {
		bi = len(s.buckets) - 1
	}
	b := s.buckets[bi]
	ei := sort.Search(len(b.entries), func(i int) bool {
		return bytes.Compare(b.entries[i].key, key) >= 0
	})
	found := ei < len(b.entries) && bytes.Equal(b.entries[ei].key, key)
	return bi, ei, found
}

// approxOffset estimates the byte offset of a bucket in the array region.
func (s *Store) approxOffset(bi int) int64 {
	if len(s.buckets) == 0 {
		return 0
	}
	return int64(float64(bi) / float64(len(s.buckets)) * float64(s.region.Size()))
}

// enter is the admission check every operation starts with: a cancelled
// ctx (nil = not cancellable) or a closed store refuses it.
func (s *Store) enter(ctx context.Context) error {
	if err := lsm.CtxErr(ctx); err != nil {
		return err
	}
	if s.closed {
		return lsm.ErrClosed
	}
	return nil
}

// Commit implements core.KV: each op is an in-place update or a gapped
// insert, and the whole group is applied inside one ECall — like the other
// enclave-hosted stores, each operation enters the enclave via an ECall
// (§6.1); Eleos is update-in-place, so the group shares a single world
// switch but gains no further amortization. Unlike the LSM-backed stores,
// a mid-group failure (e.g. capacity exhaustion) leaves the preceding ops
// applied — this baseline has no WAL to roll back from, and is only used
// for benchmark comparisons where that distinction is part of the story.
func (s *Store) Commit(ctx context.Context, ops []core.BatchOp) (uint64, error) {
	if err := s.enter(ctx); err != nil {
		return 0, err
	}
	var ts uint64
	var err error
	s.enclave.ECall(func() {
		for _, op := range ops {
			if op.Delete {
				ts, err = s.write(op.Key, nil, true)
			} else {
				ts, err = s.write(op.Key, op.Value, false)
			}
			if err != nil {
				return
			}
		}
	})
	return ts, err
}

// IterAt implements core.KV. Eleos keeps no history, so the iterator serves
// a materialized snapshot of the live range (tsq applies as in GetAt only
// insofar as live versions qualify).
func (s *Store) IterAt(ctx context.Context, start, end []byte, tsq uint64) core.Iterator {
	if err := s.enter(ctx); err != nil {
		return core.NewSliceIter(nil, nil, err)
	}
	var res []core.Result
	s.enclave.ECall(func() { res = s.scan(start, end, tsq) })
	return core.NewSliceIter(ctx, res, nil)
}

func (s *Store) write(key, value []byte, del bool) (uint64, error) {
	s.nextTs++
	ts := s.nextTs
	bi, ei, found := s.locate(key)
	// Binary search touched log(n) bucket probes; declare one bucket read.
	s.touch(s.approxOffset(bi), bucketCap*8)
	b := s.buckets[bi]
	if found {
		old := &b.entries[ei]
		delta := len(value) - len(old.val)
		if delta > 0 {
			if err := s.grow(delta); err != nil {
				return 0, err
			}
		}
		old.val = append([]byte(nil), value...)
		old.ts = ts
		old.del = del
		s.touch(s.approxOffset(bi)+int64(ei*32), len(key)+len(value))
	} else {
		if err := s.grow(len(key) + len(value) + 24); err != nil {
			return 0, err
		}
		e := entry{key: append([]byte(nil), key...), val: append([]byte(nil), value...), ts: ts, del: del}
		b.entries = append(b.entries, entry{})
		copy(b.entries[ei+1:], b.entries[ei:])
		b.entries[ei] = e
		// The in-bucket shift touches the bucket tail (update-in-place
		// write amplification).
		s.touch(s.approxOffset(bi)+int64(ei*32), (len(b.entries)-ei)*32)
		if len(b.entries) >= bucketCap {
			s.splitBucket(bi)
		}
	}
	s.bufferWrite(key, value, ts)
	return ts, nil
}

// splitBucket halves an overflowing bucket (touches the whole bucket).
func (s *Store) splitBucket(bi int) {
	b := s.buckets[bi]
	mid := len(b.entries) / 2
	right := &bucket{entries: append([]entry(nil), b.entries[mid:]...)}
	b.entries = b.entries[:mid]
	s.buckets = append(s.buckets, nil)
	copy(s.buckets[bi+2:], s.buckets[bi+1:])
	s.buckets[bi+1] = right
	s.touch(s.approxOffset(bi), bucketCap*32)
}

// bufferWrite appends to the persistence write buffer, flushing through an
// OCall when full (the paper's Eleos setup persists data periodically).
func (s *Store) bufferWrite(key, value []byte, ts uint64) {
	s.writeBuf = append(s.writeBuf, key...)
	s.writeBuf = append(s.writeBuf, value...)
	s.writeBuf = append(s.writeBuf, byte(ts), byte(ts>>8), byte(ts>>16))
	s.dirty++
	if s.dirty >= s.cfg.PersistEvery {
		s.enclave.Copy(len(s.writeBuf))
		s.persist()
	}
}

// GetAt implements core.KV. Eleos is update-in-place and keeps no history:
// a historical query returns the live version only if it is old enough.
func (s *Store) GetAt(ctx context.Context, key []byte, tsq uint64) (core.Result, error) {
	if err := s.enter(ctx); err != nil {
		return core.Result{}, err
	}
	var res core.Result
	var err error
	s.enclave.ECall(func() { res, err = s.getAt(key, tsq) })
	return res, err
}

func (s *Store) getAt(key []byte, tsq uint64) (core.Result, error) {
	bi, ei, found := s.locate(key)
	// log2(buckets) probes touch scattered pages, then the bucket itself.
	probes := 1
	for n := len(s.buckets); n > 1; n /= 2 {
		probes++
	}
	for p := 0; p < probes; p++ {
		s.touch(s.approxOffset((bi*7+p*13)%max(len(s.buckets), 1)), 64)
	}
	if !found {
		return core.Result{}, nil
	}
	e := s.buckets[bi].entries[ei]
	s.touch(s.approxOffset(bi)+int64(ei*32), len(e.key)+len(e.val))
	if e.del || e.ts > tsq {
		return core.Result{}, nil
	}
	return core.Result{
		Key:   append([]byte(nil), e.key...),
		Value: append([]byte(nil), e.val...),
		Ts:    e.ts,
		Found: true,
	}, nil
}

// scan collects the live versions no newer than tsq in [start, end].
func (s *Store) scan(start, end []byte, tsq uint64) []core.Result {
	var out []core.Result
	bi, ei, _ := s.locate(start)
	for ; bi < len(s.buckets); bi++ {
		b := s.buckets[bi]
		for ; ei < len(b.entries); ei++ {
			e := b.entries[ei]
			if bytes.Compare(e.key, end) > 0 {
				return out
			}
			s.touch(s.approxOffset(bi)+int64(ei*32), len(e.key)+len(e.val))
			if e.del || e.ts > tsq {
				continue
			}
			out = append(out, core.Result{
				Key:   append([]byte(nil), e.key...),
				Value: append([]byte(nil), e.val...),
				Ts:    e.ts,
				Found: true,
			})
		}
		ei = 0
	}
	return out
}

// BulkLoad fills an empty store from sorted records.
func (s *Store) BulkLoad(recs []record.Record) error {
	if len(s.buckets) != 1 || len(s.buckets[0].entries) != 0 {
		return fmt.Errorf("eleos: bulk load requires an empty store")
	}
	var total int64
	for i := range recs {
		total += int64(len(recs[i].Key) + len(recs[i].Value) + 24)
	}
	if total > s.cfg.MaxBytes {
		return fmt.Errorf("%w: %d bytes", ErrCapacity, total)
	}
	s.buckets = s.buckets[:0]
	target := bucketCap * 7 / 10 // leave 30% slack
	for i := 0; i < len(recs); i += target {
		endIdx := min(i+target, len(recs))
		b := &bucket{}
		for _, rec := range recs[i:endIdx] {
			if rec.Ts > s.nextTs {
				s.nextTs = rec.Ts
			}
			b.entries = append(b.entries, entry{
				key: append([]byte(nil), rec.Key...),
				val: append([]byte(nil), rec.Value...),
				ts:  rec.Ts,
				del: rec.Kind == record.KindDelete,
			})
		}
		s.buckets = append(s.buckets, b)
	}
	if len(s.buckets) == 0 {
		s.buckets = []*bucket{{}}
	}
	s.bytes = total
	s.region.Grow(int(float64(total) * slackFactor))
	// Loading wrote the whole array: bring it resident (steady state for
	// the measurement phase, like the paper's post-load scan).
	const chunk = 1 << 20
	for off := 0; off < s.region.Size(); off += chunk {
		n := chunk
		if off+n > s.region.Size() {
			n = s.region.Size() - off
		}
		s.region.Touch(off, n)
	}
	return nil
}

// Bytes returns the dataset size.
func (s *Store) Bytes() int64 { return s.bytes }

// persist writes the buffered recent writes out through an OCall.
func (s *Store) persist() {
	if len(s.writeBuf) == 0 {
		return
	}
	buf := s.writeBuf
	s.enclave.OCall(func() {
		s.persistFile.Append(buf)
		s.persistFile.Sync()
	})
	s.writeBuf = s.writeBuf[:0]
	s.dirty = 0
}

// Close flushes the persistence buffer. Operations after it fail with
// lsm.ErrClosed.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.persist()
	s.region.Free()
	return s.persistFile.Close()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
