// Package sstable implements the Sorted Strings Table file format used for
// all on-disk levels (L≥1) of the LSM store. SSTable files live in the
// untrusted world; in eLSM-P2 their records carry embedded Merkle proofs,
// and in eLSM-P1 their data blocks are sealed (encrypted + MACed) at file
// granularity.
//
// File layout:
//
//	[data block 0] … [data block n-1] [filter block] [index block] [footer]
//
// Data blocks hold whole records, framed as
//
//	kind u8 ‖ uvarint keyLen ‖ key ‖ ts u64 ‖ uvarint valLen ‖ value ‖
//	uvarint proofLen ‖ proof
//
// The index block maps each data block's last (key, ts) to its file extent;
// the filter block holds one Bloom filter per data block (§2: "a Bloom
// filter is built for each data block").
package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"

	"elsm/internal/bloom"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// Magic identifies SSTable files (last 8 footer bytes).
const Magic = 0xe15a_5a7a_b1e5_0001

// DefaultBlockSize is the target data-block payload size.
const DefaultBlockSize = 4096

// Format errors.
var (
	ErrBadTable = errors.New("sstable: malformed table")
	ErrOrder    = errors.New("sstable: records added out of order")
)

// BlockTransform seals data blocks on write and opens them on read
// (eLSM-P1's file-granularity protection). Implementations must be safe for
// concurrent use. The blockID binds a block to its position, preventing a
// malicious host from swapping sealed blocks around.
type BlockTransform interface {
	Seal(blockID uint64, plain []byte) []byte
	Open(blockID uint64, sealed []byte) ([]byte, error)
}

// BlockID derives the transform binding identifier for a block.
func BlockID(fileNum uint64, blockIdx int) uint64 {
	return fileNum<<20 | uint64(blockIdx)
}

// BlockSource fetches (unsealed) data-block bytes. The LSM layer provides
// implementations that route through the read buffer, the mmap view, or the
// enclave boundary with the appropriate cost accounting.
type BlockSource interface {
	ReadBlock(fileNum uint64, blockIdx int, off, length int64) ([]byte, error)
}

// ---------------------------------------------------------------------------
// Builder

// BuilderOptions configures table construction.
type BuilderOptions struct {
	// BlockSize is the target uncompressed block payload size
	// (DefaultBlockSize if zero).
	BlockSize int
	// BitsPerKey is the Bloom-filter budget (bloom.DefaultBitsPerKey if zero).
	BitsPerKey int
	// Transform optionally seals data blocks (eLSM-P1).
	Transform BlockTransform
	// FileNum is the table's file number, used for block binding.
	FileNum uint64
	// Proofs, when non-nil, supplies every record's embedded proof at build
	// time, written straight into the block buffer; Record.Proof is then
	// ignored. Nil writes each record's own Proof bytes.
	Proofs ProofAppender
}

// ProofAppender produces the embedded proofs of the records added to one
// table (§5.2: 〈k, v ‖ π〉). The builder asks for a proof's length, frames
// it, and has the proof appended directly after — no intermediate buffer.
// An implementation serves one builder; it need not be safe for concurrent
// use.
type ProofAppender interface {
	// ProofLen returns the exact number of bytes AppendProof will append
	// for rec, or an error if rec has no proof.
	ProofLen(rec record.Record) (int, error)
	// AppendProof appends rec's serialized proof to dst.
	AppendProof(dst []byte, rec record.Record) ([]byte, error)
}

// Meta describes a finished table.
type Meta struct {
	FileNum    uint64
	Smallest   []byte // smallest user key
	SmallestTs uint64
	Largest    []byte // largest user key
	LargestTs  uint64
	NumEntries int
	NumBlocks  int
	Size       int64
}

// Builder writes an SSTable. Records must be added in record order
// (key asc, ts desc). Not safe for concurrent use.
type Builder struct {
	f    vfs.File
	opts BuilderOptions

	off      int64
	blockBuf []byte
	// keyOffs holds (start, end) of every key framed into blockBuf, for the
	// block's Bloom filter; blockKeys is the scratch the offsets are turned
	// into at flush time.
	keyOffs   []int
	blockKeys [][]byte
	// indexKeys backs the index entries' lastKey slices (keyEnd marks each
	// entry's end), so a block costs no key allocation.
	indexKeys  []byte
	index      []builtBlock
	filters    [][]byte
	numEntries int
	haveLast   bool
	lastKey    []byte
	lastTs     uint64
	meta       Meta
}

type indexEntry struct {
	lastKey []byte
	lastTs  uint64
	off     int64
	length  int64
}

// builtBlock is the builder's index entry: its last key is
// indexKeys[previous keyEnd : keyEnd].
type builtBlock struct {
	keyEnd int
	lastTs uint64
	off    int64
	length int64
}

// NewBuilder starts building a table into f.
func NewBuilder(f vfs.File, opts BuilderOptions) *Builder {
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	if opts.BitsPerKey <= 0 {
		opts.BitsPerKey = bloom.DefaultBitsPerKey
	}
	return &Builder{f: f, opts: opts, meta: Meta{FileNum: opts.FileNum}}
}

// Add appends a record. Records must arrive in strict record order. The
// record's bytes are copied before Add returns.
func (b *Builder) Add(rec record.Record) error {
	if b.haveLast && record.Compare(b.lastKey, b.lastTs, rec.Key, rec.Ts) >= 0 {
		return fmt.Errorf("%w: %q@%d after %q@%d", ErrOrder, rec.Key, rec.Ts, b.lastKey, b.lastTs)
	}
	if !b.haveLast {
		b.meta.Smallest = append([]byte(nil), rec.Key...)
		b.meta.SmallestTs = rec.Ts
	}
	b.haveLast = true
	b.lastKey = append(b.lastKey[:0], rec.Key...)
	b.lastTs = rec.Ts

	buf := append(b.blockBuf, byte(rec.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Key)))
	b.keyOffs = append(b.keyOffs, len(buf), len(buf)+len(rec.Key))
	buf = append(buf, rec.Key...)
	buf = binary.BigEndian.AppendUint64(buf, rec.Ts)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Value)))
	buf = append(buf, rec.Value...)
	if b.opts.Proofs == nil {
		buf = binary.AppendUvarint(buf, uint64(len(rec.Proof)))
		buf = append(buf, rec.Proof...)
	} else {
		n, err := b.opts.Proofs.ProofLen(rec)
		if err != nil {
			return err
		}
		buf = binary.AppendUvarint(buf, uint64(n))
		if buf, err = b.opts.Proofs.AppendProof(buf, rec); err != nil {
			return err
		}
	}
	b.blockBuf = buf
	b.numEntries++
	if len(b.blockBuf) >= b.opts.BlockSize {
		return b.flushBlock()
	}
	return nil
}

func (b *Builder) flushBlock() error {
	if len(b.blockBuf) == 0 {
		return nil
	}
	b.blockKeys = b.blockKeys[:0]
	for i := 0; i < len(b.keyOffs); i += 2 {
		b.blockKeys = append(b.blockKeys, b.blockBuf[b.keyOffs[i]:b.keyOffs[i+1]])
	}
	b.filters = append(b.filters, bloom.Build(b.blockKeys, b.opts.BitsPerKey))
	payload := b.blockBuf
	if b.opts.Transform != nil {
		payload = b.opts.Transform.Seal(BlockID(b.opts.FileNum, len(b.index)), payload)
	}
	if _, err := b.f.Append(payload); err != nil {
		return fmt.Errorf("sstable: write block: %w", err)
	}
	b.indexKeys = append(b.indexKeys, b.lastKey...)
	b.index = append(b.index, builtBlock{
		keyEnd: len(b.indexKeys),
		lastTs: b.lastTs,
		off:    b.off,
		length: int64(len(payload)),
	})
	b.off += int64(len(payload))
	b.blockBuf = b.blockBuf[:0]
	b.keyOffs = b.keyOffs[:0]
	return nil
}

// Finish flushes the final block, writes the filter block, index block and
// footer, and returns the table metadata.
func (b *Builder) Finish() (Meta, error) {
	if err := b.flushBlock(); err != nil {
		return Meta{}, err
	}
	if b.numEntries == 0 {
		return Meta{}, fmt.Errorf("%w: empty table", ErrBadTable)
	}
	// Filter block.
	var fb []byte
	fb = binary.BigEndian.AppendUint32(fb, uint32(len(b.filters)))
	for _, f := range b.filters {
		fb = binary.BigEndian.AppendUint32(fb, uint32(len(f)))
		fb = append(fb, f...)
	}
	filterOff := b.off
	if _, err := b.f.Append(fb); err != nil {
		return Meta{}, fmt.Errorf("sstable: write filters: %w", err)
	}
	b.off += int64(len(fb))

	// Index block.
	var ib []byte
	ib = binary.BigEndian.AppendUint32(ib, uint32(len(b.index)))
	keyStart := 0
	for _, e := range b.index {
		ib = binary.AppendUvarint(ib, uint64(e.keyEnd-keyStart))
		ib = append(ib, b.indexKeys[keyStart:e.keyEnd]...)
		keyStart = e.keyEnd
		ib = binary.BigEndian.AppendUint64(ib, e.lastTs)
		ib = binary.BigEndian.AppendUint64(ib, uint64(e.off))
		ib = binary.BigEndian.AppendUint64(ib, uint64(e.length))
	}
	indexOff := b.off
	if _, err := b.f.Append(ib); err != nil {
		return Meta{}, fmt.Errorf("sstable: write index: %w", err)
	}
	b.off += int64(len(ib))

	// Footer: filterOff, filterLen, indexOff, indexLen, numEntries, magic.
	var ft []byte
	ft = binary.BigEndian.AppendUint64(ft, uint64(filterOff))
	ft = binary.BigEndian.AppendUint64(ft, uint64(len(fb)))
	ft = binary.BigEndian.AppendUint64(ft, uint64(indexOff))
	ft = binary.BigEndian.AppendUint64(ft, uint64(len(ib)))
	ft = binary.BigEndian.AppendUint64(ft, uint64(b.numEntries))
	ft = binary.BigEndian.AppendUint64(ft, Magic)
	if _, err := b.f.Append(ft); err != nil {
		return Meta{}, fmt.Errorf("sstable: write footer: %w", err)
	}
	b.off += int64(len(ft))

	b.meta.Largest = append([]byte(nil), b.lastKey...)
	b.meta.LargestTs = b.lastTs
	b.meta.NumEntries = b.numEntries
	b.meta.NumBlocks = len(b.index)
	b.meta.Size = b.off
	return b.meta, nil
}

// ---------------------------------------------------------------------------
// Reader

// Table reads an SSTable. Metadata (index + filters) is loaded once at Open
// — in eLSM these structures live inside the enclave ("file indices at
// levels L≥1 are placed inside the enclave", §4.2) — while data blocks are
// fetched on demand through a BlockSource and never decoded whole: point
// reads (Get, SeekWithPrev, Last) and Iter step through a block record by
// record, and only the records a point read returns are copied out of it.
type Table struct {
	fileNum    uint64
	index      []indexEntry
	filters    []bloom.Filter
	numEntries int
	source     BlockSource
}

// FileSource reads blocks straight from a file handle, applying an optional
// transform. It is the plain, cost-free source used by tests; the LSM layer
// provides cached and mmap sources.
type FileSource struct {
	F         vfs.File
	Transform BlockTransform
}

var _ BlockSource = (*FileSource)(nil)

// ReadBlock implements BlockSource.
func (s *FileSource) ReadBlock(fileNum uint64, blockIdx int, off, length int64) ([]byte, error) {
	buf := make([]byte, length)
	if _, err := s.F.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("sstable: read block %d: %w", blockIdx, err)
	}
	if s.Transform != nil {
		return s.Transform.Open(BlockID(fileNum, blockIdx), buf)
	}
	return buf, nil
}

// Open parses the table's footer, index and filter blocks from f and
// returns a Table that will fetch data blocks through source.
func Open(f vfs.File, fileNum uint64, source BlockSource) (*Table, error) {
	size := f.Size()
	const footerLen = 48
	if size < footerLen {
		return nil, fmt.Errorf("%w: too small (%d bytes)", ErrBadTable, size)
	}
	ft := make([]byte, footerLen)
	if _, err := f.ReadAt(ft, size-footerLen); err != nil {
		return nil, fmt.Errorf("sstable: read footer: %w", err)
	}
	if binary.BigEndian.Uint64(ft[40:48]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadTable)
	}
	filterOff := int64(binary.BigEndian.Uint64(ft[0:8]))
	filterLen := int64(binary.BigEndian.Uint64(ft[8:16]))
	indexOff := int64(binary.BigEndian.Uint64(ft[16:24]))
	indexLen := int64(binary.BigEndian.Uint64(ft[24:32]))
	numEntries := int(binary.BigEndian.Uint64(ft[32:40]))
	// The host wrote these numbers: every span is held to the file before
	// anything is allocated for it (they are int64s read from uint64s, so
	// "negative" is a length above 1<<63).
	inFile := func(off, n int64) bool { return off >= 0 && n >= 0 && n <= size && off <= size-n }
	if !inFile(filterOff, filterLen) || !inFile(indexOff, indexLen) {
		return nil, fmt.Errorf("%w: footer spans lie outside the %d-byte file", ErrBadTable, size)
	}

	ib := make([]byte, indexLen)
	if _, err := f.ReadAt(ib, indexOff); err != nil {
		return nil, fmt.Errorf("sstable: read index: %w", err)
	}
	t := &Table{fileNum: fileNum, numEntries: numEntries, source: source}
	if len(ib) < 4 {
		return nil, fmt.Errorf("%w: short index", ErrBadTable)
	}
	n := int(binary.BigEndian.Uint32(ib[:4]))
	const minIndexEntry = 1 + 24 // empty key
	if n == 0 || n > len(ib)/minIndexEntry {
		return nil, fmt.Errorf("%w: index claims %d entries in %d bytes", ErrBadTable, n, len(ib))
	}
	t.index = make([]indexEntry, 0, n)
	t.filters = make([]bloom.Filter, 0, n)
	p, dataEnd := 4, int64(0)
	for i := 0; i < n; i++ {
		klen, w := binary.Uvarint(ib[p:])
		if w <= 0 || klen > uint64(len(ib)) || p+w+int(klen)+24 > len(ib) {
			return nil, fmt.Errorf("%w: corrupt index entry %d", ErrBadTable, i)
		}
		p += w
		var e indexEntry
		e.lastKey = ib[p : p+int(klen) : p+int(klen)] // ib is ours: alias, don't copy
		p += int(klen)
		e.lastTs = binary.BigEndian.Uint64(ib[p : p+8])
		e.off = int64(binary.BigEndian.Uint64(ib[p+8 : p+16]))
		e.length = int64(binary.BigEndian.Uint64(ib[p+16 : p+24]))
		p += 24
		if !inFile(e.off, e.length) || e.off < dataEnd {
			return nil, fmt.Errorf("%w: block %d lies outside the %d-byte file or over the block before", ErrBadTable, i, size)
		}
		dataEnd = e.off + e.length
		if i > 0 && record.Compare(t.index[i-1].lastKey, t.index[i-1].lastTs, e.lastKey, e.lastTs) >= 0 {
			return nil, fmt.Errorf("%w: index entry %d does not ascend", ErrBadTable, i)
		}
		t.index = append(t.index, e)
	}

	fb := make([]byte, filterLen)
	if _, err := f.ReadAt(fb, filterOff); err != nil {
		return nil, fmt.Errorf("sstable: read filters: %w", err)
	}
	if len(fb) < 4 {
		return nil, fmt.Errorf("%w: short filter block", ErrBadTable)
	}
	fn := int(binary.BigEndian.Uint32(fb[:4]))
	p = 4
	for i := 0; i < fn; i++ {
		if p+4 > len(fb) {
			return nil, fmt.Errorf("%w: corrupt filter %d", ErrBadTable, i)
		}
		flen := int(binary.BigEndian.Uint32(fb[p : p+4]))
		p += 4
		if p+flen > len(fb) {
			return nil, fmt.Errorf("%w: corrupt filter %d", ErrBadTable, i)
		}
		t.filters = append(t.filters, bloom.Filter(fb[p:p+flen]))
		p += flen
	}
	if len(t.filters) != len(t.index) {
		return nil, fmt.Errorf("%w: %d filters for %d blocks", ErrBadTable, len(t.filters), len(t.index))
	}
	return t, nil
}

// NumEntries returns the number of records in the table.
func (t *Table) NumEntries() int { return t.numEntries }

// NumBlocks returns the number of data blocks.
func (t *Table) NumBlocks() int { return len(t.index) }

// MetadataBytes approximates the in-enclave footprint of the table's index
// and filters.
func (t *Table) MetadataBytes() int {
	total := 0
	for i := range t.index {
		total += len(t.index[i].lastKey) + 24
		total += len(t.filters[i])
	}
	return total
}

// seekBlock returns the index of the first block whose last entry is
// ≥ (key, ts), or len(index) if none.
func (t *Table) seekBlock(key []byte, ts uint64) int {
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := (lo + hi) / 2
		e := t.index[mid]
		if record.Compare(e.lastKey, e.lastTs, key, ts) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// DecodeBlock parses all records in a block payload into records that own
// their bytes. No product code calls it — point reads seek with the
// per-record cursor and clone only their witnesses (SeekWithPrev), scans and
// compaction iterate views (Iter) — it survives as the whole-block decode
// that benchmark/ times in isolation (sstable.decode_block_ns).
func DecodeBlock(data []byte) ([]record.Record, error) {
	var out []record.Record
	p := 0
	for p < len(data) {
		rec, n, err := viewRecordAt(data, p)
		if err != nil {
			return nil, err
		}
		out = append(out, rec.Clone())
		p += n
	}
	return out, nil
}

// viewRecordAt parses the record framed at data[p:] without copying: the
// returned record's slices alias data. n is the frame's length.
func viewRecordAt(data []byte, p int) (rec record.Record, n int, err error) {
	start := p
	if p >= len(data) {
		return rec, 0, fmt.Errorf("%w: truncated record", ErrBadTable)
	}
	rec.Kind = record.Kind(data[p])
	p++
	klen, w := binary.Uvarint(data[p:])
	if w <= 0 || klen > uint64(len(data)) || p+w+int(klen)+8 > len(data) {
		return rec, 0, fmt.Errorf("%w: bad key frame", ErrBadTable)
	}
	p += w
	rec.Key = data[p : p+int(klen) : p+int(klen)]
	p += int(klen)
	rec.Ts = binary.BigEndian.Uint64(data[p : p+8])
	p += 8
	vlen, w := binary.Uvarint(data[p:])
	if w <= 0 || vlen > uint64(len(data)) || p+w+int(vlen) > len(data) {
		return rec, 0, fmt.Errorf("%w: bad value frame", ErrBadTable)
	}
	p += w
	rec.Value = data[p : p+int(vlen) : p+int(vlen)]
	p += int(vlen)
	plen, w := binary.Uvarint(data[p:])
	if w <= 0 || plen > uint64(len(data)) || p+w+int(plen) > len(data) {
		return rec, 0, fmt.Errorf("%w: bad proof frame", ErrBadTable)
	}
	p += w
	rec.Proof = data[p : p+int(plen) : p+int(plen)]
	p += int(plen)
	return rec, p - start, nil
}

// block fetches data block i through the BlockSource. The bytes may be the
// block cache's, the mmap view or a compaction-pinned file image: untrusted
// memory the host can rewrite at any time, so callers copy what they keep.
func (t *Table) block(i int) ([]byte, error) {
	e := t.index[i]
	return t.source.ReadBlock(t.fileNum, i, e.off, e.length)
}

// seekInBlock walks block bi with the per-record cursor to the seek
// position of (key, ts): cur is the first record ≥ (key, ts) and prev the
// record before it, both views of the block (zero Kind when there is none).
func (t *Table) seekInBlock(bi int, key []byte, ts uint64) (prev, cur record.Record, err error) {
	data, err := t.block(bi)
	if err != nil {
		return prev, cur, err
	}
	for p := 0; p < len(data); {
		rec, n, err := viewRecordAt(data, p)
		if err != nil {
			return prev, cur, err
		}
		if record.Compare(rec.Key, rec.Ts, key, ts) >= 0 {
			return prev, rec, nil
		}
		prev = rec
		p += n
	}
	return prev, cur, nil
}

// cloneView copies a block view out of untrusted memory, or returns nil for
// the zero view.
func cloneView(view record.Record) *record.Record {
	if view.Kind == 0 {
		return nil
	}
	c := view.Clone()
	return &c
}

// Get returns the newest record of key with Ts ≤ tsq, if the table holds
// one. The Bloom filter short-circuits definite misses.
func (t *Table) Get(key []byte, tsq uint64) (record.Record, bool, error) {
	bi := t.seekBlock(key, tsq)
	if bi >= len(t.index) || !t.filters[bi].MayContain(key) {
		return record.Record{}, false, nil
	}
	_, cur, err := t.seekInBlock(bi, key, tsq)
	if err != nil || cur.Kind == 0 || string(cur.Key) != string(key) {
		return record.Record{}, false, err
	}
	return cur.Clone(), true, nil
}

// SeekWithPrev locates the seek position of (key, ts) and returns the
// records immediately before and at that position (either may be nil at the
// table edges). The eLSM layer uses this to assemble non-membership
// witnesses: for an absent key, prev and cur bracket it (§5.5.1 "returns
// the two neighboring records").
//
// The seek is untrusted-side work: it compares keys in place on the block
// bytes, reads each block at most once, and copies out only the one or two
// records it returns. Nothing it decides is believed — the verifier repeats
// every comparison it relies on against the returned copies, never against
// the block.
func (t *Table) SeekWithPrev(key []byte, ts uint64) (prev, cur *record.Record, err error) {
	bi := t.seekBlock(key, ts)
	if bi >= len(t.index) {
		// Position is past the end: prev is the table's last record.
		last, err := t.Last()
		if err != nil {
			return nil, nil, err
		}
		return &last, nil, nil
	}
	prevView, curView, err := t.seekInBlock(bi, key, ts)
	if err != nil {
		return nil, nil, err
	}
	if prevView.Kind == 0 && bi > 0 {
		// Boundary miss: the predecessor is the previous block's last record.
		last, err := t.lastView(bi - 1)
		if err != nil {
			return nil, nil, err
		}
		return cloneView(last), cloneView(curView), nil
	}
	return cloneView(prevView), cloneView(curView), nil
}

// lastView returns the last record of block bi — the one the index entry
// names — as a view of the block.
func (t *Table) lastView(bi int) (record.Record, error) {
	e := t.index[bi]
	_, last, err := t.seekInBlock(bi, e.lastKey, e.lastTs)
	if err == nil && last.Kind == 0 {
		err = fmt.Errorf("%w: block %d ends before its index entry", ErrBadTable, bi)
	}
	return last, err
}

// Last returns a copy of the table's last record.
func (t *Table) Last() (record.Record, error) {
	last, err := t.lastView(len(t.index) - 1)
	if err != nil {
		return record.Record{}, err
	}
	return last.Clone(), nil
}

// Iter returns an iterator over the table, unpositioned: SeekGE places it.
func (t *Table) Iter() *Iter {
	return &Iter{t: t}
}

// Iter iterates a table. It decodes one record at a time over the block
// bytes the BlockSource returned: the slices of Record() alias that block and
// are valid only until the next Next or SeekGE, as record.Iterator documents
// — a caller that keeps a record copies it. Walking forward it requests each
// block once. The first block-read or decode error ends the iteration and is
// what Close reports.
type Iter struct {
	t     *Table
	block int    // index of the loaded block
	data  []byte // its payload; nil when exhausted or failed
	next  int    // offset in data of the record after rec
	rec   record.Record
	prev  record.Record // the record SeekGE stepped over last; zero Kind if none
	valid bool
	err   error
}

var _ record.Iterator = (*Iter)(nil)

// Reset re-targets the iterator at table t, unpositioned and with no error.
func (it *Iter) Reset(t *Table) { *it = Iter{t: t} }

// seekBlockStart positions at the first record of block i or, if that
// block is empty, of the first non-empty block after it; past the last
// block, or on a read or decode error, the iterator becomes invalid.
func (it *Iter) seekBlockStart(i int) {
	it.data, it.valid = nil, false
	for ; i < len(it.t.index); i++ {
		data, err := it.t.block(i)
		if err != nil {
			it.err = err
			return
		}
		if len(data) > 0 {
			it.block, it.data, it.next = i, data, 0
			it.step()
			return
		}
	}
}

// step decodes the record at it.next, moving on to the following block when
// the current one is spent. Records must ascend strictly, within a block and
// from block to block: a block's first record is held to the index entry of
// the block before it and its last record to its own — the index is the
// reader's copy, where the bytes of a block already passed may be gone.
func (it *Iter) step() {
	index := it.t.index
	if it.next >= len(it.data) {
		if e := index[it.block]; record.Compare(it.rec.Key, it.rec.Ts, e.lastKey, e.lastTs) > 0 {
			it.fail(fmt.Errorf("%w: block %d runs past its index entry", ErrBadTable, it.block))
			return
		}
		it.seekBlockStart(it.block + 1)
		return
	}
	rec, n, err := viewRecordAt(it.data, it.next)
	if err != nil {
		it.fail(err)
		return
	}
	ordered := true
	if it.next > 0 {
		ordered = record.Compare(it.rec.Key, it.rec.Ts, rec.Key, rec.Ts) < 0
	} else if it.block > 0 {
		e := index[it.block-1]
		ordered = record.Compare(e.lastKey, e.lastTs, rec.Key, rec.Ts) < 0
	}
	if !ordered {
		it.fail(fmt.Errorf("%w: block %d: records out of order", ErrBadTable, it.block))
		return
	}
	it.rec, it.valid = rec, true
	it.next += n
}

// fail ends the iteration with err, the error Close reports.
func (it *Iter) fail(err error) { it.err, it.data, it.valid = err, nil, false }

func (it *Iter) Valid() bool { return it.valid }

func (it *Iter) Next() {
	if it.valid {
		it.step()
	}
}

func (it *Iter) Record() record.Record { return it.rec }

func (it *Iter) SeekGE(key []byte, ts uint64) {
	it.prev = record.Record{}
	if it.err != nil {
		return
	}
	it.seekBlockStart(it.t.seekBlock(key, ts))
	for it.valid && record.Compare(it.rec.Key, it.rec.Ts, key, ts) < 0 {
		it.prev = it.rec
		it.step()
	}
}

// SeekPrev returns, as a view, the record before the position the last
// SeekGE found — a range read's left-boundary witness. It is the record the
// seek stepped over last; only when the position opens a block (or lies past
// the table's end) is it the last record of the block before, which costs one
// more block read. ok is false at the table's first record. Call it before
// the first Next.
func (it *Iter) SeekPrev() (prev record.Record, ok bool, err error) {
	if it.err != nil {
		return prev, false, it.err
	}
	if it.prev.Kind != 0 {
		return it.prev, true, nil
	}
	bi := len(it.t.index) // past the end: the table's last block
	if it.valid {
		bi = it.block
	}
	if bi == 0 {
		return prev, false, nil
	}
	if prev, err = it.t.lastView(bi - 1); err != nil {
		it.fail(err)
		return prev, false, err
	}
	return prev, true, nil
}

// Close reports the first block-read or decode error encountered, if any.
func (it *Iter) Close() error { return it.err }
