// Package sstable implements the Sorted Strings Table file format used for
// all on-disk levels (L≥1) of the LSM store. SSTable files live in the
// untrusted world; in eLSM-P2 their records carry embedded Merkle proofs,
// and in eLSM-P1 their data blocks are sealed (encrypted + MACed) at file
// granularity.
//
// File layout (format version 2):
//
//	[data block 0] … [data block n-1] [filter block] [index block] [footer]
//
// A data block is whole records, after a group section if it has one:
//
//	[0x00 ‖ uvarint sectionLen ‖ section] record ‖ record ‖ …
//	record = kind u8 ‖ uvarint keyLen ‖ key ‖ ts u64 ‖ uvarint valLen ‖ value ‖
//	         uvarint proofLen ‖ proof
//
// (0x00 is no record kind.) A table built without a ProofAppender (P1,
// unsecured) has no sections and stores each record's proof bytes as they
// were given. A P2 run's blocks are cut at aligned Merkle subtrees: every
// record of a block belongs to one group of 2^k leaves, and the section is
// that group's subtree and root path (merkle.Section), stored once for the
// block. A record's proof field then holds only its version-chain part:
//
//	0x00                                          the leaf has no other version
//	0x01 ‖ u16 n ‖ n × (ts u64 ‖ digest) ‖ inner  otherwise
//
// and its leaf index is the section's first leaf plus the number of key
// changes before it in the block. Whoever copies a record out of a block as a
// witness rebuilds from these the embedded proof the verifier reads (Proof):
//
//	leaf u32 ‖ u16 n ‖ n × (ts u64 ‖ digest) ‖ inner ‖ u16 steps ‖ path
//
// with n = 0 and a zero inner for the 0x00 form, and path the leaf's
// authentication path expanded from the section. A section or chain part that
// does not parse expands to no proof at all, which no verifier accepts.
//
// The index block maps each data block's last (key, ts) to its file extent.
// The filter block is a u32 count followed by that many length-framed Bloom
// filters (u32 length ‖ filter). A table built without a ProofAppender
// carries one filter per data block (§2: "a Bloom filter is built for each
// data block"), and its raw Get skips a block whose filter rules the key
// out. A P2 table's filter block is a bare count of 0: a P2 read proves a
// key absent with the two records around it (§5.5.1), so it reads the block
// whatever a filter says, and the enclave would only pay to hold one.
package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"elsm/internal/blockcache"
	"elsm/internal/bloom"
	"elsm/internal/hashutil"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// Magic identifies SSTable files (last 8 footer bytes); its low 16 bits are
// the format version. Version 1 stored a whole root path in every record and
// is refused.
const Magic = 0xe15a_5a7a_b1e5_0002

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

// PinningSource is a BlockSource that can hold a block in place for a reader
// that copies what it needs and lets go: the bytes ReadBlockPinned returns
// stay the block's until pins is released (see blockcache). A reader that
// passes a nil Pins, and every reader of a source without the method, gets
// ReadBlock's bytes, which it may keep.
type PinningSource interface {
	BlockSource
	ReadBlockPinned(fileNum uint64, blockIdx int, off, length int64, pins *blockcache.Pins) ([]byte, error)
}

// ---------------------------------------------------------------------------
// Builder

// BuilderOptions configures table construction.
type BuilderOptions struct {
	// BlockSize is the target uncompressed block payload size
	// (DefaultBlockSize if zero).
	BlockSize int
	// Transform optionally seals data blocks (eLSM-P1).
	Transform BlockTransform
	// FileNum is the table's file number, used for block binding.
	FileNum uint64
	// Proofs, when non-nil, supplies every record's embedded proof at build
	// time, as a chain part per record and a group section per block;
	// Record.Proof is then ignored, and the table carries no filters. Nil
	// writes each record's own Proof bytes, no sections, and a Bloom filter
	// of bloom.DefaultBitsPerKey per block.
	Proofs ProofAppender
}

// ProofAppender produces the embedded proofs of the records added to one
// table (§5.2: 〈k, v ‖ π〉), split the way a block stores them (see the
// package doc). For each record the builder calls Group, then AppendSection
// if the record opens a block, then AppendChain. An implementation serves one
// builder; it need not be safe for concurrent use.
type ProofAppender interface {
	// Group locates rec in its run's Merkle tree and returns the group its
	// leaf belongs to, or an error if rec has no proof. A block never holds
	// records of two groups.
	Group(rec record.Record) (int, error)
	// AppendSection appends the group section of a block whose first record
	// is the one Group located last.
	AppendSection(dst []byte) []byte
	// AppendChain appends the version-chain part of the proof of the record
	// Group located last.
	AppendChain(dst []byte) []byte
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
	indexKeys []byte
	index     []builtBlock
	// filterBlock is the filter block as it grows: a count, patched at
	// Finish, then each block's filter, framed as it is built (the count
	// alone, left 0, with Proofs).
	filterBlock []byte
	numEntries  int
	haveLast    bool
	lastKey     []byte
	lastTs      uint64
	meta        Meta
	// group is the proof group of the records in blockBuf; scratch holds a
	// section or chain part until its length is framed, and the index block
	// and the footer at Finish.
	group   int
	scratch []byte
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
	b := new(Builder)
	b.Reset(f, opts)
	return b
}

// Reset starts building a new table into f, keeping the buffers of the
// tables built before. The builder holds f and opts until the next Reset:
// Reset(nil, BuilderOptions{}) lets go of a finished table's file and
// proof appender.
func (b *Builder) Reset(f vfs.File, opts BuilderOptions) {
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	*b = Builder{
		f:           f,
		opts:        opts,
		meta:        Meta{FileNum: opts.FileNum},
		blockBuf:    b.blockBuf[:0],
		keyOffs:     b.keyOffs[:0],
		blockKeys:   b.blockKeys[:0],
		indexKeys:   b.indexKeys[:0],
		index:       b.index[:0],
		filterBlock: append(b.filterBlock[:0], 0, 0, 0, 0),
		lastKey:     b.lastKey[:0],
		scratch:     b.scratch[:0],
	}
}

// Add appends a record. Records must arrive in strict record order. The
// record's bytes are copied before Add returns.
func (b *Builder) Add(rec record.Record) error {
	if b.haveLast && record.Compare(b.lastKey, b.lastTs, rec.Key, rec.Ts) >= 0 {
		return fmt.Errorf("%w: %q@%d after %q@%d", ErrOrder, rec.Key, rec.Ts, b.lastKey, b.lastTs)
	}
	proofs := b.opts.Proofs
	if proofs != nil {
		g, err := proofs.Group(rec)
		if err != nil {
			return err
		}
		if len(b.blockBuf) > 0 && g != b.group {
			if err := b.flushBlock(); err != nil {
				return err
			}
		}
		b.group = g
	}
	if !b.haveLast {
		b.meta.Smallest = append([]byte(nil), rec.Key...)
		b.meta.SmallestTs = rec.Ts
	}
	b.haveLast = true
	b.lastKey = append(b.lastKey[:0], rec.Key...)
	b.lastTs = rec.Ts

	buf := b.blockBuf
	if len(buf) == 0 && proofs != nil {
		b.scratch = proofs.AppendSection(b.scratch[:0])
		buf = appendFramed(append(buf, sectionMark), b.scratch)
	}
	buf = append(buf, byte(rec.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Key)))
	b.keyOffs = append(b.keyOffs, len(buf), len(buf)+len(rec.Key))
	buf = append(buf, rec.Key...)
	buf = binary.BigEndian.AppendUint64(buf, rec.Ts)
	buf = appendFramed(buf, rec.Value)
	if proofs == nil {
		buf = appendFramed(buf, rec.Proof)
	} else {
		b.scratch = proofs.AppendChain(b.scratch[:0])
		buf = appendFramed(buf, b.scratch)
	}
	b.blockBuf = buf
	b.numEntries++
	if len(b.blockBuf) >= b.opts.BlockSize {
		return b.flushBlock()
	}
	return nil
}

// appendFramed appends p with its uvarint length in front.
func appendFramed(dst, p []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(p))), p...)
}

func (b *Builder) flushBlock() error {
	if len(b.blockBuf) == 0 {
		return nil
	}
	if b.opts.Proofs == nil {
		b.blockKeys = b.blockKeys[:0]
		for i := 0; i < len(b.keyOffs); i += 2 {
			b.blockKeys = append(b.blockKeys, b.blockBuf[b.keyOffs[i]:b.keyOffs[i+1]])
		}
		at := len(b.filterBlock)
		b.filterBlock = bloom.Append(append(b.filterBlock, 0, 0, 0, 0), b.blockKeys, bloom.DefaultBitsPerKey)
		binary.BigEndian.PutUint32(b.filterBlock[at:], uint32(len(b.filterBlock)-at-4))
	}
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
	// Filter block: a bare count of 0 with Proofs.
	fb := b.filterBlock
	if b.opts.Proofs == nil {
		binary.BigEndian.PutUint32(fb, uint32(len(b.index)))
	}
	filterOff := b.off
	if _, err := b.f.Append(fb); err != nil {
		return Meta{}, fmt.Errorf("sstable: write filters: %w", err)
	}
	b.off += int64(len(fb))

	// Index block.
	ib := binary.BigEndian.AppendUint32(b.scratch[:0], uint32(len(b.index)))
	keyStart := 0
	for _, e := range b.index {
		ib = binary.AppendUvarint(ib, uint64(e.keyEnd-keyStart))
		ib = append(ib, b.indexKeys[keyStart:e.keyEnd]...)
		keyStart = e.keyEnd
		ib = binary.BigEndian.AppendUint64(ib, e.lastTs)
		ib = binary.BigEndian.AppendUint64(ib, uint64(e.off))
		ib = binary.BigEndian.AppendUint64(ib, uint64(e.length))
	}
	b.scratch = ib
	indexOff := b.off
	if _, err := b.f.Append(ib); err != nil {
		return Meta{}, fmt.Errorf("sstable: write index: %w", err)
	}
	b.off += int64(len(ib))

	// Footer: filterOff, filterLen, indexOff, indexLen, numEntries, magic.
	ft := binary.BigEndian.AppendUint64(b.scratch[:0], uint64(filterOff))
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

// Table reads an SSTable. Metadata (index + filters, if any) is loaded once
// at Open — in eLSM these structures live inside the enclave ("file indices
// at levels L≥1 are placed inside the enclave", §4.2) — while data blocks are
// fetched on demand through a BlockSource and never decoded whole: point
// reads (Seek, Get, LastView) and Iter step through a block record by record
// and hand out views of it.
type Table struct {
	fileNum    uint64
	index      []indexEntry
	filters    []bloom.Filter // one per block, or none
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
	switch m := binary.BigEndian.Uint64(ft[40:48]); {
	case m>>16 != Magic>>16:
		return nil, fmt.Errorf("%w: bad magic", ErrBadTable)
	case m != Magic:
		return nil, fmt.Errorf("%w: format version %d, this reader reads only version %d", ErrBadTable, m&0xffff, Magic&0xffff)
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
	if fn != 0 && fn != n {
		return nil, fmt.Errorf("%w: %d filters for %d blocks", ErrBadTable, fn, n)
	}
	t.filters = make([]bloom.Filter, 0, fn)
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
	}
	for _, f := range t.filters {
		total += len(f)
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
// their bytes, proofs rebuilt. No product code calls it — point reads seek
// with the per-record cursor and hand out views (Seek), scans and compaction
// iterate views (Iter) — it survives as the whole-block decode that
// benchmark/ times in isolation (sstable.decode_block_ns).
func DecodeBlock(data []byte) ([]record.Record, error) {
	c, err := newCursor(data)
	if err != nil {
		return nil, err
	}
	var out []record.Record
	for {
		ok, err := c.step()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, Clone(c.rec, c.proof()))
	}
}

// cursor steps through the records of one block in place. ord counts the
// key changes before the current record: its leaf is the section's first
// leaf plus ord.
type cursor struct {
	data, section []byte
	next          int // offset in data of the record after rec
	rec           record.Record
	ord           int // -1 before the first record
}

// sectionMark opens a block that carries a section: a byte no record starts
// with, record kinds starting at one.
const sectionMark = 0

// newCursor splits a block into its section, if it has one, and records,
// positioned before the first record.
func newCursor(data []byte) (cursor, error) {
	c := cursor{data: data, ord: -1}
	if len(data) == 0 || data[0] != sectionMark {
		return c, nil
	}
	n, w := binary.Uvarint(data[1:])
	if w <= 0 || n == 0 || n > uint64(len(data)-1-w) {
		return cursor{}, fmt.Errorf("%w: bad section frame", ErrBadTable)
	}
	c.next = 1 + w + int(n)
	c.section = data[1+w : c.next : c.next]
	return c, nil
}

// step moves to the next record, reporting false at the end of the block.
func (c *cursor) step() (bool, error) {
	if c.next >= len(c.data) {
		return false, nil
	}
	rec, n, err := viewRecordAt(c.data, c.next)
	if err != nil {
		return false, err
	}
	if c.ord < 0 || !bytes.Equal(rec.Key, c.rec.Key) {
		c.ord++
	}
	c.rec, c.next = rec, c.next+n
	return true, nil
}

func (c *cursor) proof() Proof { return Proof{stored: c.rec.Proof, section: c.section, ord: c.ord} }

func (c *cursor) view() View { return View{c.rec, c.proof()} }

// Proof is a handle on the embedded proof of a record viewed in a block: the
// record's stored proof field, its block's section and the record's key
// ordinal in the block. Like the view it comes with, it aliases the block.
type Proof struct {
	stored  []byte
	section []byte // nil in a block without one: stored is the proof
	ord     int
}

// zeroChain is the chain part of a leaf's only version: no newer versions
// and a zero inner value.
var zeroChain [2 + hashutil.Size]byte

// chainLen returns the length of the chain part the stored field expands
// to, or -1 if it is neither form the package doc lists.
func chainLen(stored []byte) int {
	switch {
	case len(stored) == 1 && stored[0] == 0:
		return len(zeroChain)
	case len(stored) > 1 && stored[0] == 1:
		return len(stored) - 1
	}
	return -1
}

// rebuild is a proof's parts, parsed once; n is the length of the proof they
// rebuild, 0 if anything is malformed or the record's leaf lies outside the
// section's group.
type rebuild struct {
	p           Proof
	s           merkle.Section
	leaf, steps int
	n           int
}

func (r *rebuild) parse(p Proof) {
	*r = rebuild{p: p}
	if p.section == nil {
		r.n = len(p.stored)
		return
	}
	var err error
	r.s, err = merkle.ParseSection(p.section)
	chain := chainLen(p.stored)
	if err != nil || chain < 0 {
		return
	}
	r.leaf = r.s.First() + p.ord
	if r.steps = r.s.PathLen(r.leaf); r.steps >= 0 {
		r.n = 4 + chain + 2 + r.steps*merkle.PathNodeSize
	}
}

func (r *rebuild) appendTo(dst []byte) []byte {
	p := r.p
	switch {
	case p.section == nil:
		return append(dst, p.stored...)
	case r.n == 0:
		return dst
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.leaf))
	if p.stored[0] == 0 {
		dst = append(dst, zeroChain[:]...)
	} else {
		dst = append(dst, p.stored[1:]...)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(r.steps))
	return r.s.AppendPath(dst, r.leaf)
}

// AppendTo appends the embedded proof: for a record of a block with a
// section, rebuilt as the package doc describes — nothing if it cannot be —
// and otherwise the stored bytes as they are.
func (p Proof) AppendTo(dst []byte) []byte {
	var r rebuild
	r.parse(p)
	return r.appendTo(dst)
}

// Clone copies rec, a record viewed in a block, out of the block with its
// proof rebuilt from p, in one allocation as record.Clone does. Verified
// reads do not call it: they copy a view's fields into enclave scratch
// (Proof.AppendTo); it serves the cloning wrappers, scanRunChunk and tests.
func Clone(rec record.Record, p Proof) record.Record {
	var r rebuild
	r.parse(p)
	k, v := len(rec.Key), len(rec.Key)+len(rec.Value)
	buf := make([]byte, v, v+r.n)
	copy(buf, rec.Key)
	copy(buf[k:], rec.Value)
	buf = r.appendTo(buf)
	field := func(lo, hi int) []byte {
		if lo == hi {
			return nil
		}
		return buf[lo:hi:hi]
	}
	return record.Record{Key: field(0, k), Ts: rec.Ts, Kind: rec.Kind, Value: field(k, v), Proof: field(v, len(buf))}
}

// View is a record viewed in a block and the handle on its proof. Ts and
// Kind are the View's own; Key, Value and the proof alias the block. The
// zero View (Kind 0) is no record.
type View struct {
	Rec   record.Record
	Proof Proof
}

// Clone copies the view out of the block, or returns nil for the zero view.
func (v View) Clone() *record.Record {
	if v.Rec.Kind == 0 {
		return nil
	}
	c := Clone(v.Rec, v.Proof)
	return &c
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

// block fetches data block i through the BlockSource — pinned into pins when
// pins is non-nil and the source can pin. The bytes may be the block cache's,
// the mmap view or a compaction-pinned file image: untrusted memory the host
// can rewrite at any time, so callers copy what they keep.
func (t *Table) block(i int, pins *blockcache.Pins) ([]byte, error) {
	e := t.index[i]
	if pins != nil {
		if ps, ok := t.source.(PinningSource); ok {
			return ps.ReadBlockPinned(t.fileNum, i, e.off, e.length, pins)
		}
	}
	return t.source.ReadBlock(t.fileNum, i, e.off, e.length)
}

// seekInBlock walks block bi with the per-record cursor to the seek
// position of (key, ts): cur is the first record ≥ (key, ts) and prev the
// record before it, both views of the block (zero Kind when there is none).
func (t *Table) seekInBlock(bi int, key []byte, ts uint64, pins *blockcache.Pins) (prev, cur View, err error) {
	data, err := t.block(bi, pins)
	if err != nil {
		return prev, cur, err
	}
	c, err := newCursor(data)
	var last record.Record // the record before c's, and its key ordinal
	lastOrd := 0
	for err == nil {
		var ok bool
		if ok, err = c.step(); !ok {
			break
		}
		if record.Compare(c.rec.Key, c.rec.Ts, key, ts) >= 0 {
			cur = c.view()
			break
		}
		last, lastOrd = c.rec, c.ord
	}
	if last.Kind != 0 {
		prev = View{last, Proof{stored: last.Proof, section: c.section, ord: lastOrd}}
	}
	return prev, cur, err
}

// Get returns the newest record of key with Ts ≤ tsq, if the table holds
// one, its proof rebuilt: the raw (unverified) point read. A block's Bloom
// filter short-circuits definite misses; a table without filters may hold
// any key.
func (t *Table) Get(key []byte, tsq uint64) (record.Record, bool, error) {
	bi := t.seekBlock(key, tsq)
	if bi >= len(t.index) || len(t.filters) > 0 && !t.filters[bi].MayContain(key) {
		return record.Record{}, false, nil
	}
	_, cur, err := t.seekInBlock(bi, key, tsq, nil)
	if err != nil || cur.Rec.Kind == 0 || string(cur.Rec.Key) != string(key) {
		return record.Record{}, false, err
	}
	return *cur.Clone(), true, nil
}

// Seek locates the seek position of (key, ts) and returns views of the
// records at (cur) and immediately before (prev) that position, either zero
// at the table's edges, with their blocks pinned into pins (see block). The
// eLSM layer assembles a point read's witnesses from them: cur alone when it
// holds key, else the pair that brackets the key (§5.5.1 "returns the two
// neighboring records"). So prev costs a read of the block before only when
// cur does not hold key; within the block it comes with the walk.
//
// The seek is untrusted-side work: it compares keys in place on the block
// bytes, reads each block at most once and copies nothing. Nothing it decides
// is believed — the verifier repeats every comparison it relies on against
// its own copies of the views, never against the block.
func (t *Table) Seek(key []byte, ts uint64, pins *blockcache.Pins) (prev, cur View, err error) {
	return t.seek(key, ts, pins, false)
}

func (t *Table) seek(key []byte, ts uint64, pins *blockcache.Pins, alwaysPrev bool) (prev, cur View, err error) {
	bi := t.seekBlock(key, ts)
	if bi >= len(t.index) {
		// Position is past the end: prev is the table's last record.
		prev, err = t.lastView(bi-1, pins)
		return prev, cur, err
	}
	if prev, cur, err = t.seekInBlock(bi, key, ts, pins); err != nil {
		return prev, cur, err
	}
	hit := cur.Rec.Kind != 0 && bytes.Equal(cur.Rec.Key, key)
	if prev.Rec.Kind == 0 && bi > 0 && (alwaysPrev || !hit) {
		// Boundary miss: the predecessor is the previous block's last record.
		prev, err = t.lastView(bi-1, pins)
	}
	return prev, cur, err
}

// SeekWithPrev is Seek with both records copied out, proofs rebuilt (nil at
// the table edges), and prev looked up even when cur holds key.
func (t *Table) SeekWithPrev(key []byte, ts uint64) (prev, cur *record.Record, err error) {
	p, c, err := t.seek(key, ts, nil, true)
	if err != nil {
		return nil, nil, err
	}
	return p.Clone(), c.Clone(), nil
}

// lastView returns the last record of block bi — the one the index entry
// names — as a view of the block.
func (t *Table) lastView(bi int, pins *blockcache.Pins) (View, error) {
	e := t.index[bi]
	_, last, err := t.seekInBlock(bi, e.lastKey, e.lastTs, pins)
	if err == nil && last.Rec.Kind == 0 {
		err = fmt.Errorf("%w: block %d ends before its index entry", ErrBadTable, bi)
	}
	return last, err
}

// LastView returns the table's last record as a view of its block, pinned
// into pins (see block).
func (t *Table) LastView(pins *blockcache.Pins) (View, error) {
	return t.lastView(len(t.index)-1, pins)
}

// Last returns a copy of the table's last record, its proof rebuilt.
func (t *Table) Last() (record.Record, error) {
	v, err := t.LastView(nil)
	if err != nil {
		return record.Record{}, err
	}
	return *v.Clone(), nil
}

// Iter returns an iterator over the table, unpositioned: SeekGE places it.
func (t *Table) Iter() *Iter {
	return &Iter{t: t}
}

// Iter iterates a table. It decodes one record at a time over the block
// bytes the BlockSource returned: the slices of Record() alias that block and
// are valid only until the next Next or SeekGE, as record.Iterator documents
// — a caller that keeps a record copies it, and one that keeps its proof
// copies Proof() (Clone does both). Walking forward it requests each block
// once. The first block-read or decode error ends the iteration and is what
// Close reports.
type Iter struct {
	t     *Table
	pins  *blockcache.Pins // what every block read is pinned into; nil: none
	block int              // index of the loaded block
	cur   cursor           // on the current record of that block
	prev  View             // the record SeekGE stepped over last; zero Kind if none
	valid bool
	err   error
}

var _ record.Iterator = (*Iter)(nil)

// Reset re-targets the iterator at table t, unpositioned and with no error.
func (it *Iter) Reset(t *Table) { it.ResetPinned(t, nil) }

// ResetPinned is Reset for a reader that pins every block the iterator reads
// into pins (see Table.Seek).
func (it *Iter) ResetPinned(t *Table, pins *blockcache.Pins) { *it = Iter{t: t, pins: pins} }

// seekBlockStart positions at the first record of block i or, if that
// block has none, of the first block after it that has; past the last
// block, or on a read or decode error, the iterator becomes invalid.
func (it *Iter) seekBlockStart(i int) {
	it.valid = false
	for ; i < len(it.t.index); i++ {
		data, err := it.t.block(i, it.pins)
		if err == nil {
			it.cur, err = newCursor(data)
		}
		if err != nil {
			it.fail(err)
			return
		}
		if it.cur.next < len(data) {
			it.block = i
			it.step()
			return
		}
	}
}

// step decodes the next record, moving on to the following block when the
// current one is spent. Records must ascend strictly, within a block and
// from block to block: a block's first record is held to the index entry of
// the block before it and its last record to its own — the index is the
// reader's copy, where the bytes of a block already passed may be gone.
func (it *Iter) step() {
	index := it.t.index
	last, opening := it.cur.rec, it.cur.ord < 0
	ok, err := it.cur.step()
	switch {
	case err != nil:
		it.fail(err)
		return
	case !ok:
		if e := index[it.block]; record.Compare(last.Key, last.Ts, e.lastKey, e.lastTs) > 0 {
			it.fail(fmt.Errorf("%w: block %d runs past its index entry", ErrBadTable, it.block))
			return
		}
		it.seekBlockStart(it.block + 1)
		return
	}
	rec := it.cur.rec
	ordered := true
	if !opening {
		ordered = record.Compare(last.Key, last.Ts, rec.Key, rec.Ts) < 0
	} else if it.block > 0 {
		e := index[it.block-1]
		ordered = record.Compare(e.lastKey, e.lastTs, rec.Key, rec.Ts) < 0
	}
	if !ordered {
		it.fail(fmt.Errorf("%w: block %d: records out of order", ErrBadTable, it.block))
		return
	}
	it.valid = true
}

// fail ends the iteration with err, the error Close reports.
func (it *Iter) fail(err error) { it.err, it.cur, it.valid = err, cursor{}, false }

func (it *Iter) Valid() bool { return it.valid }

func (it *Iter) Next() {
	if it.valid {
		it.step()
	}
}

func (it *Iter) Record() record.Record { return it.cur.rec }

// Proof returns the handle on the current record's proof, valid as long as
// Record's slices are.
func (it *Iter) Proof() Proof { return it.cur.proof() }

func (it *Iter) SeekGE(key []byte, ts uint64) {
	it.prev = View{}
	if it.err != nil {
		return
	}
	it.seekBlockStart(it.t.seekBlock(key, ts))
	for it.valid && record.Compare(it.cur.rec.Key, it.cur.rec.Ts, key, ts) < 0 {
		it.prev = it.cur.view()
		it.step()
	}
}

// SeekPrev returns, as a view with its proof handle, the record before the
// position the last SeekGE found — a range read's left-boundary witness. It
// is the record the seek stepped over last; only when the position opens a
// block (or lies past the table's end) is it the last record of the block
// before, which costs one more block read. ok is false at the table's first
// record. Call it before the first Next.
func (it *Iter) SeekPrev() (prev record.Record, proof Proof, ok bool, err error) {
	if it.err != nil {
		return prev, proof, false, it.err
	}
	if it.prev.Rec.Kind != 0 {
		return it.prev.Rec, it.prev.Proof, true, nil
	}
	bi := len(it.t.index) // past the end: the table's last block
	if it.valid {
		bi = it.block
	}
	if bi == 0 {
		return prev, proof, false, nil
	}
	v, err := it.t.lastView(bi-1, it.pins)
	if err != nil {
		it.fail(err)
		return prev, proof, false, err
	}
	return v.Rec, v.Proof, true, nil
}

// Close reports the first block-read or decode error encountered, if any.
func (it *Iter) Close() error { return it.err }
