// Package vfs abstracts the untrusted world's file storage for the LSM
// engine: write-ahead logs and SSTables live here, outside the enclave.
//
// Two implementations are provided: MemFS (in-memory; used by tests and the
// scaled-down benchmarks, where the paper's datasets fit in RAM after the
// 1/32 scaling) and OSFS (real directory on disk). Both expose an
// mmap-style zero-copy view (File.Bytes) used by the eLSM-P2 mmap read path
// (§5.5.1), alongside positional reads used by the buffered read path.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned when a named file does not exist.
var ErrNotFound = errors.New("vfs: file not found")

// FS is the untrusted file system interface used by the LSM engine.
type FS interface {
	// Create creates (or truncates) a file open for appending.
	Create(name string) (File, error)
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically renames a file (used for whole-file swaps).
	Rename(oldName, newName string) error
	// List returns the sorted names of files with the given prefix.
	List(prefix string) ([]string, error)
	// Exists reports whether the named file exists.
	Exists(name string) bool
}

// File is a handle to an untrusted file.
type File interface {
	io.WriterAt
	io.ReaderAt
	// Append writes p at the end of the file.
	Append(p []byte) (int, error)
	// Size returns the current file length.
	Size() int64
	// Bytes returns a zero-copy view of the whole file if the
	// implementation supports mmap-style access, or nil otherwise.
	// The view is invalidated by writes.
	Bytes() []byte
	// Truncate shrinks (or grows, zero-filled) the file to size bytes.
	// Used by WAL recovery to drop a torn tail after a crash.
	Truncate(size int64) error
	// Sync flushes to stable storage.
	Sync() error
	// Close releases the handle.
	Close() error
}

// ReadFile returns a private copy of the whole named file. It is the one way
// a file is read at once — a log, a sealed blob, a table being exported, an
// unsecured store's manifest — and the copy stays valid whatever the file
// takes later.
func ReadFile(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, f.Size())
	if n, err := f.ReadAt(data, 0); n < len(data) {
		return nil, fmt.Errorf("vfs: read %s: %w", name, err)
	}
	return data, nil
}

// WriteFile replaces the named file with data: it writes name+".tmp",
// fsyncs and closes it, then renames it over name. A crash at any point
// leaves either the old file or the new one, never a torn mix, so this is
// the one way a whole file is written.
func WriteFile(fs FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Append(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, name)
}

// ---------------------------------------------------------------------------
// Sub-filesystems

// subber is implemented by filesystems with a native notion of
// subdirectories (OSFS); everything else gets the generic name-prefix view.
type subber interface {
	Sub(dir string) (FS, error)
}

// Sub returns a view of fs rooted at the named subdirectory — the unit the
// shard router uses to give each shard an isolated per-shard directory
// (its own WAL, SSTables and sealed state) inside one parent
// store location. OSFS creates a real directory; other implementations get
// a name-prefix view, which composes with the fault/latency-injecting
// wrappers used in tests.
func Sub(fs FS, dir string) (FS, error) {
	if s, ok := fs.(subber); ok {
		return s.Sub(dir)
	}
	return &prefixFS{inner: fs, prefix: dir + "/"}, nil
}

// prefixFS scopes an FS to a name prefix. It relies only on the FS
// interface, so it layers over MemFS, FaultFS and SlowSyncFS alike.
type prefixFS struct {
	inner  FS
	prefix string
}

var _ FS = (*prefixFS)(nil)

func (fs *prefixFS) Create(name string) (File, error) { return fs.inner.Create(fs.prefix + name) }
func (fs *prefixFS) Open(name string) (File, error)   { return fs.inner.Open(fs.prefix + name) }
func (fs *prefixFS) Remove(name string) error         { return fs.inner.Remove(fs.prefix + name) }
func (fs *prefixFS) Exists(name string) bool          { return fs.inner.Exists(fs.prefix + name) }

func (fs *prefixFS) Rename(oldName, newName string) error {
	return fs.inner.Rename(fs.prefix+oldName, fs.prefix+newName)
}

func (fs *prefixFS) List(prefix string) ([]string, error) {
	names, err := fs.inner.List(fs.prefix + prefix)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, strings.TrimPrefix(n, fs.prefix))
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// MemFS

// MemFS is an in-memory FS safe for concurrent use.
type MemFS struct {
	mu    sync.RWMutex
	files map[string]*memFile
}

var _ FS = (*MemFS)(nil)

// NewMem creates an empty in-memory file system.
func NewMem() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// memChunk is the size of the chunks a MemFS file grows by once its first
// write has landed.
const memChunk = 64 << 10

// memFile is a MemFS file's bytes, held in chunks so that a growing file (a
// log) fills fixed chunks and never copies what it holds. The first chunk is
// the first write, of its length (for a clone or a flattened file, the whole
// file), so a file written by one Append (an SSTable, a sealed blob) is one
// slice; every later chunk holds memChunk bytes. Every chunk but the last is full (len == cap), so an
// offset names its chunk by arithmetic (locate).
type memFile struct {
	mu     sync.RWMutex
	name   string
	chunks [][]byte
	size   int64
}

// locate returns the chunk holding byte off and off's place in it. The file
// must hold a chunk.
func (f *memFile) locate(off int64) (int, int) {
	first := int64(cap(f.chunks[0]))
	if off < first {
		return 0, int(off)
	}
	off -= first
	return 1 + int(off/memChunk), int(off % memChunk)
}

// extend adds n bytes at the end of the file: p's, or zeros if p is nil.
func (f *memFile) extend(p []byte, n int) {
	if n == 0 {
		return
	}
	if len(f.chunks) == 0 {
		c := make([]byte, n)
		copy(c, p)
		f.chunks, f.size = [][]byte{c}, int64(n)
		return
	}
	for n > 0 {
		last := len(f.chunks) - 1
		c := f.chunks[last]
		if len(c) == cap(c) {
			f.chunks = append(f.chunks, make([]byte, 0, memChunk))
			continue
		}
		k := min(n, cap(c)-len(c))
		tail := c[len(c) : len(c)+k]
		if p != nil {
			p = p[copy(tail, p):]
		} else {
			clear(tail) // a truncated tail may still hold old bytes
		}
		f.chunks[last] = c[:len(c)+k]
		f.size += int64(k)
		n -= k
	}
}

// flatten copies the file's bytes into one new slice.
func (f *memFile) flatten() []byte {
	out := make([]byte, 0, f.size)
	for _, c := range f.chunks {
		out = append(out, c...)
	}
	return out
}

type memHandle struct {
	f *memFile
}

var _ File = (*memHandle)(nil)

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &memFile{name: name}
	fs.files[name] = f
	return &memHandle{f: f}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return &memHandle{f: f}, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(fs.files, name)
	return nil
}

// Rename implements FS.
func (fs *MemFS) Rename(oldName, newName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[oldName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, oldName)
	}
	delete(fs.files, oldName)
	f.name = newName
	fs.files[newName] = f
	return nil
}

// List implements FS.
func (fs *MemFS) List(prefix string) ([]string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var names []string
	for n := range fs.files {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Exists implements FS.
func (fs *MemFS) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[name]
	return ok
}

// TotalBytes returns the sum of all file sizes (test/metrics helper).
func (fs *MemFS) TotalBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var total int64
	for _, f := range fs.files {
		f.mu.RLock()
		total += f.size
		f.mu.RUnlock()
	}
	return total
}

// Corrupt flips one byte at off in the named file. Test helper for
// integrity-attack scenarios: this is exactly what a malicious host can do.
func (fs *MemFS) Corrupt(name string, off int64) error {
	fs.mu.RLock()
	f, ok := fs.files[name]
	fs.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 || off >= f.size {
		return fmt.Errorf("vfs: corrupt offset %d out of range [0,%d)", off, f.size)
	}
	i, at := f.locate(off)
	f.chunks[i][at] ^= 0xFF
	return nil
}

// Clone returns a deep copy of the file system — the primitive a rollback
// attacker uses to snapshot an old (but authenticated) state. Each copied
// file is one slice.
func (fs *MemFS) Clone() *MemFS {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := NewMem()
	for n, f := range fs.files {
		cp := &memFile{name: n}
		f.mu.RLock()
		if f.size > 0 {
			cp.chunks, cp.size = [][]byte{f.flatten()}, f.size
		}
		f.mu.RUnlock()
		out.files[n] = cp
	}
	return out
}

// Restore replaces this FS's contents with those of snapshot (rollback
// attack primitive).
func (fs *MemFS) Restore(snapshot *MemFS) {
	snapCopy := snapshot.Clone()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files = snapCopy.files
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("vfs: write at negative offset %d", off)
	}
	f := h.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(p) == 0 {
		return 0, nil
	}
	if end := off + int64(len(p)); end > f.size {
		f.extend(nil, int(end-f.size))
	}
	i, at := f.locate(off)
	for n := 0; n < len(p); i, at = i+1, 0 {
		n += copy(f.chunks[i][at:], p[n:])
	}
	return len(p), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("vfs: read at negative offset %d", off)
	}
	f := h.f
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off >= f.size {
		return 0, io.EOF
	}
	n := 0
	for i, at := f.locate(off); n < len(p) && i < len(f.chunks); i, at = i+1, 0 {
		n += copy(p[n:], f.chunks[i][at:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Append(p []byte) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.f.extend(p, len(p))
	return len(p), nil
}

func (h *memHandle) Size() int64 {
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	return h.f.size
}

// Bytes returns the live backing slice: the mmap view. Callers must treat it
// as read-only, like a real shared mapping. A file written by one Append is
// one chunk and its view costs nothing; a file that grew by several (a log)
// is first copied into one chunk, which later views share.
func (h *memHandle) Bytes() []byte {
	f := h.f
	f.mu.RLock()
	if len(f.chunks) <= 1 {
		defer f.mu.RUnlock()
		if len(f.chunks) == 0 {
			return nil
		}
		return f.chunks[0]
	}
	f.mu.RUnlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.chunks) > 1 {
		f.chunks = [][]byte{f.flatten()}
	}
	return f.chunks[0]
}

func (h *memHandle) Truncate(size int64) error {
	f := h.f
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case size < 0:
		return fmt.Errorf("vfs: truncate to negative size %d", size)
	case size >= f.size:
		f.extend(nil, int(size-f.size))
	default:
		i, at := f.locate(size)
		clear(f.chunks[i+1:])
		f.chunks = f.chunks[:i+1]
		f.chunks[i] = f.chunks[i][:at]
		f.size = size
	}
	return nil
}

func (h *memHandle) Sync() error  { return nil }
func (h *memHandle) Close() error { return nil }

// ---------------------------------------------------------------------------
// OSFS

// OSFS stores files in a directory on the host file system.
type OSFS struct {
	dir string
}

var _ FS = (*OSFS)(nil)

// NewOS creates an OSFS rooted at dir, creating the directory if needed.
func NewOS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: mkdir %s: %w", dir, err)
	}
	return &OSFS{dir: dir}, nil
}

func (fs *OSFS) path(name string) string { return filepath.Join(fs.dir, name) }

// Sub implements the native subdirectory view: a real directory on disk,
// created if needed.
func (fs *OSFS) Sub(dir string) (FS, error) { return NewOS(filepath.Join(fs.dir, dir)) }

// Create implements FS. Names may carry a directory part ("shard-00/wal")
// — the prefix form a Sub view over a wrapper FS produces — in which case
// the directory is created on demand.
func (fs *OSFS) Create(name string) (File, error) {
	if dir := filepath.Dir(name); dir != "." {
		if err := os.MkdirAll(filepath.Join(fs.dir, dir), 0o755); err != nil {
			return nil, fmt.Errorf("vfs: create %s: %w", name, err)
		}
	}
	f, err := os.OpenFile(fs.path(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("vfs: create %s: %w", name, err)
	}
	return &osHandle{f: f}, nil
}

// Open implements FS.
func (fs *OSFS) Open(name string) (File, error) {
	f, err := os.OpenFile(fs.path(name), os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return nil, fmt.Errorf("vfs: open %s: %w", name, err)
	}
	return &osHandle{f: f}, nil
}

// Remove implements FS.
func (fs *OSFS) Remove(name string) error {
	if err := os.Remove(fs.path(name)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return fmt.Errorf("vfs: remove %s: %w", name, err)
	}
	return nil
}

// Rename implements FS.
func (fs *OSFS) Rename(oldName, newName string) error {
	if err := os.Rename(fs.path(oldName), fs.path(newName)); err != nil {
		return fmt.Errorf("vfs: rename %s -> %s: %w", oldName, newName, err)
	}
	return nil
}

// List implements FS. A prefix with a directory part ("shard-00/wal")
// lists inside that subdirectory, returning full prefixed names — so a Sub
// view over a wrapper FS (whose names keep their "shard-NN/" prefix all
// the way down) enumerates its files like any other.
func (fs *OSFS) List(prefix string) ([]string, error) {
	subdir, base := "", prefix
	if i := strings.LastIndexByte(prefix, '/'); i >= 0 {
		subdir, base = prefix[:i+1], prefix[i+1:]
	}
	entries, err := os.ReadDir(filepath.Join(fs.dir, subdir))
	if err != nil {
		if os.IsNotExist(err) && subdir != "" {
			return nil, nil // a sub-namespace nothing was written to yet
		}
		return nil, fmt.Errorf("vfs: list: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), base) {
			names = append(names, subdir+e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Exists implements FS.
func (fs *OSFS) Exists(name string) bool {
	_, err := os.Stat(fs.path(name))
	return err == nil
}

type osHandle struct {
	mu sync.Mutex
	f  *os.File
}

var _ File = (*osHandle)(nil)

func (h *osHandle) WriteAt(p []byte, off int64) (int, error) { return h.f.WriteAt(p, off) }
func (h *osHandle) ReadAt(p []byte, off int64) (int, error)  { return h.f.ReadAt(p, off) }

func (h *osHandle) Append(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	end, err := h.f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	return h.f.WriteAt(p, end)
}

func (h *osHandle) Size() int64 {
	st, err := h.f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// Bytes reads the whole file into memory; OSFS does not provide a true
// zero-copy mapping (the stdlib has no portable mmap), so the buffered read
// path should be preferred on OSFS.
func (h *osHandle) Bytes() []byte {
	sz := h.Size()
	buf := make([]byte, sz)
	if _, err := h.f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil
	}
	return buf
}

func (h *osHandle) Truncate(size int64) error { return h.f.Truncate(size) }

func (h *osHandle) Sync() error  { return h.f.Sync() }
func (h *osHandle) Close() error { return h.f.Close() }
