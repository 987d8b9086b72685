package vfs

import (
	"sync"
	"time"
)

// SlowSyncFS wraps an FS and charges a fixed latency to every File.Sync —
// an in-memory stand-in for a storage device whose fsync dominates the
// write path (the regime group commit exists for). Safe for concurrent use.
type SlowSyncFS struct {
	inner FS
	delay time.Duration

	// slot models a device of queue depth 1, a single spindle: every sync
	// serializes, as on one WAL file on one disk.
	slot sync.Mutex
}

var _ FS = (*SlowSyncFS)(nil)

// NewSlowSync wraps inner, making every Sync take delay. The simulated
// device has queue depth 1: concurrent syncs serialize.
func NewSlowSync(inner FS, delay time.Duration) *SlowSyncFS {
	return &SlowSyncFS{inner: inner, delay: delay}
}

// Hold takes the device's one slot, so every Sync blocks until release is
// called — a commit parked in its fsync for as long as a test needs, with
// no timer. release is idempotent.
func (f *SlowSyncFS) Hold() (release func()) {
	f.slot.Lock()
	var once sync.Once
	return func() { once.Do(f.slot.Unlock) }
}

// Create implements FS.
func (f *SlowSyncFS) Create(name string) (File, error) {
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &slowFile{fs: f, inner: inner}, nil
}

// Open implements FS.
func (f *SlowSyncFS) Open(name string) (File, error) {
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &slowFile{fs: f, inner: inner}, nil
}

// Remove implements FS.
func (f *SlowSyncFS) Remove(name string) error { return f.inner.Remove(name) }

// Rename implements FS.
func (f *SlowSyncFS) Rename(oldName, newName string) error {
	return f.inner.Rename(oldName, newName)
}

// List implements FS.
func (f *SlowSyncFS) List(prefix string) ([]string, error) { return f.inner.List(prefix) }

// Exists implements FS.
func (f *SlowSyncFS) Exists(name string) bool { return f.inner.Exists(name) }

type slowFile struct {
	fs    *SlowSyncFS
	inner File
}

var _ File = (*slowFile)(nil)

func (sf *slowFile) WriteAt(p []byte, off int64) (int, error) { return sf.inner.WriteAt(p, off) }
func (sf *slowFile) ReadAt(p []byte, off int64) (int, error)  { return sf.inner.ReadAt(p, off) }
func (sf *slowFile) Append(p []byte) (int, error)             { return sf.inner.Append(p) }
func (sf *slowFile) Size() int64                              { return sf.inner.Size() }
func (sf *slowFile) Bytes() []byte                            { return sf.inner.Bytes() }
func (sf *slowFile) Truncate(size int64) error                { return sf.inner.Truncate(size) }
func (sf *slowFile) Close() error                             { return sf.inner.Close() }

func (sf *slowFile) Sync() error {
	sf.fs.slot.Lock()
	if sf.fs.delay > 0 {
		time.Sleep(sf.fs.delay)
	}
	sf.fs.slot.Unlock()
	return sf.inner.Sync()
}
