// Package hostfs is the untrusted host as a test adversary: a vfs.FS over a
// vfs.MemFS that keeps the versions the store wrote of each file (the last
// 16, and every file's at each Mark) and, as a byte stream chooses, tells
// one lie per Open, ReadAt or List. A lie told at Open changes the file at
// rest; one told at ReadAt or List changes only what that call returns.
package hostfs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path"
	"slices"
	"strings"
	"sync"

	"elsm/internal/record"
	"elsm/internal/vfs"
	"elsm/internal/wal"
)

// Kind names one lie.
type Kind uint8

const (
	Honest Kind = iota
	// Flip flips bit Arg (negative: counted from the end); in a log, the
	// CRC of the frame holding the bit is fixed up, as a host can.
	Flip
	// Truncate cuts the file (a read) to Arg bytes, modulo its length.
	Truncate
	// Older serves the Arg-th most recent version the store wrote that
	// differs from the file's bytes now.
	Older
	// Swap gives the file the bytes of the Arg-th other file of its kind
	// (tables, logs, ...) in name order; that file keeps its own bytes, so
	// no reader of it sees them change.
	Swap
	// Replay appends to a log the Arg-th of the groups of every log version
	// kept.
	Replay
	// Hide says the file is not there (List leaves it out). Told at rest,
	// the file stays as it is under the handles open on it, as a host's
	// open file stays; a Heal shows it again.
	Hide
	// Reread flips a bit of a read of a range read before.
	Reread
	numKinds
)

// Lie is one lie and its argument.
type Lie struct {
	Kind Kind
	Arg  int64
}

// version is what a name held after a Create, Sync or Rename (nil after a
// Remove), stamped with a sequence number.
type version struct {
	seq  int
	data []byte
}

// FS is the hostile host. It is safe for concurrent use.
type FS struct {
	mem *vfs.MemFS

	mu     sync.Mutex
	stream []byte
	seq    int
	hist   map[string][]version      // the last 16 a name
	marks  map[int]map[string][]byte // every name's bytes at each Mark
	read   map[string]bool           // "name@off+len" of every ReadAt answered
	told   []string
	hidden map[string]bool // names hidden at rest
	lying  bool            // a lie told at rest is in effect
}

var _ vfs.FS = (*FS)(nil)

// New returns an honest host over an empty MemFS.
func New() *FS {
	return &FS{mem: vfs.NewMem(), hist: map[string][]version{}, marks: map[int]map[string][]byte{}, read: map[string]bool{}, hidden: map[string]bool{}}
}

// Arm makes every later Open, ReadAt and List draw a lie from stream until
// it runs out: a byte picks the kind (8 of 16 pick none), and a lie takes
// the next two bytes as its argument.
func (h *FS) Arm(stream []byte) {
	h.mu.Lock()
	h.stream = stream
	h.mu.Unlock()
}

// Pause stops the lies and returns the rest of the stream, for Arm.
func (h *FS) Pause() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	rest := h.stream
	h.stream = nil
	return rest
}

// Told lists the lies told, in order.
func (h *FS) Told() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.told)
}

// Lying reports whether a lie told at rest is in effect: told since the
// last Heal, or a Rollback to an older state.
func (h *FS) Lying() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lying
}

// Mark names the files' state now, for Rollback.
func (h *FS) Mark() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	files := make(map[string][]byte, len(h.hist))
	for name, vs := range h.hist {
		files[name] = vs[len(vs)-1].data // nil: removed
	}
	h.marks[h.seq] = files
	return h.seq
}

func (h *FS) draw() Lie {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.stream) == 0 {
		return Lie{}
	}
	k := Kind(h.stream[0] % 16)
	h.stream = h.stream[1:]
	if k >= numKinds {
		return Lie{}
	}
	var arg int64
	if len(h.stream) >= 2 {
		arg, h.stream = int64(binary.BigEndian.Uint16(h.stream)), h.stream[2:]
	}
	return Lie{k, arg}
}

func (h *FS) note(format string, args ...any) {
	h.mu.Lock()
	h.told = append(h.told, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// noteAtRest notes a lie told at rest, in effect until a Heal.
func (h *FS) noteAtRest(format string, args ...any) {
	h.note(format, args...)
	h.mu.Lock()
	h.lying = true
	h.mu.Unlock()
}

// keep records data as a version of name the store wrote.
func (h *FS) keep(name string, data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	vs := append(h.hist[name], version{h.seq, data})
	h.hist[name] = vs[max(0, len(vs)-16):]
}

// shown stops hiding name: the store wrote it anew.
func (h *FS) shown(name string) {
	h.mu.Lock()
	delete(h.hidden, name)
	h.mu.Unlock()
}

// isHidden reports whether name is hidden at rest.
func (h *FS) isHidden(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hidden[name]
}

func notFound(name string) error { return fmt.Errorf("%w: %s", vfs.ErrNotFound, name) }

// Create implements vfs.FS.
func (h *FS) Create(name string) (vfs.File, error) {
	f, err := h.mem.Create(name)
	if err != nil {
		return nil, err
	}
	h.shown(name)
	h.keep(name, []byte{})
	return &file{File: f, h: h, name: name}, nil
}

// Open implements vfs.FS: the lie drawn is told at rest first.
func (h *FS) Open(name string) (vfs.File, error) {
	if h.isHidden(name) {
		return nil, notFound(name)
	}
	switch lie := h.draw(); lie.Kind {
	case Honest:
	case Hide:
		h.note("open %s: hide", name)
		return nil, notFound(name)
	default:
		if err := h.Tell(name, lie); err != nil {
			return nil, err
		}
	}
	f, err := h.mem.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{File: f, h: h, name: name}, nil
}

// Remove implements vfs.FS.
func (h *FS) Remove(name string) error {
	if err := h.mem.Remove(name); err != nil {
		return err
	}
	h.shown(name)
	h.keep(name, nil)
	return nil
}

// Rename implements vfs.FS.
func (h *FS) Rename(oldName, newName string) error {
	if h.isHidden(oldName) {
		return notFound(oldName)
	}
	if err := h.mem.Rename(oldName, newName); err != nil {
		return err
	}
	h.shown(newName)
	data, err := vfs.ReadFile(h.mem, newName)
	if err != nil {
		return err
	}
	h.keep(oldName, nil)
	h.keep(newName, data)
	return nil
}

// List implements vfs.FS: a Hide lie leaves one name out.
func (h *FS) List(prefix string) ([]string, error) {
	names, err := h.mem.List(prefix)
	names = slices.DeleteFunc(names, h.isHidden)
	if lie := h.draw(); err == nil && lie.Kind == Hide && len(names) > 0 {
		i := int(lie.Arg % int64(len(names)))
		h.note("list %q: hide %s", prefix, names[i])
		names = slices.Delete(names, i, i+1)
	}
	return names, err
}

// Exists implements vfs.FS.
func (h *FS) Exists(name string) bool { return h.mem.Exists(name) && !h.isHidden(name) }

// Tell tells lie about name at rest, now. A lie that does not apply to the
// file (a Replay into a table, an Older with no older version) changes
// nothing.
func (h *FS) Tell(name string, lie Lie) error {
	if lie.Kind == Hide {
		if !h.Exists(name) {
			return notFound(name)
		}
		h.noteAtRest("%s: hide", name)
		h.mu.Lock()
		h.hidden[name] = true
		h.mu.Unlock()
		return nil
	}
	cur, err := vfs.ReadFile(h.mem, name)
	if err != nil {
		return err
	}
	var out []byte
	switch lie.Kind {
	case Flip:
		out = flip(name, cur, lie.Arg)
	case Truncate:
		if len(cur) > 0 {
			out = cur[:lie.Arg%int64(len(cur))]
		}
	case Older:
		out = h.older(name, cur, max(lie.Arg, 1))
	case Swap:
		out = h.swap(name, lie.Arg)
	case Replay:
		out = h.replay(name, cur, lie.Arg)
	}
	if out == nil {
		return nil
	}
	h.noteAtRest("%s: %v", name, lie)
	return h.put(name, out)
}

// Rewrite replaces name's bytes at rest with what edit returns: a lie aimed
// at a structure the other lies do not know (a table's index, the filter it
// stores). A file that is not there is planted, edit given no bytes.
func (h *FS) Rewrite(name string, edit func([]byte) []byte) error {
	cur, err := vfs.ReadFile(h.mem, name)
	if err != nil && !errors.Is(err, vfs.ErrNotFound) {
		return err
	}
	h.noteAtRest("%s: rewrite", name)
	return h.put(name, edit(cur))
}

// put replaces name's bytes in place: handles open on it see the new ones.
func (h *FS) put(name string, data []byte) error {
	f, err := h.mem.Open(name)
	if err != nil {
		f, err = h.mem.Create(name)
	}
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(0); err != nil {
		return err
	}
	_, err = f.Append(data)
	return err
}

// Rollback puts every file back as the store had written it at mark, a
// value Mark returned: a file written since takes its bytes then, one
// created since goes, and lies told at rest are undone. Unless the store
// wrote nothing since, the rollback is itself a lie told at rest.
func (h *FS) Rollback(mark int) error {
	h.mu.Lock()
	want, ok := h.marks[mark]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("hostfs: no mark %d", mark)
	}
	var names []string
	for name := range h.hist {
		names = append(names, name)
	}
	h.lying, h.hidden = mark < h.seq, map[string]bool{}
	if h.lying {
		h.told = append(h.told, fmt.Sprintf("rollback to %d", mark))
	}
	h.mu.Unlock()
	for _, name := range names {
		var err error
		switch data := want[name]; {
		case data != nil:
			err = h.put(name, data)
		case h.mem.Exists(name):
			err = h.mem.Remove(name)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Heal undoes every lie told at rest: each file holds what the store last
// wrote to it.
func (h *FS) Heal() error { return h.Rollback(h.Mark()) }

func (h *FS) older(name string, cur []byte, n int64) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	vs := h.hist[name]
	for i := len(vs) - 1; i >= 0; i-- {
		if v := vs[i].data; v != nil && !bytes.Equal(v, cur) {
			if n--; n == 0 {
				return v
			}
			cur = v
		}
	}
	return nil
}

// kind classes a file name: tables, logs, or the name itself.
func kind(name string) string {
	switch base := path.Base(name); {
	case strings.HasSuffix(base, ".sst"):
		return "sst"
	case strings.HasPrefix(base, "wal") && strings.HasSuffix(base, ".log"):
		return "wal"
	default:
		return base
	}
}

func (h *FS) swap(name string, arg int64) []byte {
	all, _ := h.mem.List("")
	peers := slices.DeleteFunc(all, func(n string) bool { return n == name || kind(n) != kind(name) })
	if len(peers) == 0 {
		return nil
	}
	theirs, _ := vfs.ReadFile(h.mem, peers[arg%int64(len(peers))])
	return theirs
}

func (h *FS) replay(name string, cur []byte, arg int64) []byte {
	if kind(name) != "wal" {
		return nil
	}
	var groups [][]byte
	h.mu.Lock()
	for n, vs := range h.hist {
		for _, v := range vs {
			if kind(n) == "wal" {
				// A version that ends torn still yields the groups before the tear.
				_, _ = wal.Replay(v.data, func(group []record.Record, tag *wal.Tag) error {
					groups = append(groups, wal.AppendGroup(nil, group, tag))
					return nil
				})
			}
		}
	}
	h.mu.Unlock()
	if len(groups) == 0 {
		return nil
	}
	slices.SortFunc(groups, bytes.Compare) // not the map's order
	return append(slices.Clone(cur), groups[arg%int64(len(groups))]...)
}

func flip(name string, data []byte, bit int64) []byte {
	n := int64(len(data)) * 8
	if n == 0 {
		return nil
	}
	bit = (bit%n + n) % n
	out, off := slices.Clone(data), int(bit/8)
	out[off] ^= 1 << (bit % 8)
	for at := 0; kind(name) == "wal" && at+8 <= len(out); { // a frame is crc(4) ‖ len(4) ‖ body
		end := at + 8 + int(binary.BigEndian.Uint32(out[at+4:]))
		if end > len(out) || end < at+8 {
			break
		}
		if off >= at+8 && off < end {
			binary.BigEndian.PutUint32(out[at:], crc32.ChecksumIEEE(out[at+8:end]))
		}
		at = end
	}
	return out
}

// ParentManifest rewrites a MANIFEST in the shape of the format before the
// one that lists only runs and their files: it adds the next file number and
// run ID, each run's bytes, and each table's bounds, counts and size, every
// one of them a lie. A store must open on it as on m. It returns nil if m is
// not a MANIFEST.
func ParentManifest(m []byte) []byte {
	var root map[string]any
	if json.Unmarshal(m, &root) != nil {
		return nil
	}
	root["nextFile"], root["nextRun"] = 1, 1
	levels, _ := root["levels"].([]any)
	for _, lv := range levels {
		runs, _ := lv.([]any)
		for _, r := range runs {
			r, _ := r.(map[string]any)
			if r == nil {
				continue
			}
			r["bytes"] = 1
			files, _ := r["files"].([]any)
			for _, f := range files {
				if f, ok := f.(map[string]any); ok {
					f["smallest"], f["smallestTs"], f["largest"], f["largestTs"] = []byte("zzz"), 0, []byte("a"), 0
					f["entries"], f["blocks"], f["size"] = 1, 1, 1
				}
			}
		}
	}
	out, _ := json.Marshal(root)
	return out
}

// file is a handle whose syncs keep a version and whose reads may lie.
type file struct {
	vfs.File
	h    *FS
	name string
}

func (f *file) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	data := make([]byte, f.File.Size())
	if _, err := f.File.ReadAt(data, 0); err != nil && err != io.EOF {
		return err
	}
	f.h.keep(f.name, data)
	return nil
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	lie, at := f.h.draw(), fmt.Sprintf("%s@%d+%d", f.name, off, len(p))
	f.h.mu.Lock()
	again := f.h.read[at]
	f.h.read[at] = true
	f.h.mu.Unlock()
	switch {
	case n == 0 || lie.Kind == Reread && !again:
		return n, err
	case lie.Kind == Flip || lie.Kind == Reread:
		p[lie.Arg%int64(n)] ^= 1 << (lie.Arg % 8)
	case lie.Kind == Truncate:
		n, err = int(lie.Arg%int64(n)), io.ErrUnexpectedEOF
	default:
		return n, err
	}
	f.h.note("read %s: %v", at, lie)
	return n, err
}
