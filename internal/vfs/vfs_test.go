package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

func testFSes(t *testing.T) map[string]FS {
	t.Helper()
	osfs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FS{"mem": NewMem(), "os": osfs}
}

func TestCreateAppendRead(t *testing.T) {
	for name, fs := range testFSes(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("a.dat")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Append([]byte("hello ")); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Append([]byte("world")); err != nil {
				t.Fatal(err)
			}
			if f.Size() != 11 {
				t.Fatalf("size = %d", f.Size())
			}
			buf := make([]byte, 5)
			if _, err := f.ReadAt(buf, 6); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if string(buf) != "world" {
				t.Fatalf("read %q", buf)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOpenMissing(t *testing.T) {
	for name, fs := range testFSes(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := fs.Open("nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v", err)
			}
			if fs.Exists("nope") {
				t.Fatal("phantom file exists")
			}
		})
	}
}

func TestRenameAndList(t *testing.T) {
	for name, fs := range testFSes(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []string{"000001.sst", "000002.sst", "wal.log"} {
				f, err := fs.Create(n)
				if err != nil {
					t.Fatal(err)
				}
				f.Append([]byte(n))
				f.Close()
			}
			names, err := fs.List("00000")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 2 || names[0] != "000001.sst" || names[1] != "000002.sst" {
				t.Fatalf("list = %v", names)
			}
			if err := fs.Rename("wal.log", "wal.old"); err != nil {
				t.Fatal(err)
			}
			if fs.Exists("wal.log") || !fs.Exists("wal.old") {
				t.Fatal("rename did not move file")
			}
			if err := fs.Remove("wal.old"); err != nil {
				t.Fatal(err)
			}
			if fs.Exists("wal.old") {
				t.Fatal("remove failed")
			}
		})
	}
}

func TestWriteAt(t *testing.T) {
	for name, fs := range testFSes(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("w.dat")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte("abcdef"), 4); err != nil {
				t.Fatal(err)
			}
			if f.Size() != 10 {
				t.Fatalf("size = %d", f.Size())
			}
			buf := make([]byte, 6)
			f.ReadAt(buf, 4)
			if string(buf) != "abcdef" {
				t.Fatalf("read %q", buf)
			}
		})
	}
}

func TestMemBytesView(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("v.dat")
	f.Append([]byte("view me"))
	v := f.Bytes()
	if !bytes.Equal(v, []byte("view me")) {
		t.Fatalf("view = %q", v)
	}
}

func TestMemCorrupt(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("c.dat")
	f.Append([]byte{0x01, 0x02})
	if err := fs.Corrupt("c.dat", 1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	f.ReadAt(buf, 0)
	if buf[1] != 0x02^0xFF {
		t.Fatalf("byte not flipped: %x", buf)
	}
	if err := fs.Corrupt("c.dat", 99); err == nil {
		t.Fatal("out-of-range corrupt accepted")
	}
	if err := fs.Corrupt("missing", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCloneAndRestore(t *testing.T) {
	fs := NewMem()
	f, _ := fs.Create("s.dat")
	f.Append([]byte("v1"))
	snap := fs.Clone()
	f.Append([]byte("v2"))
	fs.Restore(snap)
	g, err := fs.Open("s.dat")
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 {
		t.Fatalf("restored size = %d", g.Size())
	}
}

func TestMemConcurrentAccess(t *testing.T) {
	fs := NewMem()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g))
			f, err := fs.Create(name)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 100; i++ {
				f.Append([]byte{byte(i)})
			}
			if f.Size() != 100 {
				t.Errorf("size = %d", f.Size())
			}
		}(g)
	}
	wg.Wait()
	if fs.TotalBytes() != 800 {
		t.Fatalf("total = %d", fs.TotalBytes())
	}
}

// TestSubIsolatesShardDirectories: two Sub views of one parent FS are
// fully isolated namespaces (the shard router's per-shard directories),
// on both the prefix view (MemFS) and the native view (OSFS).
func TestSubIsolatesShardDirectories(t *testing.T) {
	parents := map[string]FS{"mem": NewMem()}
	osfs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	parents["os"] = osfs
	// A wrapper over a disk-backed FS takes the prefix-fallback path: the
	// names carry their "shard-NN/" part down to OSFS, which must create
	// and list the subdirectory transparently.
	wrappedOS, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	parents["slowsync-over-os"] = NewSlowSync(wrappedOS, 0)
	parents["fault-over-mem"] = NewFault(NewMem())
	for name, parent := range parents {
		t.Run(name, func(t *testing.T) {
			a, err := Sub(parent, "shard-00")
			if err != nil {
				t.Fatal(err)
			}
			b, err := Sub(parent, "shard-01")
			if err != nil {
				t.Fatal(err)
			}
			f, err := a.Create("wal.log")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Append([]byte("shard0")); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if b.Exists("wal.log") {
				t.Fatal("sibling sub-FS sees the other shard's file")
			}
			if !a.Exists("wal.log") {
				t.Fatal("sub-FS lost its own file")
			}
			names, err := a.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 1 || names[0] != "wal.log" {
				t.Fatalf("sub-FS List = %v (names must be prefix-free)", names)
			}
			if err := a.Rename("wal.log", "wal.old"); err != nil {
				t.Fatal(err)
			}
			if b.Exists("wal.old") || !a.Exists("wal.old") {
				t.Fatal("rename leaked across sub-FS boundaries")
			}
			if err := a.Remove("wal.old"); err != nil {
				t.Fatal(err)
			}
			if a.Exists("wal.old") {
				t.Fatal("remove did not take effect in sub-FS")
			}
		})
	}
}

// TestWholeFileRoundTrip pins the two whole-file helpers: WriteFile replaces
// a file and leaves no temporary behind, and ReadFile hands out a copy that
// later writes do not reach.
func TestWholeFileRoundTrip(t *testing.T) {
	for name, fs := range testFSes(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadFile(fs, "state"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing file: %v", err)
			}
			for _, content := range []string{"first version", "v2", ""} {
				if err := WriteFile(fs, "state", []byte(content)); err != nil {
					t.Fatal(err)
				}
				got, err := ReadFile(fs, "state")
				if err != nil || string(got) != content {
					t.Fatalf("read %q, %v; want %q", got, err, content)
				}
				if fs.Exists("state.tmp") {
					t.Fatal("WriteFile left its temporary behind")
				}
			}
			got, _ := ReadFile(fs, "state")
			if err := WriteFile(fs, "state", []byte("later")); err != nil {
				t.Fatal(err)
			}
			if string(got) != "" {
				t.Fatalf("an earlier read changed to %q", got)
			}
		})
	}
}

// TestWriteFileCrashLeavesOldOrNew fails WriteFile at every one of its
// mutating operations, tearing the write that trips: what the file holds
// afterwards is always the old content or the new, never a mix.
func TestWriteFileCrashLeavesOldOrNew(t *testing.T) {
	for k := 0; ; k++ {
		ffs := NewFault(NewMem())
		if err := WriteFile(ffs, "state", []byte("old content")); err != nil {
			t.Fatal(err)
		}
		ffs.SetTornWrites(true)
		ffs.ArmFilter(OpMutating, "")
		ffs.Arm(k)
		err := WriteFile(ffs, "state", []byte("the new content"))
		ffs.Disarm()
		got, rerr := ReadFile(ffs, "state")
		if rerr != nil {
			t.Fatalf("crash at op %d: %v", k, rerr)
		}
		if string(got) != "old content" && string(got) != "the new content" {
			t.Fatalf("crash at op %d left %q", k, got)
		}
		if err == nil {
			if string(got) != "the new content" {
				t.Fatalf("completed write reads %q", got)
			}
			if k < 4 {
				t.Fatalf("WriteFile finished within %d mutating operations", k)
			}
			return
		}
	}
}

// TestMemChunkEdges holds a MemFS file, which grows in memChunk chunks after
// its first write, to a plain byte slice under appends, positional writes,
// truncations, corruptions and clones that start, end or straddle a chunk
// edge, and reads every edge back.
func TestMemChunkEdges(t *testing.T) {
	fs := NewMem()
	f, err := fs.Create("log")
	if err != nil {
		t.Fatal(err)
	}
	var model []byte
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	const first = 100 // the first chunk: the first write's length
	edge := func(i int) int64 { return int64(first + i*memChunk) }
	check := func(step string) {
		t.Helper()
		if f.Size() != int64(len(model)) {
			t.Fatalf("%s: size %d, want %d", step, f.Size(), len(model))
		}
		for i := -1; i <= len(model)/memChunk+1; i++ {
			for _, off := range []int64{edge(i) - 3, edge(i) - 1, edge(i), edge(i) + 1} {
				if off < 0 || off > int64(len(model)) {
					continue
				}
				got := make([]byte, 7)
				n, err := f.ReadAt(got, off)
				want := model[off:min(off+7, int64(len(model)))]
				if n != len(want) || !bytes.Equal(got[:n], want) || (n < 7) != (err == io.EOF) {
					t.Fatalf("%s: ReadAt(%d) = %d %q, %v; want %q", step, off, n, got[:n], err, want)
				}
			}
		}
		cp := fs.Clone()
		g, err := cp.Open("log")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), model) {
			t.Fatalf("%s: the clone differs", step)
		}
	}
	f.Append(fill(first, 'a'))
	model = append(model, fill(first, 'a')...)
	check("first write")
	for i, n := range []int{memChunk - 1, 1, 1, memChunk, 2*memChunk + 5} {
		f.Append(fill(n, byte('b'+i)))
		model = append(model, fill(n, byte('b'+i))...)
		check(fmt.Sprintf("append %d", n))
	}
	for _, w := range []struct{ off, n int64 }{
		{edge(0) - 2, 4}, {edge(1) - 1, memChunk + 2}, {edge(0), 1}, {int64(len(model)) - 1, 3}, {int64(len(model)) + 10, 5},
	} {
		p := fill(int(w.n), 'W')
		if end := w.off + w.n; end > int64(len(model)) {
			model = append(model, make([]byte, end-int64(len(model)))...)
		}
		copy(model[w.off:], p)
		if _, err := f.WriteAt(p, w.off); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("WriteAt(%d, %d bytes)", w.off, w.n))
	}
	for _, off := range []int64{edge(0) - 1, edge(0), edge(2)} {
		if err := fs.Corrupt("log", off); err != nil {
			t.Fatal(err)
		}
		model[off] ^= 0xFF
		check(fmt.Sprintf("Corrupt(%d)", off))
	}
	// Shrink onto an edge and into a chunk; grow again: the bytes past a
	// shrink read back as zeros, not as what they held.
	for _, size := range []int64{edge(2), edge(1) + 7, edge(1) + 7 + memChunk/2, edge(0) - 1, 0, 3 * memChunk} {
		if err := f.Truncate(size); err != nil {
			t.Fatal(err)
		}
		if size <= int64(len(model)) {
			model = model[:size:size]
		} else {
			model = append(model, make([]byte, size-int64(len(model)))...)
		}
		check(fmt.Sprintf("Truncate(%d)", size))
	}
	f.Append(fill(memChunk, 'z'))
	model = append(model, fill(memChunk, 'z')...)
	check("append after the truncations")
	if !bytes.Equal(f.Bytes(), model) {
		t.Fatal("Bytes differs from the file")
	}
}

// TestMemOneAppendIsOneSlice: a file written by one Append — an SSTable, a
// sealed blob — is one slice however long, so its view costs no copy and no
// allocation; a file grown by many appends costs one copy at its first view
// and none after.
func TestMemOneAppendIsOneSlice(t *testing.T) {
	fs := NewMem()
	for _, n := range []int{1, memChunk, 5*memChunk + 3} {
		f, err := fs.Create("table")
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{7}, n)
		f.Append(data)
		view := f.Bytes()
		if allocs := testing.AllocsPerRun(10, func() { view = f.Bytes() }); allocs != 0 {
			t.Fatalf("%d bytes in one Append: a view allocates %.0f times", n, allocs)
		}
		if !bytes.Equal(view, data) || &view[0] != &f.Bytes()[0] {
			t.Fatalf("%d bytes in one Append: the view is not the file's one slice", n)
		}
	}
	f, err := fs.Create("log")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 3*memChunk/1000; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, 1000)
		f.Append(rec)
		want = append(want, rec...)
	}
	if view := f.Bytes(); !bytes.Equal(view, want) || &view[0] != &f.Bytes()[0] {
		t.Fatal("a grown file's view is not kept as its one slice")
	}
	if allocs := testing.AllocsPerRun(10, func() { f.Bytes() }); allocs != 0 {
		t.Fatalf("a grown file's second view allocates %.0f times", allocs)
	}
}
