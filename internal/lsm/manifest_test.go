package lsm

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"elsm/internal/kvtest/hostfs"
	"elsm/internal/sstable"
	"elsm/internal/vfs"
)

// manifestStore writes a store of several runs over two levels and closes it:
// its files, and its MANIFEST.
func manifestStore(t testing.TB) (*vfs.MemFS, []byte) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.DisableCompaction = true
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			if _, err := putKV(s, fmt.Appendf(nil, "key%05d", i*(round+1)), fmt.Appendf(nil, "v%d", round)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			if err := s.Compact(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if runs := s.Runs(); len(runs) < 3 || runs[1].Level != 1 || runs[len(runs)-1].Level != 2 {
		t.Fatalf("set-up: runs %v, want several at level 1 and one at level 2", runs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := vfs.ReadFile(fs, manifestName)
	if err != nil {
		t.Fatal(err)
	}
	return fs, m
}

// FuzzManifest opens a store whose MANIFEST is the fuzz input, over the
// files of a real one. Open refuses it with ErrManifestParse,
// sstable.ErrBadTable (a listed file that is not a table) or vfs.ErrNotFound
// (a listed table that is not there), or opens a store whose runs are
// exactly those it lists; it never panics, and it allocates no more than
// opening every table once plus a bounded amount per input byte.
func FuzzManifest(f *testing.F) {
	base, m := manifestStore(f)
	f.Add(m)
	f.Add(hostfs.ParentManifest(m))
	f.Add([]byte(`{"lastTs":3,"levels":[null,[{"id":7,"files":[]}]]}`))
	f.Add([]byte(`{"levels":[null,[{"id":1,"files":[{"file":1},{"file":1}]}]]}`))
	var ms runtime.MemStats
	allocated := func() uint64 { runtime.ReadMemStats(&ms); return ms.TotalAlloc }
	open := func(data []byte) (*Store, uint64, error) {
		fs := base.Clone()
		if err := vfs.WriteFile(fs, manifestName, data); err != nil {
			return nil, 0, err
		}
		opts := smallOpts(fs)
		opts.DisableCompaction = true
		before := allocated()
		s, err := Open(opts)
		return s, allocated() - before, err
	}
	s, honest, err := open(m)
	if err != nil {
		f.Fatal(err)
	}
	s.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		s, n, err := open(data)
		if budget := 2*honest + 256*uint64(len(data)); n > budget {
			t.Errorf("Open allocated %d bytes for a %d-byte MANIFEST, over %d", n, len(data), budget)
		}
		if err != nil {
			if !errors.Is(err, ErrManifestParse) && !errors.Is(err, sstable.ErrBadTable) && !errors.Is(err, vfs.ErrNotFound) {
				t.Fatalf("Open: %v", err)
			}
			return
		}
		defer s.Close()
		var root manifestRoot
		if err := json.Unmarshal(data, &root); err != nil {
			t.Fatalf("Open accepted a MANIFEST that does not decode: %v", err)
		}
		var want []RunRef
		for lvl, runs := range root.Levels {
			for idx, r := range runs {
				want = append(want, RunRef{ID: r.ID, Level: lvl, Index: idx})
			}
		}
		if got := s.Runs(); !slices.Equal(got, want) {
			t.Fatalf("Runs() = %v, the MANIFEST lists %v", got, want)
		}
	})
}
