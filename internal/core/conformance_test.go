package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"elsm/internal/core"
	"elsm/internal/kvtest"
	"elsm/internal/lsm"
	"elsm/internal/record"
)

// flushKV is what the three openers below really return.
type flushKV interface {
	core.KV
	Flush() error
	Engine() *lsm.Store
}

// kinds is this package's three implementations of core.KV: eLSM-P2, and the
// raw store opened as eLSM-P1 and as the unsecured baseline. It is the one
// opener table: the conformance suite opens each on kvtest.SmallConfig, and
// TestIteratorChunksAreBounded on a geometry of its own.
var kinds = []struct {
	name string
	open func(core.Config) (flushKV, error)
}{
	{"p2", func(c core.Config) (flushKV, error) { return core.Open(c) }},
	{"p1", func(c core.Config) (flushKV, error) { c.CacheSize = 1 << 20; return core.OpenP1(c) }},
	{"unsecured", func(c core.Config) (flushKV, error) { return core.OpenUnsecured(c) }},
}

func openers() []kvtest.Opener {
	var out []kvtest.Opener
	for _, k := range kinds {
		k := k
		out = append(out, kvtest.Opener{Name: k.name, Open: func(t testing.TB) core.KV {
			kv, err := k.open(kvtest.SmallConfig())
			if err != nil {
				t.Fatal(err)
			}
			return kv
		}})
	}
	return out
}

func TestConformance(t *testing.T) { kvtest.Run(t, openers()...) }

// TestKVSurface keeps the interface from quietly regrowing: seven
// primitives, two of them the Reader a Snapshot shares.
func TestKVSurface(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want int
	}{
		{reflect.TypeOf((*core.KV)(nil)).Elem(), 7},
		{reflect.TypeOf((*core.Reader)(nil)).Elem(), 2},
		{reflect.TypeOf((*core.Snapshot)(nil)).Elem(), 4},
	} {
		if got := c.typ.NumMethod(); got != c.want {
			t.Errorf("%v has %d methods, want %d", c.typ, got, c.want)
		}
	}
}

// TestIteratorChunksAreBounded is the deterministic form of the
// bounded-chunk contract (IterChunkKeys): whichever sources hold the data —
// only the memtable, only a run, or both — no chunk of any store carries
// more than the limit per source, the stream is complete and ordered, and a
// cancelled context stops it within the chunks already fetched. The
// memtable is far larger than the data, so no flush can happen behind the
// test's back and move the keys into a run.
func TestIteratorChunksAreBounded(t *testing.T) {
	const (
		n         = 200
		chunkKeys = kvtest.ChunkKeys
	)
	put := func(t *testing.T, s flushKV, from, step int) {
		t.Helper()
		for i := from; i < n; i += step {
			if _, err := core.Put(s, []byte(fmt.Sprintf("key%04d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := func(t *testing.T, s flushKV) {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	layouts := []struct {
		name string
		runs int
		load func(*testing.T, flushKV)
	}{
		{"memtable only", 0, func(t *testing.T, s flushKV) { put(t, s, 0, 1) }},
		{"run only", 1, func(t *testing.T, s flushKV) { put(t, s, 0, 1); flush(t, s) }},
		{"run and memtable", 1, func(t *testing.T, s flushKV) { put(t, s, 0, 2); flush(t, s); put(t, s, 1, 2) }},
	}
	for _, k := range kinds {
		for _, l := range layouts {
			k, l := k, l
			t.Run(k.name+"/"+l.name, func(t *testing.T) {
				cfg := kvtest.SmallConfig()
				cfg.MemtableSize = 1 << 20
				cfg.LevelBase = 1 << 30
				s, err := k.open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				l.load(t, s)
				// The layout is what its name says: the explicit Flush made its
				// one run, and nothing flushed or compacted beside it.
				if st := s.Engine().Stats(); len(s.Engine().Runs()) != l.runs || int(st.Flushes) != l.runs || st.Compactions != 0 {
					t.Fatalf("%d runs after %d flushes and %d compactions, want %d, %d and 0",
						len(s.Engine().Runs()), st.Flushes, st.Compactions, l.runs, l.runs)
				}

				it := s.IterAt(context.Background(), []byte("a"), []byte("z"), record.MaxTs)
				count, largest := 0, 0
				for it.Next() {
					if want := fmt.Sprintf("key%04d", count); string(it.Result().Key) != want {
						t.Fatalf("row %d is %q, want %q", count, it.Result().Key, want)
					}
					if l := core.ChunkLen(it); l > largest {
						largest = l
					}
					count++
				}
				if err := it.Close(); err != nil {
					t.Fatal(err)
				}
				if count != n {
					t.Fatalf("streamed %d of %d keys", count, n)
				}
				// At most chunkKeys keys from each of (at most) two sources.
				if largest > 2*chunkKeys {
					t.Fatalf("a chunk carried %d keys with IterChunkKeys = %d", largest, chunkKeys)
				}

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				it = s.IterAt(ctx, []byte("a"), []byte("z"), record.MaxTs)
				count = 0
				for it.Next() {
					count++
					cancel()
				}
				// The chunk in hand and the one prefetched beside it.
				if count > 4*chunkKeys {
					t.Fatalf("cancelled after the first row, the stream still delivered %d", count)
				}
				if err := it.Close(); !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled iterator Close = %v, want context.Canceled", err)
				}
			})
		}
	}
}
