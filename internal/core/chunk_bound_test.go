package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"elsm/internal/record"
)

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
		chunkKeys = 8
	)
	type store interface {
		KV
		Flush() error
	}
	open := map[string]func(Config) (store, error){
		"p2":        func(c Config) (store, error) { return Open(c) },
		"p1":        func(c Config) (store, error) { c.CacheSize = 1 << 20; return OpenP1(c) },
		"unsecured": func(c Config) (store, error) { return OpenUnsecured(c) },
	}
	put := func(t *testing.T, s store, from, step int) {
		t.Helper()
		for i := from; i < n; i += step {
			if _, err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	layouts := map[string]func(*testing.T, store){
		"memtable only": func(t *testing.T, s store) { put(t, s, 0, 1) },
		"run only": func(t *testing.T, s store) {
			put(t, s, 0, 1)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		},
		"run and memtable": func(t *testing.T, s store) {
			put(t, s, 0, 2)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			put(t, s, 1, 2)
		},
	}
	for mode, openStore := range open {
		for layout, load := range layouts {
			t.Run(mode+"/"+layout, func(t *testing.T) {
				cfg := smallCfg(nil)
				cfg.MemtableSize = 1 << 20
				cfg.LevelBase = 1 << 30
				cfg.IterChunkKeys = chunkKeys
				s, err := openStore(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				load(t, s)

				it := s.IterAtCtx(context.Background(), []byte("a"), []byte("z"), record.MaxTs).(*chunkIter)
				count, largest := 0, 0
				for it.Next() {
					if want := fmt.Sprintf("key%04d", count); string(it.Result().Key) != want {
						t.Fatalf("row %d is %q, want %q", count, it.Result().Key, want)
					}
					if len(it.buf) > largest {
						largest = len(it.buf)
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
				it = s.IterAtCtx(ctx, []byte("a"), []byte("z"), record.MaxTs).(*chunkIter)
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
