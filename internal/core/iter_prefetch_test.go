package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// stubChunks builds a chunkSource serving the given chunks in order, with
// instrumentation: started receives the chunk index as each fetch begins,
// and inflight tracks concurrent fetches (the lookahead bound).
func stubChunks(chunks [][]Result, errAt int, started chan int, maxInflight *atomic.Int32) chunkSource {
	return &stubSource{chunks: chunks, errAt: errAt, started: started, maxInflight: maxInflight}
}

type stubSource struct {
	chunks      [][]Result
	errAt       int
	started     chan int
	maxInflight *atomic.Int32
	idx         atomic.Int32
	inflight    atomic.Int32
}

func (s *stubSource) fetchChunk([]byte, []byte, uint64) ([]Result, []byte, bool, error) {
	i := int(s.idx.Add(1)) - 1
	if cur := s.inflight.Add(1); cur > s.maxInflight.Load() {
		s.maxInflight.Store(cur)
	}
	defer s.inflight.Add(-1)
	if s.started != nil {
		s.started <- i
	}
	if i == s.errAt {
		return nil, nil, false, fmt.Errorf("%w: chunk %d forged", ErrAuthFailed, i)
	}
	if i >= len(s.chunks) {
		return nil, nil, true, nil
	}
	return s.chunks[i], []byte{byte(i + 1)}, i == len(s.chunks)-1, nil
}

func (s *stubSource) release() {}

func mkChunks(n, per int) [][]Result {
	out := make([][]Result, n)
	v := 0
	for i := range out {
		for j := 0; j < per; j++ {
			out[i] = append(out[i], Result{
				Key:   []byte(fmt.Sprintf("k%04d", v)),
				Value: []byte(fmt.Sprintf("v%d", v)),
				Found: true,
			})
			v++
		}
	}
	return out
}

// TestChunkIterPrefetchesOneChunkAhead verifies both halves of the
// prefetch contract: chunk N+1 is fetched in the background while the
// consumer drains chunk N (overlap), and lookahead never exceeds one chunk
// (bound).
func TestChunkIterPrefetchesOneChunkAhead(t *testing.T) {
	chunks := mkChunks(4, 3)
	started := make(chan int, 16)
	var maxInflight atomic.Int32
	it := newChunkIter(nil, stubChunks(chunks, -1, started, &maxInflight), nil, nil, 0)

	// First Next fetches chunk 0 synchronously and must kick off the
	// prefetch of chunk 1 without any further consumer demand.
	if !it.Next() {
		t.Fatal("Next = false on first chunk")
	}
	waitIdx := func(want int) {
		t.Helper()
		select {
		case got := <-started:
			if got != want {
				t.Fatalf("fetch order: got chunk %d, want %d", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("fetch of chunk %d never started", want)
		}
	}
	waitIdx(0)
	waitIdx(1) // the prefetch — before the consumer asked for chunk 1

	n := 1
	for it.Next() {
		n++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("streamed %d results, want 12", n)
	}
	if got := maxInflight.Load(); got > 1 {
		t.Fatalf("lookahead bound broken: %d fetches in flight", got)
	}
}

// TestChunkIterResultsUnchangedByPrefetch compares the prefetching
// iterator's output against the chunk contents directly.
func TestChunkIterResultsUnchangedByPrefetch(t *testing.T) {
	chunks := mkChunks(5, 4)
	var maxInflight atomic.Int32
	it := newChunkIter(nil, stubChunks(chunks, -1, nil, &maxInflight), nil, nil, 0)
	var got []Result
	for it.Next() {
		got = append(got, it.Result())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	var want []Result
	for _, c := range chunks {
		want = append(want, c...)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i].Key) != string(want[i].Key) || string(got[i].Value) != string(want[i].Value) {
			t.Fatalf("result %d = %q/%q, want %q/%q", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// TestChunkIterCloseDrainsPrefetchedError closes the iterator while the
// prefetched chunk holds a verification failure the consumer never
// reached: Close must still surface it.
func TestChunkIterCloseDrainsPrefetchedError(t *testing.T) {
	chunks := mkChunks(3, 2)
	started := make(chan int, 16)
	var maxInflight atomic.Int32
	it := newChunkIter(nil, stubChunks(chunks, 1, started, &maxInflight), nil, nil, 0)
	if !it.Next() {
		t.Fatal("Next = false on first chunk")
	}
	// Wait for the poisoned prefetch of chunk 1 to be in flight, then
	// abandon the stream without consuming it.
	<-started // chunk 0
	<-started // chunk 1 (errAt)
	if err := it.Close(); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("Close = %v, want the prefetched chunk's ErrAuthFailed", err)
	}
}

// TestChunkIterPrefetchErrorStopsStream consumes into the poisoned chunk:
// Next must return false and Err/Close must report it.
func TestChunkIterPrefetchErrorStopsStream(t *testing.T) {
	chunks := mkChunks(4, 2)
	var maxInflight atomic.Int32
	it := newChunkIter(nil, stubChunks(chunks, 2, nil, &maxInflight), nil, nil, 0)
	n := 0
	for it.Next() {
		n++
	}
	if n != 4 { // chunks 0 and 1 delivered, chunk 2 poisoned
		t.Fatalf("streamed %d results before the poisoned chunk, want 4", n)
	}
	if err := it.Err(); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("Err = %v, want ErrAuthFailed", err)
	}
	if err := it.Close(); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("Close = %v, want ErrAuthFailed", err)
	}
}
