package lsm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elsm/internal/kvtest/model"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/sstable"
)

// digestListener is a miniature of the authentication layer: every job
// digests the records the engine streams through Filter — each input run's
// in full, the output's as kept — and Verify requires each input run's
// digest to be the one the job that wrote the run recorded. A run whose
// files hold other bytes than the ones its job digested fails the next job
// that reads it. A digest is taken over the run's record digests in key
// order, so it does not depend on how a job cut the stream into parts.
type digestListener struct {
	NopListener
	mu     sync.Mutex
	runs   map[uint64][sha256.Size]byte // installed runs
	parted atomic.Int32                 // jobs cut into more than one part
}

type digestJob struct {
	NopJob
	l     *digestListener
	info  CompactionInfo
	parts []digestPart
}

// digestPart is one key-range part's share of a job, written only by that
// part's goroutine: the digest of every record, per input run and kept.
type digestPart struct {
	in  map[uint64][][sha256.Size]byte
	out [][sha256.Size]byte
}

func (l *digestListener) BeginJob(info CompactionInfo) Job {
	j := &digestJob{l: l, info: info, parts: make([]digestPart, len(info.Bounds)+1)}
	if len(info.Bounds) > 0 {
		l.parted.Add(1)
	}
	for p := range j.parts {
		j.parts[p].in = map[uint64][][sha256.Size]byte{}
		for _, id := range info.InputRuns {
			j.parts[p].in[id] = nil
		}
	}
	return j
}

func digestRecord(rec record.Record) [sha256.Size]byte {
	h := sha256.New()
	var hdr [26]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(rec.Key)))
	binary.BigEndian.PutUint64(hdr[8:], uint64(len(rec.Value)))
	binary.BigEndian.PutUint64(hdr[16:], rec.Ts)
	hdr[24] = byte(rec.Kind)
	h.Write(hdr[:])
	h.Write(rec.Key)
	h.Write(rec.Value)
	return [sha256.Size]byte(h.Sum(nil))
}

func (j *digestJob) Filter(part int, src uint64, rec record.Record, dropped bool) {
	p := &j.parts[part]
	if src != MemtableRunID {
		if _, ok := p.in[src]; !ok {
			panic(fmt.Sprintf("record from undeclared input run %d", src))
		}
		p.in[src] = append(p.in[src], digestRecord(rec))
	}
	if !dropped {
		p.out = append(p.out, digestRecord(rec))
	}
}

// streamDigest digests the record digests list gives of each part, in part
// order.
func (j *digestJob) streamDigest(list func(p *digestPart) [][sha256.Size]byte) [sha256.Size]byte {
	h := sha256.New()
	for p := range j.parts {
		for _, d := range list(&j.parts[p]) {
			h.Write(d[:])
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// Verify and Committed leave a relabel's run as it is: its records, and so
// its digest, do not change.
func (j *digestJob) Verify(int) error {
	if j.info.Relabel {
		return nil
	}
	j.l.mu.Lock()
	defer j.l.mu.Unlock()
	for _, id := range j.info.InputRuns {
		if j.streamDigest(func(p *digestPart) [][sha256.Size]byte { return p.in[id] }) != j.l.runs[id] {
			return fmt.Errorf("input run %d: its files differ from the records its job digested", id)
		}
	}
	return nil
}

func (j *digestJob) Committed() {
	if j.info.Relabel {
		return
	}
	j.l.mu.Lock()
	defer j.l.mu.Unlock()
	for _, id := range j.info.InputRuns {
		delete(j.l.runs, id)
	}
	j.l.runs[j.info.OutputRun] = j.streamDigest(func(p *digestPart) [][sha256.Size]byte { return p.out })
}

// TestPooledJobScratchIsInvisible runs flushes and compactions of
// alternating sizes — bursts of hundreds of records, then a handful, with a
// value larger than an arena slab among them — on a four-worker pool, so
// jobs take arena slabs, record chunks and table builders that other jobs
// just gave back, while explicit compactions race the flush-driven ones;
// jobs over multi-table runs merge in up to four key-range parts at once.
// Every job's input check (digestListener) must pass, and the store must
// read back exactly what a map of the same writes holds. A slab handed back
// while a flusher still reads it is a race under -race, and wrong bytes in
// a file otherwise.
func TestPooledJobScratchIsInvisible(t *testing.T) {
	l := &digestListener{runs: map[uint64][sha256.Size]byte{}}
	opts := bgOpts(nil)
	opts.MaxLevels = 6
	opts.Workers = NewWorkerPool(4)
	opts.Listener = l
	s := mustOpen(t, opts)
	defer s.Close()

	// A thief takes whatever slabs the pool holds, scribbles over them and
	// puts them back: a slab handed back too early is overwritten while a
	// flusher may still read it.
	stop := make(chan struct{})
	var thief sync.WaitGroup
	defer thief.Wait()
	defer close(stop)
	thief.Add(1)
	go func() {
		defer thief.Done()
		junk := bytes.Repeat([]byte{0xee}, arenaSlabSize)
		var held [8]*[arenaSlabSize]byte
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range held {
				held[i] = slabPool.Get().(*[arenaSlabSize]byte)
				copy(held[i][:], junk)
			}
			for _, slab := range held {
				slabPool.Put(slab)
			}
			runtime.Gosched()
		}
	}()

	rnd := rand.New(rand.NewSource(38))
	var m model.Model
	var compacting sync.WaitGroup
	for round := 0; round < 16; round++ {
		n := 700
		if round%2 == 1 {
			n = 12
		}
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key%05d", rnd.Intn(4000))
			value := fmt.Sprintf("r%d-i%d-%s", round, i, bytes.Repeat([]byte{'v'}, rnd.Intn(200)))
			if round == 5 && i == 3 {
				value = string(bytes.Repeat([]byte{'L'}, arenaSlabSize+1))
			}
			ts, err := putKV(s, []byte(key), []byte(value))
			if err != nil {
				t.Fatal(err)
			}
			m.Put(record.Record{Key: []byte(key), Ts: ts, Kind: record.KindSet, Value: []byte(value)})
		}
		if round%4 == 3 {
			compacting.Add(1)
			go func(lvl int) {
				defer compacting.Done()
				if err := s.Compact(lvl); err != nil {
					t.Errorf("compact L%d: %v", lvl, err)
				}
			}(1 + round%3)
		}
	}
	compacting.Wait()
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Flushes < 10 || st.Compactions < 2 || l.parted.Load() < 2 {
		t.Fatalf("%d flushes and %d compactions, %d of the jobs in parts; the test wants many of each", st.Flushes, st.Compactions, l.parted.Load())
	}

	want := m.Scan([]byte("key"), []byte("kez"), record.MaxTs)
	for _, w := range want {
		rec, ok, err := s.Get(w.Key, record.MaxTs)
		if err != nil || !ok || !bytes.Equal(rec.Value, w.Value) {
			t.Fatalf("Get %s: ok=%v err=%v, value differs from the model's: %v", w.Key, ok, err, !bytes.Equal(rec.Value, w.Value))
		}
	}
	recs, err := scanAll(s, []byte("key"), []byte("kez"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("scan returned %d records, the model holds %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Key, want[i].Key) || !bytes.Equal(rec.Value, want[i].Value) {
			t.Fatalf("scan record %d (%s) differs from the model", i, rec.Key)
		}
	}
}

// freeingListener hands every job proof appenders whose finalizers count
// them once nothing references them.
type freeingListener struct {
	NopListener
	made, freed atomic.Int32
}

type freeingJob struct {
	NopJob
	l *freeingListener
}

// nullProofs puts every record in one group, whose section is that of a
// one-leaf tree, and gives it an empty chain part.
type nullProofs struct{ l *freeingListener }

var oneLeafSection = merkle.New(make([]merkle.Hash, 1)).AppendSection(nil, 0, 0)

func (l *freeingListener) BeginJob(CompactionInfo) Job { return freeingJob{l: l} }

func (j freeingJob) NewProofAppender() (sstable.ProofAppender, error) {
	p := &nullProofs{l: j.l}
	j.l.made.Add(1)
	runtime.SetFinalizer(p, func(p *nullProofs) { p.l.freed.Add(1) })
	return p, nil
}

func (*nullProofs) Group(record.Record) (int, error) { return 0, nil }
func (*nullProofs) AppendSection(dst []byte) []byte  { return append(dst, oneLeafSection...) }
func (*nullProofs) AppendChain(dst []byte) []byte    { return append(dst, 0) }

// TestPooledBuildersForgetTheJob: once a flush has installed, the table
// builders it gave back to the pool hold none of its proof appenders. One
// collection moves a pool's contents to its victim cache, which keeps them
// reachable, so an appender a pooled builder still referenced would survive
// it; every appender must be collected.
func TestPooledBuildersForgetTheJob(t *testing.T) {
	l := &freeingListener{}
	opts := bgOpts(nil)
	opts.MemtableSize = 64 << 10
	opts.Listener = l
	s := mustOpen(t, opts)
	defer s.Close()
	for i := 0; i < 400; i++ {
		if _, err := putKV(s, []byte(fmt.Sprintf("key%05d", i)), bytes.Repeat([]byte{'v'}, 60)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	for deadline := time.Now().Add(5 * time.Second); l.freed.Load() < l.made.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if made, freed := l.made.Load(), l.freed.Load(); made < 3 || freed != made {
		t.Fatalf("%d of the flush's %d proof appenders collected; want all of at least 3", freed, made)
	}
}
