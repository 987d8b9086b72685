package lsm

import (
	"bytes"

	"elsm/internal/blockcache"
	"elsm/internal/record"
	"elsm/internal/sstable"
)

// RunViews is the untrusted host's answer to a per-run point lookup (§5.3,
// algorithm QUERYGET for one level), as views of the run's blocks: either
// the newest matching record with Ts ≤ tsq (Rec), or the two records
// bracketing the queried key (Pred, Succ) so the enclave can verify
// non-membership. Either of those may be the zero View at the run's edges.
// When Pred carries the queried key itself, it is the oldest version newer
// than tsq (the historical non-membership witness: no version ≤ tsq exists
// in this run). The views alias untrusted memory, valid while the Pins the
// lookup was given hold: the enclave copies them before it reads them.
type RunViews struct {
	RunID           uint64
	Found           bool
	Rec, Pred, Succ sstable.View
	// EmptyRun marks a run with no tables at all.
	EmptyRun bool
}

// RunLookup is RunViews copied out, each witness a record that owns its
// bytes with its proof rebuilt (nil where RunViews has the zero View).
type RunLookup struct {
	RunID    uint64
	Found    bool
	Rec      record.Record
	Pred     *record.Record
	Succ     *record.Record
	EmptyRun bool
}

// lookupRun searches one immutable run with one walk of one block (two at a
// table's or block's boundary, for a key the run does not hold), the
// blocks pinned into pins. Safe without the engine lock as long as the run
// is reachable (version membership or a pin) — its tables and files never
// change. There is no Bloom probe: a key the run does not hold needs its
// bracketing pair anyway, for the proof of its absence.
func lookupRun(r *run, key []byte, tsq uint64, pins *blockcache.Pins) (RunViews, error) {
	out := RunViews{RunID: r.id}
	if len(r.tables) == 0 {
		out.EmptyRun = true
		return out, nil
	}
	ti := seekTable(r.tables, key, tsq)
	if ti >= len(r.tables) {
		var err error
		out.Pred, err = r.tables[len(r.tables)-1].table.LastView(pins)
		return out, err
	}
	prev, cur, err := r.tables[ti].table.Seek(key, tsq, pins)
	if err != nil {
		return out, err
	}
	if cur.Rec.Kind != 0 && bytes.Equal(cur.Rec.Key, key) {
		out.Found, out.Rec = true, cur
		return out, nil
	}
	if prev.Rec.Kind == 0 && ti > 0 {
		if prev, err = r.tables[ti-1].table.LastView(pins); err != nil {
			return out, err
		}
	}
	out.Pred, out.Succ = prev, cur
	return out, nil
}

// clone copies the views out (RunLookup).
func (v RunViews) clone() RunLookup {
	out := RunLookup{RunID: v.RunID, Found: v.Found, EmptyRun: v.EmptyRun, Pred: v.Pred.Clone(), Succ: v.Succ.Clone()}
	if rec := v.Rec.Clone(); rec != nil {
		out.Rec = *rec
	}
	return out
}

// RunScan is the untrusted host's answer to a per-run range query (§5.4):
// every version of every key in [start, end], plus the bracketing records
// outside the range whose embedded proofs let the enclave verify
// completeness.
type RunScan struct {
	RunID    uint64
	Records  []record.Record
	Pred     *record.Record
	Succ     *record.Record
	EmptyRun bool
	// Truncated reports that a ScanRunChunk key limit cut the result short
	// of the range end; Succ is then the first record after the last
	// returned key (still a valid right-boundary witness for the shrunken
	// range) rather than a record beyond end.
	Truncated bool
}

// scanRunChunk collects a one-level SCAN over an immutable run from a
// RunIter into records the caller owns, proofs rebuilt, bounded to maxKeys
// distinct keys. Verified scans do not call it — they merge the runs' cursors
// and copy only what they verify (core's readView.scanChunk); it serves
// benchmark/'s ledger.
func scanRunChunk(r *run, start, end []byte, maxKeys int) (RunScan, error) {
	out := RunScan{RunID: r.id}
	if len(r.tables) == 0 {
		out.EmptyRun = true
		return out, nil
	}
	it := newRunIter(r)
	it.SeekGE(start, record.MaxTs)
	if prev, proof, ok, err := it.SeekPrev(); err != nil {
		return out, err
	} else if ok {
		pred := sstable.Clone(prev, proof)
		out.Pred = &pred
	}
	// Collect in-range records and the successor, stopping at the key
	// limit (only ever at a key boundary).
	var (
		keys    int
		lastKey []byte
	)
	for ; it.Valid(); it.Next() {
		view := it.Record()
		newKey := lastKey == nil || !bytes.Equal(view.Key, lastKey)
		if past := bytes.Compare(view.Key, end) > 0; past || (newKey && maxKeys > 0 && keys >= maxKeys) {
			succ := sstable.Clone(view, it.Proof())
			out.Succ = &succ
			out.Truncated = !past
			break
		}
		if newKey {
			keys++
			lastKey = append(lastKey[:0], view.Key...)
		}
		out.Records = append(out.Records, sstable.Clone(view, it.Proof()))
	}
	return out, it.Close()
}

// WarmCache streams every data block of every run through the block source
// once, populating the read buffer to steady state. The paper's experiments
// scan the loaded dataset before measuring "so that it is loaded in the
// untrusted memory" (§6.1); this is the equivalent for the block cache.
func (s *Store) WarmCache() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for lvl := 1; lvl < len(s.levels); lvl++ {
		for _, r := range s.levels[lvl] {
			for _, th := range r.tables {
				it := th.table.Iter()
				it.SeekGE(nil, record.MaxTs)
				for it.Valid() {
					it.Next()
				}
				if err := it.Close(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
