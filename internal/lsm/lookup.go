package lsm

import (
	"bytes"

	"elsm/internal/record"
)

// RunLookup is the untrusted host's answer to a per-run point lookup
// (§5.3, algorithm QUERYGET for one level): either the newest matching
// record with Ts ≤ tsq, or the two records bracketing the queried key so
// the enclave can verify non-membership.
type RunLookup struct {
	RunID uint64
	// Found reports a matching record (Rec) with Ts ≤ tsq.
	Found bool
	Rec   record.Record
	// Pred and Succ bracket the (absent) key when Found is false. Either
	// may be nil at the run's edges. When Pred carries the queried key
	// itself, it is the oldest version newer than tsq (the historical
	// non-membership witness: no version ≤ tsq exists in this run).
	Pred *record.Record
	Succ *record.Record
	// EmptyRun marks a run with no tables at all.
	EmptyRun bool
}

// lookupRun searches one immutable run. Safe without the engine lock as
// long as the run is reachable (version membership or a pin) — its tables
// and files never change.
func lookupRun(r *run, key []byte, tsq uint64) (RunLookup, error) {
	out := RunLookup{RunID: r.id}
	if len(r.tables) == 0 {
		out.EmptyRun = true
		return out, nil
	}
	ti := seekTable(r.tables, key, tsq)
	if ti >= len(r.tables) {
		last, err := r.tables[len(r.tables)-1].table.Last()
		if err != nil {
			return out, err
		}
		out.Pred = &last
		return out, nil
	}
	prev, cur, err := r.tables[ti].table.SeekWithPrev(key, tsq)
	if err != nil {
		return out, err
	}
	if cur != nil && bytes.Equal(cur.Key, key) {
		out.Found = true
		out.Rec = *cur
		return out, nil
	}
	out.Succ = cur
	if prev == nil && ti > 0 {
		last, err := r.tables[ti-1].table.Last()
		if err != nil {
			return out, err
		}
		prev = &last
	}
	out.Pred = prev
	return out, nil
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
// RunIter into records the caller owns, proofs included, bounded to maxKeys
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
	if prev, ok, err := it.SeekPrev(); err != nil {
		return out, err
	} else if ok {
		pred := prev.Clone()
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
			succ := view.Clone()
			out.Succ = &succ
			out.Truncated = !past
			break
		}
		if newKey {
			keys++
			lastKey = append(lastKey[:0], view.Key...)
		}
		out.Records = append(out.Records, view.Clone())
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
