// Package model is the sequential specification the store's tests hold a
// key-value store to: every version of every key, kept in the order the
// store sorts records in (key ascending, then newest first). The memtable,
// the engine and the verified store are all checked against it, so it
// depends on nothing but record.
package model

import (
	"bytes"
	"sort"

	"elsm/internal/record"
)

// Model holds every version written, tombstones included. The zero value is
// empty and ready to use.
type Model struct {
	recs []record.Record
}

func (m *Model) search(key []byte, ts uint64) int {
	return sort.Search(len(m.recs), func(i int) bool { return record.Compare(m.recs[i].Key, m.recs[i].Ts, key, ts) >= 0 })
}

// Put adds one version (a private copy of rec); a version at the same key
// and timestamp replaces it.
func (m *Model) Put(rec record.Record) {
	rec = rec.Clone()
	rec.Proof = nil
	i := m.search(rec.Key, rec.Ts)
	if i < len(m.recs) && record.Compare(m.recs[i].Key, m.recs[i].Ts, rec.Key, rec.Ts) == 0 {
		m.recs[i] = rec
		return
	}
	m.recs = append(m.recs, record.Record{})
	copy(m.recs[i+1:], m.recs[i:])
	m.recs[i] = rec
}

// Apply adds a batch the store committed at ts, the timestamp of its last
// record: record i of n takes ts-n+1+i, as a commit numbers its group.
func (m *Model) Apply(ts uint64, batch []record.Record) {
	for i, rec := range batch {
		rec.Ts = ts - uint64(len(batch)-1-i)
		m.Put(rec)
	}
}

// Get returns the newest version of key at or below tsq, a tombstone
// included, and whether there is one.
func (m *Model) Get(key []byte, tsq uint64) (record.Record, bool) {
	i := m.search(key, tsq)
	if i == len(m.recs) || !bytes.Equal(m.recs[i].Key, key) {
		return record.Record{}, false
	}
	return m.recs[i], true
}

// Scan returns what a verified scan of [start, end] at tsq must: per key in
// order, its newest version at or below tsq, unless that is a tombstone.
func (m *Model) Scan(start, end []byte, tsq uint64) []record.Record {
	var out []record.Record
	for i := m.search(start, record.MaxTs); i < len(m.recs) && bytes.Compare(m.recs[i].Key, end) <= 0; {
		key := m.recs[i].Key
		if rec, ok := m.Get(key, tsq); ok && rec.Kind == record.KindSet {
			out = append(out, rec)
		}
		for i < len(m.recs) && bytes.Equal(m.recs[i].Key, key) {
			i++
		}
	}
	return out
}

// SeekGE returns every version from (key, ts) on, in store order.
func (m *Model) SeekGE(key []byte, ts uint64) []record.Record { return m.recs[m.search(key, ts):] }

// Len is the number of versions held.
func (m *Model) Len() int { return len(m.recs) }

// Truncate forgets every version above ts: the store recovered the writes
// up to ts and lost the rest.
func (m *Model) Truncate(ts uint64) {
	kept := m.recs[:0]
	for _, rec := range m.recs {
		if rec.Ts <= ts {
			kept = append(kept, rec)
		}
	}
	m.recs = kept
}
