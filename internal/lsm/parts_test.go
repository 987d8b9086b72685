package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"elsm/internal/memtable"
	"elsm/internal/record"
	"elsm/internal/sgx"
)

// TestSplitBounds pins how a job's key-range parts are chosen: at the last
// keys of the tables of the input with the most tables, no more parts than
// worker tokens or tables; else at quantiles of the frozen memtable or the
// bulk load, minPartRecords or more a part; bounds strictly ascending, and a
// small job one part.
func TestSplitBounds(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	runOf := func(lastKeys ...int) *run {
		r := &run{}
		for _, k := range lastKeys {
			r.tables = append(r.tables, &tableHandle{largest: key(k)})
		}
		return r
	}
	frozenOf := func(n int) *memtable.Table {
		m := memtable.New(sgx.New(sgx.Params{}))
		for i := 0; i < n; i++ {
			m.Put(record.Record{Key: key(i), Ts: uint64(i + 1), Kind: record.KindSet})
		}
		m.Freeze()
		return m
	}
	bulkOf := func(n int) []record.Record {
		recs := make([]record.Record, n)
		for i := range recs {
			recs[i] = record.Record{Key: key(i / 2), Ts: uint64(n - i), Kind: record.KindSet}
		}
		return recs
	}
	cases := []struct {
		name     string
		plan     jobPlan
		maxParts int
		want     []int // the bounds' key indices
	}{
		{"one token is one part", jobPlan{inputs: []*run{runOf(9, 19, 29, 39)}}, 1, nil},
		{"the input with the most tables", jobPlan{inputs: []*run{runOf(4, 9), runOf(9, 19, 29, 39)}}, 2, []int{19}},
		{"four parts of eight tables", jobPlan{inputs: []*run{runOf(0, 1, 2, 3, 4, 5, 6, 7)}}, 4, []int{1, 3, 5}},
		{"no more parts than tables", jobPlan{inputs: []*run{runOf(9, 19, 29)}}, 8, []int{9, 19}},
		{"a key over two tables splits once", jobPlan{inputs: []*run{runOf(9, 10, 10, 39)}}, 4, []int{9, 10}},
		{"one table and no trusted records", jobPlan{inputs: []*run{runOf(9)}}, 4, nil},
		{"memtable quantiles under a one-table run", jobPlan{inputs: []*run{runOf(9)}, frozen: frozenOf(4 * minPartRecords)}, 4, []int{minPartRecords, 2 * minPartRecords, 3 * minPartRecords}},
		{"a small memtable is one part", jobPlan{frozen: frozenOf(2*minPartRecords - 1)}, 4, nil},
		{"tables over the memtable", jobPlan{inputs: []*run{runOf(9, 19)}, frozen: frozenOf(4 * minPartRecords)}, 4, []int{9}},
		{"bulk load at record indices", jobPlan{bulk: bulkOf(2 * minPartRecords)}, 2, []int{minPartRecords / 2}},
		{"a small bulk load is one part", jobPlan{bulk: bulkOf(minPartRecords)}, 4, nil},
	}
	for _, tc := range cases {
		got := tc.plan.split(tc.maxParts)
		if len(got) != len(tc.want) {
			t.Errorf("%s: bounds %q, want keys %v", tc.name, got, tc.want)
			continue
		}
		for i, k := range tc.want {
			if !bytes.Equal(got[i], key(k)) {
				t.Errorf("%s: bound %d is %q, want %q", tc.name, i, got[i], key(k))
			}
		}
	}
}
