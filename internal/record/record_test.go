package record

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		aKey string
		aTs  uint64
		bKey string
		bTs  uint64
		want int
	}{
		{"a", 1, "b", 1, -1},
		{"b", 1, "a", 1, 1},
		{"a", 1, "a", 1, 0},
		{"a", 2, "a", 1, -1}, // newer sorts first within a key
		{"a", 1, "a", 2, 1},
		{"", 1, "a", 1, -1},
		{"a", MaxTs, "a", 0, -1},
	}
	for _, c := range cases {
		if got := Compare([]byte(c.aKey), c.aTs, []byte(c.bKey), c.bTs); got != c.want {
			t.Fatalf("Compare(%q@%d, %q@%d) = %d, want %d", c.aKey, c.aTs, c.bKey, c.bTs, got, c.want)
		}
	}
}

func TestQuickCompareIsStrictWeakOrder(t *testing.T) {
	f := func(k1, k2, k3 []byte, t1, t2, t3 uint64) bool {
		// Antisymmetry.
		if Compare(k1, t1, k2, t2) != -Compare(k2, t2, k1, t1) {
			return false
		}
		// Transitivity on a sorted triple.
		recs := []Record{{Key: k1, Ts: t1}, {Key: k2, Ts: t2}, {Key: k3, Ts: t3}}
		sort.Slice(recs, func(i, j int) bool { return CompareRecords(recs[i], recs[j]) < 0 })
		return CompareRecords(recs[0], recs[1]) <= 0 && CompareRecords(recs[1], recs[2]) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestDigestDistinguishesKinds(t *testing.T) {
	set := Record{Key: []byte("k"), Ts: 1, Kind: KindSet, Value: []byte("v")}
	del := Record{Key: []byte("k"), Ts: 1, Kind: KindDelete, Value: []byte("v")}
	if set.Digest() == del.Digest() {
		t.Fatal("tombstone digest equals set digest")
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := Record{
		Key:   []byte("key"),
		Ts:    7,
		Kind:  KindSet,
		Value: []byte("value"),
		Proof: []byte("proof"),
	}
	c := orig.Clone()
	c.Key[0] = 'X'
	c.Value[0] = 'X'
	c.Proof[0] = 'X'
	if orig.Key[0] != 'k' || orig.Value[0] != 'v' || orig.Proof[0] != 'p' {
		t.Fatal("clone aliases original buffers")
	}
	if orig.Digest() != orig.Clone().Digest() {
		t.Fatal("clone digest differs from original")
	}
}

// TestCloneOneAllocation: a clone's key, value and proof share a single
// allocation, yet appending to one must not run into the next, and empty
// fields stay nil as they did when each field was copied on its own.
func TestCloneOneAllocation(t *testing.T) {
	orig := Record{Key: []byte("key"), Ts: 7, Kind: KindSet, Value: []byte("value"), Proof: []byte("proof")}
	if n := testing.AllocsPerRun(100, func() { sink = orig.Clone() }); n != 1 {
		t.Fatalf("Clone allocates %v times, want 1", n)
	}
	c := orig.Clone()
	c.Key = append(c.Key, "-grown"...)
	c.Value = append(c.Value, "-grown"...)
	if !bytes.Equal(c.Value[:5], orig.Value) || !bytes.Equal(c.Proof, orig.Proof) {
		t.Fatalf("append to one field of a clone overwrote another: %q %q", c.Value, c.Proof)
	}
	tomb := Record{Key: []byte("k"), Ts: 1, Kind: KindDelete}.Clone()
	if tomb.Value != nil || tomb.Proof != nil || (Record{}).Clone().Key != nil {
		t.Fatalf("empty fields of a clone are not nil: %+v", tomb)
	}
}

var sink Record

func TestKindString(t *testing.T) {
	if KindSet.String() != "set" || KindDelete.String() != "delete" {
		t.Fatal("kind strings")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

func TestSizeAccountsAllFields(t *testing.T) {
	r := Record{Key: make([]byte, 10), Value: make([]byte, 20), Proof: make([]byte, 30)}
	if r.Size() < 60 {
		t.Fatalf("size = %d", r.Size())
	}
}
