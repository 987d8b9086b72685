package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"elsm/internal/ycsb"
)

// keyspace holds the pre-built keys of a dataset, so that no key is
// formatted inside a timed loop.
type keyspace struct {
	n      int
	keys   [][]byte // ycsb.Key(i)
	absent [][]byte // ycsb.Key(i)+"~": in range, never written
}

func newKeyspace(n int) *keyspace {
	ks := &keyspace{n: n, keys: make([][]byte, n), absent: make([][]byte, n)}
	for i := range ks.keys {
		ks.keys[i] = ycsb.Key(uint64(i))
		ks.absent[i] = append(ycsb.Key(uint64(i)), '~')
	}
	return ks
}

// fillValue writes the 100-byte value of (key index, version) into dst: the
// two numbers, then filler derived from both, so every read is checkable
// against the key it asked for and the writes it has seen acknowledged.
func fillValue(dst []byte, idx, version uint32) {
	binary.BigEndian.PutUint32(dst[0:4], idx)
	binary.BigEndian.PutUint32(dst[4:8], version)
	x := idx*2654435761 + version*40503 + 1
	for j := 8; j < len(dst); j++ {
		x = x*1664525 + 1013904223
		dst[j] = 'a' + byte(x>>24)%26
	}
}

// valueHeader decodes what fillValue encoded; ok is false for a value of
// the wrong size.
func valueHeader(v []byte) (idx, version uint32, ok bool) {
	if len(v) != valueSize {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(v[0:4]), binary.BigEndian.Uint32(v[4:8]), true
}

// checkValue verifies a whole value, filler included.
func checkValue(v []byte, idx, version uint32) error {
	gi, gv, ok := valueHeader(v)
	if !ok {
		return fmt.Errorf("value of %d bytes, want %d", len(v), valueSize)
	}
	if gi != idx || gv != version {
		return fmt.Errorf("value names key %d version %d, want key %d version %d", gi, gv, idx, version)
	}
	var want [valueSize]byte
	fillValue(want[:], idx, version)
	if string(v) != string(want[:]) {
		return fmt.Errorf("value filler of key %d version %d is corrupt", idx, version)
	}
	return nil
}

// op is one pre-generated client operation on key index idx (the first key
// of the range for a scan).
type op struct {
	idx  uint32
	kind opKind
}

// owned maps a drawn key index onto one the caller owns (idx ≡ caller mod
// callers), so that a key has one writer and read-your-writes is checkable.
func owned(idx, caller, callers, n int) int {
	o := idx - idx%callers + caller
	if o >= n {
		o -= callers
	}
	return o
}

// genStream builds caller c's operations for one pass. Only the seed and
// the caller number feed the generators, so a seed names one stream.
func genStream(w workloadSpec, n, count int, seed int64, caller int) []op {
	mix := seed*1000003 + int64(caller)*7919 + 17
	coin := rand.New(rand.NewSource(mix))
	chooser := ycsb.NewKeyChooser(w.Dist, uint64(n), mix+1)
	ops := make([]op, count)
	for i := range ops {
		idx := int(chooser.Next())
		roll := coin.Intn(100)
		switch {
		case roll < w.GetPct:
			ops[i] = op{uint32(idx), opGet}
			if w.AbsentPct > 0 && coin.Intn(100) < w.AbsentPct {
				ops[i].kind = opGetAbsent
			}
		case roll < w.GetPct+w.ScanPct:
			if idx > n-scanLen {
				idx = n - scanLen
			}
			ops[i] = op{uint32(idx), opScan}
		default:
			ops[i] = op{uint32(owned(idx, caller, w.Clients, n)), opPut}
		}
	}
	return ops
}

// streamHash fingerprints a stream for the result header: same seed, same
// hash, on any machine.
func streamHash(ops []op) string {
	h := fnv.New64a()
	var b [5]byte
	for _, o := range ops {
		binary.BigEndian.PutUint32(b[:4], o.idx)
		b[4] = byte(o.kind)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// loadOrder is the scattered key order of the paced load: a fixed stride
// permutation, the same for every seed, so the loaded tree is too.
func loadOrder(n int) []int {
	stride := 7919
	for gcd(stride, n) != 1 {
		stride++
	}
	out := make([]int, n)
	for i := range out {
		out[i] = (i * stride) % n
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
