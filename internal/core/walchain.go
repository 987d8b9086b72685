package core

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"elsm/internal/hashutil"
	"elsm/internal/record"
	"elsm/internal/wal"
)

// walChain is the enclave's one authenticator of the write-ahead log: the
// key that tags every commit group and the lifetime count of appended
// records that places each group in the log's history. A group's tag is
// HMAC-SHA256(key, appends ‖ LinkWAL(0, group)), truncated to wal.TagSize
// bytes, where appends is the lifetime count just after the group: its
// records are hashed once (§5.3 step w1's link, started from zero at every
// group), and the tag binds them to their position. Guarded by Store.mu.
//
// The tags are not chained, and need not be: under one key a position never
// repeats. A failed append or fsync stops every write until the next Open,
// which draws a new key (Store.rekey) after flushing whatever it replayed,
// so no live group ever carries another key and no two groups ever share
// one position under a key. A dropped, reordered, moved or foreign group
// therefore fails its tag at the position recovery counts it at, and which
// log a group sits in does not matter: the enclave keeps only where the
// oldest live log starts (base), and a flush install moves it.
type walChain struct {
	// appends is the lifetime count of records appended, up to the newest
	// group (or, during recovery, of records replayed).
	appends uint64
	// base is the lifetime count at which the oldest live log starts: a
	// replay of the live logs counts its positions up from it.
	base uint64
	// pending is the count after the group between its append and its
	// fsync (inFlight is set while there is one). OnGroupSynced promotes it
	// into durable, the frontier fsyncs confirmed and the ONLY count a seal
	// may bind: a counter bound to unsynced records would turn a crash into
	// a false rollback.
	pending  uint64
	inFlight bool
	durable  uint64
	// atBump is durable at the last periodic counter bump.
	atBump uint64
	// seek is, during recovery only, the sealed state the replay is checked
	// against.
	seek walSeek
	// key is the store's WAL key, its pads compressed once: a tag is two
	// compressions on the stack.
	key *hashutil.MACKey
}

// walSeek is the sealed state recovery checks the replay against: where its
// oldest live log starts and its durable frontier. bad is the position
// after the first replayed group whose tag fails from that base, 0 if none.
type walSeek struct {
	base, frontier, bad uint64
}

// keyed makes the chain's WAL key the one a store derives from its sealing
// key and the seed sealed in its trusted state.
func (ch *walChain) keyed(sealKey [32]byte, seed []byte) {
	k := hashutil.NewMACKey(sealKey[:]).Sum(append([]byte("elsm wal key"), seed...))
	ch.key = hashutil.NewMACKey(k[:])
}

// tag is the tag of the group whose records link to link and after which
// the lifetime append count is appends.
func (ch *walChain) tag(appends uint64, link hashutil.Hash) (t wal.Tag) {
	var in [8 + hashutil.Size]byte
	binary.BigEndian.PutUint64(in[:8], appends)
	copy(in[8:], link[:])
	mac := ch.key.Sum(in[:])
	copy(t[:], mac[:])
	return t
}

// LinkWAL returns the WAL digest chain d extended over recs, one link per
// record.
func LinkWAL(d hashutil.Hash, recs []record.Record) hashutil.Hash {
	for i := range recs {
		r := &recs[i]
		d = hashutil.WALLink(d, byte(r.Kind), r.Key, r.Ts, r.Value)
	}
	return d
}

// appended counts one group the engine is about to append, holds its
// position until synced reports on it, and returns its tag.
func (ch *walChain) appended(recs []record.Record) wal.Tag {
	ch.appends += uint64(len(recs))
	ch.pending, ch.inFlight = ch.appends, true
	return ch.tag(ch.appends, LinkWAL(hashutil.Zero, recs))
}

// synced settles the group in flight: a durable one becomes the frontier; a
// failed fsync leaves the previous frontier, which stays valid — a log
// prefix once durable stays durable.
func (ch *walChain) synced(durable bool) {
	if durable && ch.inFlight {
		ch.durable = ch.pending
	}
	ch.inFlight = false
}

// bumpDue reports whether interval more records became durable since the
// last periodic counter bump, and if so starts the next interval (interval
// 0: never).
func (ch *walChain) bumpDue(interval int) bool {
	if interval <= 0 || ch.durable-ch.atBump < uint64(interval) {
		return false
	}
	ch.atBump = ch.durable
	return true
}

// replayed counts one group recovery read from the live logs, and checks
// its tag from the sealed base; the verdict is settled once the replay
// ends. An unkeyed chain, of a store never sealed, checks nothing.
func (ch *walChain) replayed(recs []record.Record, tag *wal.Tag) {
	ch.appends += uint64(len(recs))
	s := &ch.seek
	if ch.key == nil || s.bad != 0 {
		return
	}
	if want := ch.tag(s.base+ch.appends, LinkWAL(hashutil.Zero, recs)); subtle.ConstantTimeCompare(want[:], tag[:]) != 1 {
		s.bad = s.base + ch.appends
	}
}

// verdict judges the replay against the sealed state and returns how many
// records it found past the sealed frontier. A group at or before the
// frontier that fails its tag, or live logs that end short of it, lost or
// altered a sealed group: ErrRollback. A failed tag past it is a group the
// enclave never wrote there: ErrForged.
func (ch *walChain) verdict() (uint64, error) {
	s := ch.seek
	end := s.base + ch.appends
	switch {
	case s.bad != 0 && s.bad <= s.frontier:
		return 0, fmt.Errorf("%w: the WAL group ending at append %d, before the seal, fails its tag", ErrRollback, s.bad)
	case end < s.frontier:
		return 0, fmt.Errorf("%w: the live WAL ends at append %d, the seal at %d", ErrRollback, end, s.frontier)
	case s.bad != 0:
		return 0, fmt.Errorf("%w: the WAL group ending at append %d, past the seal, fails its tag", ErrForged, s.bad)
	}
	return end - s.frontier, nil
}

// recovered ends recovery: the live logs start at base, and everything
// replayed is on disk, so the last replayed group is the durable frontier
// and appends resume after it.
func (ch *walChain) recovered(base, appends uint64) {
	ch.base, ch.appends, ch.durable, ch.atBump = base, appends, appends, appends
	ch.inFlight = false
	ch.seek = walSeek{}
}
