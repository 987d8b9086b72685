package core

import (
	"crypto/subtle"
	"encoding/binary"

	"elsm/internal/hashutil"
	"elsm/internal/record"
	"elsm/internal/wal"
)

// walChain is the enclave's digest chain over the live write-ahead logs
// (§5.3 step w1: dig' = H(dig ‖ record)) and the key that tags each group
// the engine appends. The commit hooks and recovery's single replay extend
// it, and LinkWAL — which the checkpoint checks use too — is the only
// product code that hashes a WAL record. Guarded by Store.mu.
//
// A group's tag is HMAC-SHA256(key, appends ‖ fresh), truncated to
// wal.TagSize bytes, over the lifetime append count after the group and the
// chain over the group's own log up to and including it. The key is the store's (walKey): bound to the sealing
// key and to a random seed sealed with the trusted state, so another store,
// another incarnation of this one, or the host cannot tag a group.
type walChain struct {
	// tip chains every record of the live logs: the frozen logs awaiting a
	// flush install, then the active log. fresh chains the active log alone,
	// the basis tip rebases onto when a flush install deletes the frozen
	// logs. Outside the freeze→install window the two are equal, and a group
	// is hashed once for both.
	tip, fresh hashutil.Hash
	appends    uint64
	// pending is the mark of the group between its append and its fsync
	// (inFlight is set while there is one). OnGroupSynced promotes it into
	// durable, the frontier fsyncs confirmed and the ONLY state a seal may
	// bind: a counter bound to unsynced records would turn a crash into a
	// false rollback.
	pending  walMark
	inFlight bool
	durable  walMark
	// atBump is durable.appends at the last periodic counter bump.
	atBump uint64
	// seek holds, during recovery only, the sealed digests the replayed
	// chain must meet at a group boundary.
	seek []chainSeek
	// key is the store's WAL key, its pads compressed once: a tag is two
	// compressions on the stack.
	key *hashutil.MACKey
}

// walMark is the chain at one group boundary, in both bases: digest spans
// the live logs (frozen + active), fresh the active log alone.
type walMark struct {
	digest  hashutil.Hash
	fresh   hashutil.Hash
	appends uint64
}

// chainSeek is one sealed digest recovery looks for on the replayed chain,
// with the lifetime append count sealed beside it: found once the chain met
// it, at records into the replay. forged marks a group past it whose tag
// does not verify.
type chainSeek struct {
	want    hashutil.Hash
	appends uint64
	found   bool
	at      uint64
	forged  bool
}

// walKey derives a store's WAL key from its sealing key and the seed sealed
// in its trusted state.
func walKey(sealKey [32]byte, seed []byte) []byte {
	k := hashutil.NewMACKey(sealKey[:]).Sum(append([]byte("elsm wal key"), seed...))
	return k[:]
}

// keyed makes key the chain's WAL key.
func (ch *walChain) keyed(key []byte) { ch.key = hashutil.NewMACKey(key) }

// tag is the tag of a group after which the lifetime append count is
// appends and the chain over its log is ch.fresh.
func (ch *walChain) tag(appends uint64) (t wal.Tag) {
	var in [8 + hashutil.Size]byte
	binary.BigEndian.PutUint64(in[:8], appends)
	copy(in[8:], ch.fresh[:])
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

// appended extends the chain over one group the engine is about to append,
// or replayed at recovery, and holds its mark until synced reports on it.
func (ch *walChain) appended(recs []record.Record) {
	if ch.tip == ch.fresh {
		ch.tip = LinkWAL(ch.tip, recs)
		ch.fresh = ch.tip
	} else {
		ch.tip = LinkWAL(ch.tip, recs)
		ch.fresh = LinkWAL(ch.fresh, recs)
	}
	ch.appends += uint64(len(recs))
	ch.pending = walMark{digest: ch.tip, fresh: ch.fresh, appends: ch.appends}
	ch.inFlight = true
	for i := range ch.seek {
		if s := &ch.seek[i]; !s.found && s.want == ch.tip {
			s.found, s.at = true, ch.appends
		}
	}
}

// synced settles the group in flight: a durable one becomes the frontier; a
// failed fsync leaves the previous frontier, which stays valid — a chain
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
	if interval <= 0 || ch.durable.appends-ch.atBump < uint64(interval) {
		return false
	}
	ch.atBump = ch.durable.appends
	return true
}

// frozen restarts the fresh chain: the active log was rotated to a frozen
// log, and records from now on land in a new active log. The engine freezes
// only between groups, so no group is in flight and the durable fresh
// frontier restarts at zero with the chain itself.
func (ch *walChain) frozen() {
	ch.fresh = hashutil.Zero
	ch.durable.fresh = hashutil.Zero
}

// rebase drops the frozen logs from the chain once a flush install deleted
// them: the tip, the durable frontier and the mark of a group still awaiting
// its fsync (appended to the active log after the freeze) all switch to
// their fresh-basis values.
func (ch *walChain) rebase() {
	ch.tip = ch.fresh
	ch.durable.digest = ch.durable.fresh
	if ch.inFlight {
		ch.pending.digest = ch.pending.fresh
	}
}

// replayed extends the chain over one group recovery read from the log and
// checks its tag against every sealed digest the chain already met: past a
// seal, a group must carry the tag this store wrote, at the lifetime count
// the seal maps the replay onto. Which seal recovery adopts is settled
// later, so a failed tag only marks the seals it is past, and recovery
// refuses the seal it adopts if it is marked.
func (ch *walChain) replayed(recs []record.Record, tag *wal.Tag) {
	ch.appended(recs)
	for i := range ch.seek {
		s := &ch.seek[i]
		if s.found && s.at < ch.appends && !s.forged {
			want := ch.tag(s.appends + ch.appends - s.at)
			s.forged = subtle.ConstantTimeCompare(want[:], tag[:]) != 1
		}
	}
}

// seekSealed arms recovery's search for the sealed digests, each with the
// lifetime append count sealed beside it, before the engine replays the
// log. The zero digest is the empty prefix, met before the first record.
func (ch *walChain) seekSealed(seeks ...chainSeek) {
	ch.seek = ch.seek[:0]
	for _, s := range seeks {
		s.found = s.want.IsZero()
		ch.seek = append(ch.seek, s)
	}
}

// recovered ends recovery: everything replayed is on disk, so the last
// replayed group is the durable frontier, and the append count restarts
// from appends — the sealed count plus the records replayed past the seal.
// fresh chains the active log appends resume on: the last replayed log, or
// none if the replay ended on a frozen log.
func (ch *walChain) recovered(appends uint64) {
	ch.appends = appends
	ch.durable = walMark{digest: ch.tip, fresh: ch.fresh, appends: appends}
	ch.inFlight = false
	ch.atBump = appends
	ch.seek = nil
}
