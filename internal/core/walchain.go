package core

import (
	"elsm/internal/hashutil"
	"elsm/internal/record"
)

// walChain is the enclave's digest chain over the live write-ahead logs
// (§5.3 step w1: dig' = H(dig ‖ record)). The commit hooks and recovery's
// single replay extend it, and LinkWAL — which the checkpoint checks and
// replication frames use too — is the only product code that hashes a WAL
// record. Guarded by Store.mu.
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
}

// walMark is the chain at one group boundary, in both bases: digest spans
// the live logs (frozen + active), fresh the active log alone.
type walMark struct {
	digest  hashutil.Hash
	fresh   hashutil.Hash
	appends uint64
}

// chainSeek is one sealed digest recovery looks for on the replayed chain:
// found once the chain met it, at appends records into the replay.
type chainSeek struct {
	want  hashutil.Hash
	found bool
	at    uint64
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

// appended extends the chain over one group the engine appended, or
// replayed at recovery, and holds its mark until synced reports on it.
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

// seekSealed arms recovery's search for the sealed digests before the
// engine replays the log. The zero digest is the empty prefix, met before
// the first record.
func (ch *walChain) seekSealed(digests ...hashutil.Hash) {
	ch.seek = ch.seek[:0]
	for _, d := range digests {
		ch.seek = append(ch.seek, chainSeek{want: d, found: d.IsZero()})
	}
}

// recovered ends recovery: everything replayed is on disk, so the last
// replayed group is the durable frontier, and the append count restarts
// from appends — the sealed count plus the records replayed past the seal.
func (ch *walChain) recovered(appends uint64) {
	ch.synced(true)
	ch.appends = appends
	ch.durable.appends = appends
	ch.atBump = appends
	ch.seek = nil
}
