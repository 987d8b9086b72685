package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"elsm"
	"elsm/internal/core"
	"elsm/internal/hashutil"
	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/shard"
	"elsm/internal/vfs"
)

// ledger builds the per-layer metrics of the traced run from three
// outside-in sources: counter deltas over the pass, spans the benchmark
// records around calls it makes, and single-threaded probes into the
// modules' exported functions. Nothing inside the program is instrumented
// by the benchmark; that is a later issue.
type ledger struct {
	cfg *runConfig
	ks  *keyspace
	m   map[string]float64
	// sample is caller 0's stream: the keys the probes and the replay use.
	sample []op

	replay []span // spans of the hand-walked GET and SCAN protocols
	nextID uint64
	// opMean is the mean span of each operation type in the P2 passes, µs,
	// whatever the transport: the numerator of core.auth_overhead_*_x.
	opMean map[opKind]float64
}

func newLedger(cfg *runConfig, ks *keyspace, sample []op) *ledger {
	return &ledger{cfg: cfg, ks: ks, sample: sample, m: map[string]float64{}, nextID: 1 << 60, opMean: map[opKind]float64{}}
}

// ---------------------------------------------------------------------------
// Counters

// counters snapshots every monotonic count the store, its recorders, the
// server and the runtime expose; the ledger works on deltas over the pass.
func (t *trial) counters() map[string]float64 {
	c := map[string]float64{}
	st := t.store.Stats()
	for k, v := range map[string]uint64{
		"Flushes": st.Flushes, "Compactions": st.Compactions,
		"BytesFlushed": st.BytesFlushed, "BytesCompacted": st.BytesCompacted,
		"WALSyncs": st.WALSyncs, "GroupCommits": st.GroupCommits, "GroupedRecords": st.GroupedRecords,
		"FlushStallNanos": st.FlushStallNanos, "CompactionStallNanos": st.CompactionStallNanos,
		"ECalls": st.ECalls, "OCalls": st.OCalls, "CopiedBytes": st.CopiedBytes,
		"VerifiedGets": st.VerifiedGets, "ProofBytes": st.ProofBytes, "RunsProbed": st.RunsProbed,
	} {
		c[k] = float64(v)
	}
	for _, r := range t.store.Recorders() {
		for _, nh := range r.Hists() {
			s := nh.Hist.Snapshot()
			c[nh.Name+".count"] += float64(s.Count)
			c[nh.Name+".sum"] += float64(s.Sum)
		}
	}
	if o := t.store.Observer(); o != nil {
		ns, rb := o.NetService.Snapshot(), o.RouterBatch.Snapshot()
		c["net_service.count"], c["net_service.sum"] = float64(ns.Count), float64(ns.Sum)
		c["router_batch.count"], c["router_batch.sum"] = float64(rb.Count), float64(rb.Sum)
	}
	if t.srv != nil {
		s := t.srv.Stats()
		c["srv.bytes_in"], c["srv.bytes_out"], c["srv.busy"] = float64(s.BytesIn), float64(s.BytesOut), float64(s.BusyRejects)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["gc.cycles"] = float64(ms.NumGC)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		c["gc.cpu_s"] = sample[0].Value.Float64()
	}
	c["cpu_s"] = cpuSeconds()
	return c
}

func counterDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fromCounters turns the counter deltas summed over every pass into
// the counter-sourced metrics: means, never quantiles.
func (l *ledger) fromCounters(all []*trial) {
	c := map[string]float64{}
	var ops, puts, wallNs float64
	for _, t := range all {
		for k, v := range t.passCounters {
			c[k] += v
		}
		ops += float64(t.attempted)
		puts += float64(t.puts())
		for _, s := range t.slices {
			wallNs += s.Wall * 1e9
		}
	}
	n := float64(len(all) * l.cfg.W.passes()) // passes run
	mean := func(h string) float64 { return ratio(c[h+".sum"], c[h+".count"]) }
	m := l.m

	m["core.get_e2e_us"] = mean("get_e2e_nanos") / 1e3
	m["core.verify_us_per_get"] = ratio(c["verify_nanos.sum"], c["VerifiedGets"]) / 1e3
	m["core.proof_bytes_per_get"] = ratio(c["ProofBytes"], c["VerifiedGets"])
	m["core.runs_probed_per_get"] = ratio(c["RunsProbed"], c["VerifiedGets"])
	m["core.scan_chunk_us"] = mean("scan_chunk_nanos") / 1e3
	m["core.put_e2e_us"] = mean("put_e2e_nanos") / 1e3

	stages := 0.0
	for _, s := range []string{"queue_wait", "append", "fsync", "apply", "resolve"} {
		us := mean("commit_"+s+"_nanos") / 1e3
		m["lsm.commit_"+s+"_us"] = us
		stages += us
	}
	m["lsm.group_size"] = ratio(c["GroupedRecords"], c["GroupCommits"])
	m["lsm.wal_syncs_per_op"] = ratio(c["WALSyncs"], puts)
	if m["core.put_e2e_us"] > 0 {
		m["ledger.put_unaccounted_pct"] = 100 * (1 - stages/m["core.put_e2e_us"])
	}

	user := puts * userRecord
	m["lsm.flushes"] = c["Flushes"] / n
	m["lsm.compactions"] = c["Compactions"] / n
	m["lsm.compact_merge_ms"] = c["compact_merge_nanos.sum"] / 1e6 / n
	m["lsm.bytes_flushed_per_user_byte"] = ratio(c["BytesFlushed"], user)
	m["lsm.bytes_compacted_per_user_byte"] = ratio(c["BytesCompacted"], user)
	callerWall := float64(l.cfg.W.Clients) * wallNs
	m["lsm.flush_stall_share"] = ratio(c["FlushStallNanos"], callerWall)
	m["lsm.compaction_stall_share"] = ratio(c["CompactionStallNanos"], callerWall)
	fp := all[0].fingerprint
	m["lsm.setup_disk_bytes"], m["lsm.setup_flushes"] = float64(fp[0]), float64(fp[1])
	m["lsm.setup_compactions"], m["lsm.setup_bytes_compacted"] = float64(fp[2]), float64(fp[3])

	m["sgx.ecalls_per_op"] = ratio(c["ECalls"], ops)
	m["sgx.ocalls_per_op"] = ratio(c["OCalls"], ops)
	m["sgx.copied_bytes_per_op"] = ratio(c["CopiedBytes"], ops)

	m["netsrv.service_us"] = mean("net_service") / 1e3
	m["netsrv.bytes_in_per_op"] = ratio(c["srv.bytes_in"], ops)
	m["netsrv.bytes_out_per_op"] = ratio(c["srv.bytes_out"], ops)
	m["netsrv.busy_rejects"] = c["srv.busy"]
	m["shard.router_batch_us"] = mean("router_batch") / 1e3

	m["go.gc_cycles"] = c["gc.cycles"] / n
	m["go.gc_cpu_share"] = ratio(c["gc.cpu_s"], c["cpu_s"])
}

// ---------------------------------------------------------------------------
// Spans

type tally struct {
	n     float64
	total float64 // ns
}

func (t tally) mean() float64 { return ratio(t.total, t.n) }

func (t tally) plus(o tally) tally { return tally{t.n + o.n, t.total + o.total} }

// clientSpan names the span a caller records around one operation type.
func clientSpan(layer string, k opKind) string { return layer + "." + k.String() }

func tallySpans(spans []span) map[string]tally {
	out := map[string]tally{}
	for _, s := range spans {
		t := out[s.Name]
		t.n++
		t.total += float64(s.End - s.Start)
		out[s.Name] = t
	}
	return out
}

// fromSpans reads the client spans of the traced trials: the facade (or
// connection) call as its caller saw it.
func (l *ledger) fromSpans(spans []span) {
	by := tallySpans(spans)
	var wire tally
	for _, k := range []opKind{opGet, opPut, opScan} {
		in, net := by[clientSpan("elsm", k)], by[clientSpan("netclient", k)]
		if in.n > 0 {
			l.m["elsm."+k.String()+"_us"] = in.mean() / 1e3
		}
		wire = wire.plus(net)
		l.opMean[k] = in.plus(net).mean() / 1e3
	}
	l.m["netclient.call_us"] = wire.mean() / 1e3
}

// writeTrace writes the spans once all timing is over: client spans thinned
// 1 in 64, the replay's spans whole, and each span name's self time (its
// spans minus what their children cover).
func (l *ledger) writeTrace(client []span) error {
	all := make([]span, 0, len(client)/spanThin+len(l.replay))
	for i := 0; i < len(client); i += spanThin {
		all = append(all, client[i])
	}
	all = append(all, l.replay...)
	out := struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		Thinning int              `json:"client_span_thinning"`
		SelfNs   map[string]int64 `json:"self_time_ns"`
		Spans    []span           `json:"spans"`
	}{l.cfg.W.Name, l.cfg.Seed, spanThin, selfTimes(all), all}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(l.cfg.TraceOut, data, 0o644)
}

// ---------------------------------------------------------------------------
// Live probes: the last trial's store, still open

// timeOps runs ops one at a time through do and tallies the latency per
// operation type. Puts rewrite the key's current version, so the dataset
// the audit expects is unchanged.
func (l *ledger) timeOps(t *trial, do doer, ops []op) (map[opKind]tally, error) {
	out := map[opKind]tally{}
	var val [valueSize]byte
	for _, o := range ops {
		var err error
		start := nanotime()
		switch o.kind.class() {
		case opGet:
			key := l.ks.keys[o.idx]
			if o.kind == opGetAbsent {
				key = l.ks.absent[o.idx]
			}
			_, _, err = do.get(key)
		case opScan:
			_, err = do.scan(l.ks.keys[o.idx], l.ks.keys[int(o.idx)+scanLen-1])
		case opPut:
			fillValue(val[:], o.idx, t.ver[o.idx])
			err = do.put(l.ks.keys[o.idx], val[:])
		}
		if err != nil {
			return nil, fmt.Errorf("probe %v key %d: %w", o.kind, o.idx, err)
		}
		ta := out[o.kind.class()]
		ta.n++
		ta.total += float64(nanotime() - start)
		out[o.kind.class()] = ta
	}
	return out, nil
}

const probeOps = 2000

// liveProbes measures what needs the server up: the wire's cost over the
// same operations in process on one idle connection, and a ping's round
// trip. On a wire workload the in-process half is also the only view of the
// facade the benchmark has, so it supplies elsm.get_us and elsm.put_us.
func (l *ledger) liveProbes(t *trial) error {
	if len(t.conns) == 0 {
		return nil
	}
	ops := t.callers[0].ops
	if len(ops) > probeOps {
		ops = ops[:probeOps]
	}
	wire, err := l.timeOps(t, clientDoer(t.conns[0]), ops)
	if err != nil {
		return err
	}
	local, err := l.timeOps(t, storeDoer(t.store), ops)
	if err != nil {
		return err
	}
	var w, in tally
	for k, ta := range wire {
		w, in = w.plus(ta), in.plus(local[k])
		l.m["elsm."+k.String()+"_us"] = local[k].mean() / 1e3
	}
	l.m["ledger.wire_overhead_us"] = (w.mean() - in.mean()) / 1e3
	start := nanotime()
	for i := 0; i < probeOps; i++ {
		if err := t.conns[0].Ping(); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
	}
	l.m["netsrv.ping_rtt_us"] = float64(nanotime()-start) / probeOps / 1e3
	return nil
}

// rawStore runs the first quarter of the same pass on a ModeUnsecured store
// set up the same paced way: the engine without authentication, and with it
// the paper's headline ratio P2 ÷ raw per operation type.
func (l *ledger) rawStore(streams [][]op) error {
	t, err := runTrial(l.cfg, l.ks, streams, elsm.ModeUnsecured, slices/4, true, false)
	if err != nil {
		return err
	}
	err = t.close()
	collect()
	if err != nil {
		return err
	}
	if t.failed > 0 {
		return fmt.Errorf("%d operations failed: %v", t.failed, t.firstErr)
	}
	var spans []span
	for _, c := range t.callers {
		spans = append(spans, c.spans...)
	}
	by := tallySpans(spans)
	for _, k := range []opKind{opGet, opPut, opScan} {
		raw := by[clientSpan("elsm", k)].plus(by[clientSpan("netclient", k)]).mean() / 1e3
		l.m["lsm.raw_"+k.String()+"_us"] = raw
		l.m["core.auth_overhead_"+k.String()+"_x"] = ratio(l.opMean[k], raw)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Read replay: the GET and SCAN protocols walked by hand

func (l *ledger) id() uint64 { l.nextID++; return l.nextID }

// child times fn as a span under parent.
func (l *ledger) child(parent *span, name string, fn func()) {
	s := span{ID: l.id(), Parent: parent.ID, Op: parent.Op, Name: name, Start: nanotime()}
	fn()
	s.End = nanotime()
	l.replay = append(l.replay, s)
}

type runDigest struct {
	root hashutil.Hash
	n    int
}

func digests(cs *core.Store) (map[uint64]runDigest, error) {
	out := map[uint64]runDigest{}
	for id, d := range cs.RunDigests() {
		raw, err := hex.DecodeString(d.Root)
		if err != nil || len(raw) != hashutil.Size {
			return nil, fmt.Errorf("run %d: bad digest root %q", id, d.Root)
		}
		var rd runDigest
		copy(rd.root[:], raw)
		rd.n = d.NumLeaves
		out[id] = rd
	}
	return out, nil
}

// witness replays core's verifyWitness on one record: decode the embedded
// proof, rebuild the leaf, fold the Merkle path up to the trusted root.
func (l *ledger) witness(parent *span, rec record.Record, d runDigest) error {
	var p *core.EmbeddedProof
	var leaf hashutil.Hash
	var err error
	l.child(parent, "core.proof_decode", func() { p, err = core.DecodeProof(rec.Proof) })
	if err != nil {
		return err
	}
	l.child(parent, "core.reconstruct_leaf", func() { leaf = p.ReconstructLeaf(rec) })
	l.child(parent, "merkle.verify_path", func() {
		err = merkle.VerifyPath(leaf, int(p.LeafIndex), d.n, p.Path, d.root)
	})
	return err
}

// replayGet is §5.3 by hand: snapshot, memtable, then every run newest
// first with per-run membership or non-membership, stopping at the first
// hit.
func (l *ledger) replayGet(eng *lsm.Store, digs map[uint64]runDigest, key []byte) error {
	id := l.id()
	parent := span{ID: id, Op: id, Name: "replay.get", Start: nanotime()}
	var snap *lsm.Snapshot
	var err error
	l.child(&parent, "lsm.snapshot", func() { snap = eng.AcquireEphemeralSnapshot() })
	hit := false
	l.child(&parent, "memtable.get", func() { _, hit = snap.MemGet(key, record.MaxTs) })
	for i, run := range snap.Runs() {
		d := digs[run.ID]
		if hit || err != nil || d.n == 0 {
			continue
		}
		var lk lsm.RunLookup
		l.child(&parent, "lsm.lookup_run", func() { lk, err = snap.LookupRun(i, key, record.MaxTs) })
		if err != nil {
			break
		}
		if lk.Found {
			hit = true
			err = l.witness(&parent, lk.Rec, d)
			continue
		}
		for _, w := range []*record.Record{lk.Pred, lk.Succ} {
			if w != nil && err == nil {
				err = l.witness(&parent, *w, d)
			}
		}
	}
	l.child(&parent, "lsm.snapshot", snap.Release)
	parent.End = nanotime()
	l.replay = append(l.replay, parent)
	return err
}

// replayScan is §5.4 by hand for one 50-key range: per run, the untrusted
// chunk read, the leaves rebuilt from the version chains, the range proof
// assembled from the first and last embedded proofs, and the boundary
// witnesses.
func (l *ledger) replayScan(eng *lsm.Store, digs map[uint64]runDigest, start, end []byte) error {
	id := l.id()
	parent := span{ID: id, Op: id, Name: "replay.scan", Start: nanotime()}
	var snap *lsm.Snapshot
	var err error
	l.child(&parent, "lsm.snapshot", func() { snap = eng.AcquireSnapshot() })
	for i, run := range snap.Runs() {
		d := digs[run.ID]
		if d.n == 0 || err != nil {
			continue
		}
		var rs lsm.RunScan
		l.child(&parent, "lsm.scan_run_chunk", func() {
			rs, err = snap.ScanRunChunk(i, start, end, core.DefaultIterChunkKeys)
		})
		if err != nil {
			break
		}
		if len(rs.Records) > 0 {
			var leaves []hashutil.Hash
			var first, last record.Record
			l.child(&parent, "core.rebuild_leaves", func() {
				for a := 0; a < len(rs.Records); {
					b := a
					for b < len(rs.Records) && bytes.Equal(rs.Records[b].Key, rs.Records[a].Key) {
						b++
					}
					inner := hashutil.Zero
					for v := b - 1; v >= a; v-- {
						inner = hashutil.ChainLink(rs.Records[v].Ts, rs.Records[v].Digest(), inner)
					}
					leaves = append(leaves, hashutil.LeafHash(rs.Records[a].Key, inner))
					if a == 0 {
						first = rs.Records[a]
					}
					last = rs.Records[a]
					a = b
				}
			})
			var fp, lp *core.EmbeddedProof
			l.child(&parent, "core.proof_decode", func() {
				if fp, err = core.DecodeProof(first.Proof); err == nil {
					lp, err = core.DecodeProof(last.Proof)
				}
			})
			if err != nil {
				break
			}
			name := "merkle.verify_range"
			if len(leaves) != scanLen {
				name = "merkle.verify_range_partial" // upper runs hold only part of the range
			}
			l.child(&parent, name, func() {
				rp := &merkle.RangeProof{Start: int(fp.LeafIndex), Left: fp.LeftSiblings(), Right: lp.RightSiblings()}
				err = merkle.VerifyRange(leaves, d.n, rp, d.root)
			})
		}
		for _, w := range []*record.Record{rs.Pred, rs.Succ} {
			if w != nil && err == nil {
				err = l.witness(&parent, *w, d)
			}
		}
	}
	l.child(&parent, "lsm.snapshot", snap.Release)
	parent.End = nanotime()
	l.replay = append(l.replay, parent)
	return err
}

const (
	replayGets  = 2000
	replayScans = 200
)

// readReplay walks both protocols on keys of the workload's own stream,
// against the dataset the last pass left, reopened through core.Open. What
// the replay's spans do not cover of the facade call — the enclave
// boundary, the view, copying, and whatever running beside another client
// and the collector adds — is the ledger's unaccounted share.
func (l *ledger) readReplay(cs *core.Store, shards int) error {
	digs, err := digests(cs)
	if err != nil {
		return err
	}
	eng := cs.Engine()
	var idxs []int
	for _, o := range l.sample {
		if shards == 1 || shard.KeyShard(l.ks.keys[o.idx], shards) == 0 {
			idxs = append(idxs, int(o.idx))
		}
	}
	// Once unrecorded, so that the timed walk finds the cache as the pass
	// left it: warm.
	for round := 0; round < 2; round++ {
		l.replay = l.replay[:0]
		for i, idx := range idxs {
			if i == replayGets {
				break
			}
			if err := l.replayGet(eng, digs, l.ks.keys[idx]); err != nil {
				return fmt.Errorf("replay get key %d: %w", idx, err)
			}
		}
	}
	gets := tallySpans(l.replay)
	nGets := gets["replay.get"].n
	covered := 0.0
	for name, ta := range gets {
		if name != "replay.get" {
			covered += ta.total
		}
	}
	m := l.m
	m["lsm.snapshot_ns"] = ratio(gets["lsm.snapshot"].total, nGets)
	m["memtable.get_ns"] = gets["memtable.get"].mean()
	m["lsm.lookup_run_ns"] = gets["lsm.lookup_run"].mean()
	m["core.proof_decode_ns"] = gets["core.proof_decode"].mean()
	m["core.reconstruct_leaf_ns"] = gets["core.reconstruct_leaf"].mean()
	m["merkle.verify_path_ns"] = gets["merkle.verify_path"].mean()
	if m["elsm.get_us"] > 0 {
		m["ledger.get_unaccounted_pct"] = 100 * (1 - ratio(covered, nGets)/1e3/m["elsm.get_us"])
	}

	if shards > 1 {
		return nil // a shard holds a quarter of every range; no workload scans it
	}
	mark := len(l.replay)
	for i, idx := range idxs {
		if i == replayScans {
			break
		}
		if idx > l.ks.n-scanLen {
			idx = l.ks.n - scanLen
		}
		if err := l.replayScan(eng, digs, l.ks.keys[idx], l.ks.keys[idx+scanLen-1]); err != nil {
			return fmt.Errorf("replay scan key %d: %w", idx, err)
		}
	}
	scans := tallySpans(l.replay[mark:])
	nScans := scans["replay.scan"].n
	covered = 0
	for name, ta := range scans {
		if name != "replay.scan" {
			covered += ta.total
		}
	}
	m["merkle.verify_range_ns"] = scans["merkle.verify_range"].mean()
	m["lsm.scan_run_chunk_ns"] = scans["lsm.scan_run_chunk"].mean()
	if m["elsm.scan_us"] > 0 {
		m["ledger.scan_unaccounted_pct"] = 100 * (1 - ratio(covered, nScans)/1e3/m["elsm.scan_us"])
	}
	return nil
}

// reopen opens shard 0 of the dataset through core.Open, the way the facade
// does, and times it.
func (l *ledger) reopen(d *dataset) (*core.Store, error) {
	w := l.cfg.W
	var fs vfs.FS = d.fs
	if w.Shards > 1 {
		var err error
		if fs, err = vfs.Sub(d.fs, shard.DirName(0)); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	cs, err := core.Open(core.Config{
		FS: fs, Platform: d.platform, Counter: d.counters[0],
		CacheSize: w.CacheSize, KeepVersions: w.KeepVersions,
	})
	l.m["core.reopen_ms"] = float64(time.Since(start)) / 1e6
	return cs, err
}

// finish makes sure every per-layer name is present: a 0 means the workload
// does not exercise the layer.
func (l *ledger) finish() {
	for _, s := range perLayer {
		if _, ok := l.m[s.Name]; !ok {
			l.m[s.Name] = 0
		}
	}
}
