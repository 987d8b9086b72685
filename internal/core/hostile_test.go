package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"elsm/internal/kvtest/hostfs"
	"elsm/internal/kvtest/model"
	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/sstable"
	"elsm/internal/vfs"
	"elsm/internal/wal"
)

// The host as a fuzzer. One runner drives a Store through a script — writes,
// reads, snapshots, maintenance, reopens, crashes, lies — on a hostfs.FS,
// under a vfs.FaultFS for the crashes, and holds it to one model.Model and
// four properties:
//
//  1. every verified result equals the model at its timestamp; a read or
//     write that fails, fails with an allowed error, and only if the host
//     lied to the store or its disk died (see hostRun.honest);
//  2. nothing panics, and no script hangs;
//  3. a reopen with no lie in effect — none at rest, and none told to, or
//     resting under, a step that wrote — and with the disk alive, succeeds
//     and serves every acknowledged write;
//  4. any other reopen fails with an allowed error, or recovers a prefix of
//     the acknowledged writes no shorter than the last seal.
//
// FuzzHostileHost reads the script from fuzz input; the named scripts of
// hostileCorpus (see runCorpus) each also assert the error class of the
// steps they mark. Every script runs twice: with fresh verified
// caches at every open, and with one set shared across opens.

// allowed reports whether err is one a store may answer a lying host with:
// an authentication failure, or one of these host faults, none of which
// returns data:
//   - vfs.ErrInjected: the crash file system's dead disk;
//   - vfs.ErrNotFound: a file the host hid;
//   - io.EOF, io.ErrUnexpectedEOF: a read the host cut short;
//   - ErrOldStateFormat: the format check of a sealed blob, which the host
//     cannot forge but can swap for another;
//   - sstable.ErrBadTable, wal.ErrCorrupt, wal.ErrOldFormat: a table or log
//     whose framing the host garbled, refused as it is decoded, before any
//     of its bytes reach the enclave's checks.
func allowed(err error) bool {
	return err == nil || slices.ContainsFunc([]error{ErrAuthFailed, vfs.ErrInjected, vfs.ErrNotFound, io.EOF, io.ErrUnexpectedEOF,
		ErrOldStateFormat, sstable.ErrBadTable, wal.ErrCorrupt, wal.ErrOldFormat}, func(e error) bool { return errors.Is(err, e) })
}

// step is one step of a script.
type step struct {
	name string
	fn   func(r *hostRun) error
	read bool    // it writes nothing: no lie told to it can be written down
	host bool    // the host's own act: the store takes no step
	want []error // it must fail with one of these; errNone: must not fail
}

var errNone = errors.New("no error")

func (s step) fails(errs ...error) step { s.want = errs; return s }
func (s step) ok() step                 { s.want = []error{errNone}; return s }

func do(fn func(r *hostRun) error) step { return step{name: "do", fn: fn} }

// on is a step that needs the store open: on a store that is down it does
// nothing.
func on(name string, fn func(r *hostRun, s *Store) error) step {
	return step{name: name, fn: func(r *hostRun) error {
		if r.s == nil {
			return nil
		}
		return fn(r, r.s)
	}}
}

func key(i int) []byte { return fmt.Appendf(nil, "key%05d", i) }

// batch commits keys [from, from+n) in commits of per keys; bit i of dels
// makes key from+i a delete.
func batch(from, n, per, dels int) step {
	return on(fmt.Sprintf("batch(%d,%d,%d,%b)", from, n, per, dels), func(r *hostRun, _ *Store) (first error) {
		for i := 0; i < n; i += per {
			var recs []record.Record
			for j := i; j < min(i+per, n); j++ {
				rec := record.Record{Key: key(from + j), Kind: record.KindSet, Value: fmt.Appendf(nil, "v%d-%d", r.step, from+j)}
				if dels>>j&1 == 1 {
					rec.Kind, rec.Value = record.KindDelete, nil
				}
				recs = append(recs, rec)
			}
			if err := r.commit(recs); first == nil {
				first = err
			}
		}
		return first
	})
}

func puts(from, n int) step { return batch(from, n, 1, 0) }

// get reads n keys from from (each with an x appended if absent) at the
// read time when picks.
func get(from, n, when int, absent bool) step {
	s := on(fmt.Sprintf("get(%d,%d,%d,%v)", from, n, when, absent), func(r *hostRun, s *Store) (first error) {
		for i := 0; i < n; i++ {
			k := key(from + i)
			if absent {
				k = append(k, 'x')
			}
			if err := r.get(s, k, r.tsq(when)); first == nil {
				first = err
			}
		}
		return first
	})
	s.read = true
	return s
}

func reads(from, n int) step { return get(from, n, 0, false) }

func scan(from, n, when int) step {
	s := on(fmt.Sprintf("scan(%d,%d,%d)", from, n, when), func(r *hostRun, s *Store) error {
		return r.scan(s, key(from), key(from+n), r.tsq(when))
	})
	s.read = true
	return s
}

func compact(lvl int) step {
	return on(fmt.Sprintf("compact(%d)", lvl), func(_ *hostRun, s *Store) error { return s.Compact(lvl) })
}

// crash lets the disk die after budget mutating operations (0: now) while
// n keys are put and flushed, and stops the engine unsealed; an odd budget
// is a power loss, which also loses every byte written since its file's
// last Sync.
func crash(budget, n int) step {
	return step{name: fmt.Sprintf("crash(%d,%d)", budget, n), fn: func(r *hostRun) error {
		if r.s != nil && budget > 0 {
			r.fault.SetTornWrites(true)
			r.fail(vfs.OpMutating, "", budget)
			for i := 0; i < n && !r.fault.Tripped(); i++ {
				r.commit([]record.Record{{Key: key(i), Kind: record.KindSet, Value: fmt.Appendf(nil, "v%d-%d", r.step, i)}})
			}
			r.check("Flush", r.s.Flush())
		}
		r.down()
		r.fault.Disarm()
		if budget%2 == 1 {
			return r.h.Heal()
		}
		return nil
	}}
}

// openCrash opens a store that is down with the disk dying after budget
// mutating operations, and stops it unsealed: a crash during recovery.
func openCrash(budget int) step {
	return step{name: fmt.Sprintf("openCrash(%d)", budget), fn: func(r *hostRun) error {
		if r.s != nil {
			return nil
		}
		r.fail(vfs.OpMutating, "", budget)
		err := r.open()
		r.down()
		r.fault.Disarm()
		return err
	}}
}

// tell tells lie at rest about every file glob matches.
func tell(glob string, kind hostfs.Kind, arg int64) step {
	st := do(func(r *hostRun) error {
		return r.each(glob, func(name string) error { return r.h.Tell(name, hostfs.Lie{Kind: kind, Arg: arg}) })
	}).ok()
	st.host = true
	return st
}

// each runs fn on every file glob matches, once no job reads a file as it
// changes.
func (r *hostRun) each(glob string, fn func(name string) error) error {
	if r.s != nil {
		r.check("WaitMaintenance", r.s.Engine().WaitMaintenance())
	}
	n := 0
	for _, name := range r.files() {
		if ok, _ := path.Match(glob, name); ok {
			n++
			if err := fn(name); err != nil {
				return err
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("no file matches %s", glob)
	}
	return nil
}

// files lists the host's files without a lie.
func (r *hostRun) files() []string {
	defer r.h.Arm(r.h.Pause())
	names, _ := r.h.List("")
	return names
}

// edit rewrites every file glob matches with fn.
func (r *hostRun) edit(glob string, fn func([]byte) []byte) error {
	return r.each(glob, func(name string) error { return r.h.Rewrite(name, fn) })
}

var (
	flush = on("flush", func(_ *hostRun, s *Store) error { return s.Flush() })
	wait  = on("wait", func(_ *hostRun, s *Store) error { return s.Engine().WaitMaintenance() })
	seal  = on("seal", func(_ *hostRun, s *Store) error { s.SealState(); return nil })
	open  = step{name: "open", fn: (*hostRun).open}
	heal  = step{name: "heal", host: true, fn: func(r *hostRun) error { return r.h.Heal() }}
	// closeS seals and stops the store.
	closeS = on("close", func(r *hostRun, s *Store) error {
		if r.snap != nil {
			r.snap.Close()
			r.snap = nil
		}
		r.s = nil
		return s.Close()
	})
	crashed = crash(0, 0)
)

// decodeScript reads a script from fuzz input: an op byte, then its
// arguments.
func decodeScript(data []byte) []step {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	var script []step
	for len(data) > 0 && len(script) < 48 {
		op := next(16)
		st, fixed := map[int]step{5: flush, 7: wait, 8: seal, 9: closeS, 10: open, 15: heal}[op]
		switch {
		case fixed:
		case op == 0:
			from, n := next(64), 1+next(16)
			st = batch(from, n, n, next(256)&^1)
		case op == 1:
			from, when := next(64), next(256)
			st = get(from, 1+next(8), when, next(2) == 1)
		case op == 2:
			st = scan(next(64), next(16), next(256))
		case op == 3:
			st = on("snapshot", func(r *hostRun, s *Store) (err error) {
				if r.snap != nil {
					r.snap.Close()
				}
				r.snap, err = s.Snapshot()
				return err
			})
		case op == 4:
			from := next(64)
			st = step{name: "snapread", read: true, fn: func(r *hostRun) error {
				if r.snap == nil {
					return nil
				}
				return errors.Join(r.get(r.snap, key(from), r.snap.Ts()), r.scan(r.snap, key(from), key(from+8), r.snap.Ts()))
			}}
		case op == 6:
			st = compact(1 + next(3))
		case op == 11:
			st = crash(next(24), next(32))
		case op == 12:
			st = openCrash(next(24))
		case op == 13:
			n := min(next(48), len(data))
			stream := data[:n]
			data = data[n:]
			st = step{name: "arm", host: true, fn: func(r *hostRun) error { r.h.Arm(stream); return nil }}
		case op == 14:
			i, lie := next(256), hostfs.Lie{Kind: hostfs.Kind(1 + next(7)), Arg: int64(next(256)<<8 | next(256))}
			st = step{name: fmt.Sprintf("tell(%d,%v)", i, lie), host: true, fn: func(r *hostRun) error {
				if r.s != nil {
					r.check("WaitMaintenance", r.s.Engine().WaitMaintenance()) // no job reads a file as it changes
				}
				if names := r.files(); len(names) > 0 {
					return r.h.Tell(names[i%len(names)], lie)
				}
				return nil
			}}
		}
		script = append(script, st)
	}
	return script
}

// hostRun is one script's run.
type hostRun struct {
	t      testing.TB
	h      *hostfs.FS
	fault  *vfs.FaultFS
	cfg    Config
	s      *Store
	snap   Snapshot
	m      model.Model
	acked  []uint64          // commit timestamps of acknowledged batches
	maybe  [][]record.Record // batches whose commit failed: on disk or not
	sealed int               // acked[:sealed] is under a seal
	step   int
	keep   []byte // what a named script holds on to between steps
	mark   int

	// tampered: a step that writes ran while a lie was in effect, so what
	// the store wrote may rest on it. tainted: the store open now was told a
	// lie, or its disk was set to die, so what it holds in memory may rest
	// on it. armed and opened: this step set the disk to die, or called
	// Open.
	tampered, tainted, armed, opened bool
}

func newHostRun(t testing.TB, warm bool, tune func(*Config)) *hostRun {
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	r := &hostRun{t: t, h: hostfs.New()}
	r.fault = vfs.NewFault(r.h)
	r.cfg = smallCfg(r.fault)
	r.cfg.Platform, r.cfg.Counter, r.cfg.Enclave = platform, sgx.NewMonotonicCounter(), sgx.New(sgx.Params{})
	if tune != nil {
		tune(&r.cfg)
	}
	if warm {
		r.cfg.Caches = NewVerifiedCaches(r.cfg.Enclave)
	}
	if err := r.open(); err != nil {
		t.Fatalf("open of an empty store: %v", err)
	}
	return r
}

// lies lists the last lies told, for a failure message.
func (r *hostRun) lies() []string {
	told := r.h.Told()
	return told[max(0, len(told)-6):]
}

// fail lets the disk die after budget operations that mask and glob match.
func (r *hostRun) fail(mask vfs.Op, glob string, budget int) {
	r.armed = true
	r.fault.ArmFilter(mask, glob)
	r.fault.Arm(budget)
}

// honest reports whether the store open now, and every store it was
// reopened from, met no lie and no dying disk: then no step may fail.
func (r *hostRun) honest() bool { return !r.h.Lying() && !r.tampered && !r.tainted }

// check fails the run unless err is allowed.
func (r *hostRun) check(what string, err error) {
	if !allowed(err) {
		r.t.Fatalf("step %d: %s: %v is not an allowed error (lies %v)", r.step, what, err, r.lies())
	}
}

// tsq picks a read time: now, or the commit time of an acknowledged batch
// if the store keeps every version.
func (r *hostRun) tsq(choice int) uint64 {
	if choice%4 == 0 || len(r.acked) == 0 || r.cfg.KeepVersions > 0 {
		return record.MaxTs
	}
	return r.acked[len(r.acked)-1-choice%len(r.acked)]
}

// get reads key at tsq from rd and holds the result to the model.
func (r *hostRun) get(rd Reader, k []byte, tsq uint64) error {
	res, err := rd.GetAt(nil, k, tsq)
	r.check(fmt.Sprintf("GetAt(%s, %d)", k, tsq), err)
	want, ok := r.m.Get(k, tsq)
	if ok = ok && want.Kind == record.KindSet; err == nil && (res.Found != ok || ok && (!bytes.Equal(res.Value, want.Value) || res.Ts != want.Ts)) {
		r.t.Fatalf("step %d: GetAt(%s, %d) = %q@%d (found %v), the model has %q@%d (found %v); lies %v",
			r.step, k, tsq, res.Value, res.Ts, res.Found, want.Value, want.Ts, ok, r.lies())
	}
	return err
}

// scan reads [start, end] at tsq from rd and holds the rows to the model.
func (r *hostRun) scan(rd Reader, start, end []byte, tsq uint64) error {
	got, err := ScanAll(rd.IterAt(nil, start, end, tsq))
	r.check(fmt.Sprintf("Scan(%s, %s, %d)", start, end, tsq), err)
	if err == nil {
		if err := sameResults(got, modelScan(&r.m, string(start), string(end), tsq)); err != nil {
			r.t.Fatalf("step %d: Scan(%s, %s, %d): %v; lies %v", r.step, start, end, tsq, err, r.lies())
		}
	}
	return err
}

// commit writes one batch and records it as acknowledged or maybe written.
func (r *hostRun) commit(recs []record.Record) error {
	ops := make([]BatchOp, len(recs))
	for i, rec := range recs {
		ops[i] = BatchOp{Key: rec.Key, Value: rec.Value, Delete: rec.Kind == record.KindDelete}
	}
	ts, err := r.s.Commit(nil, ops)
	r.check("Commit", err)
	if err != nil {
		r.maybe = append(r.maybe, recs)
		return err
	}
	r.m.Apply(ts, recs)
	r.acked = append(r.acked, ts)
	return nil
}

// down stops the store without a seal, as a crash would.
func (r *hostRun) down() {
	if r.snap != nil {
		r.snap.Close()
		r.snap = nil
	}
	if r.s != nil {
		r.s.Engine().Close()
		r.s.retireRuns()
		r.s = nil
	}
	r.tainted = false
}

// open opens the store again and holds what it recovered to properties 3
// and 4.
func (r *hostRun) open() error {
	if r.s != nil {
		return nil
	}
	cfg := r.cfg
	if cfg.Workers == nil {
		cfg.Workers = lsm.NewWorkerPool(1) // one job at a time: the lies are drawn in script order
	}
	told := len(r.h.Told())
	s, err := Open(cfg)
	r.opened = true
	strict := !r.h.Lying() && !r.tampered && len(r.h.Told()) == told && !r.fault.Tripped()
	r.check("Open", err)
	if err != nil {
		if strict {
			r.t.Fatalf("step %d: reopen of an untampered store: %v", r.step, err)
		}
		return err
	}
	r.s = s
	keepSealKey(r.t, r.h, s.sealKey)
	n := r.recovered(strict)
	switch {
	case strict && n < len(r.acked):
		r.t.Fatalf("step %d: an untampered store recovered %d of %d acknowledged batches", r.step, n, len(r.acked))
	case n < r.sealed:
		r.t.Fatalf("step %d: recovered %d batches, %d were sealed; lies %v", r.step, n, r.sealed, r.lies())
	}
	if n < len(r.acked) {
		var ts uint64
		if n > 0 {
			ts = r.acked[n-1]
		}
		r.m.Truncate(ts)
		r.acked = r.acked[:n]
	}
	r.sealed = len(r.acked) // Open seals before it takes a write
	return nil
}

// recovered settles what a store just opened holds: the batches that may
// have been written that it holds join the acknowledged ones, and it
// returns how long a prefix of those it holds. It reads every row with the
// lies held back; if that read fails, the engine's applied timestamp says.
func (r *hostRun) recovered(strict bool) int {
	defer r.h.Arm(r.h.Pause())
	got, err := ScanAll(r.s.IterAt(nil, []byte("key"), []byte("kez"), record.MaxTs))
	r.check("Scan after Open", err)
	if err != nil {
		if strict {
			r.t.Fatalf("step %d: scan of an untampered store: %v", r.step, err)
		}
		applied := r.s.Engine().AppliedTs()
		if len(r.maybe) > 0 && (len(r.acked) == 0 || applied > r.acked[len(r.acked)-1]) {
			r.m.Apply(applied, r.maybe[0])
			r.acked = append(r.acked, applied)
		}
		r.maybe = nil
		n := 0
		for n < len(r.acked) && r.acked[n] <= applied {
			n++
		}
		return n
	}
maybe:
	for _, recs := range r.maybe {
		for i, rec := range recs {
			for _, g := range got {
				if rec.Kind == record.KindSet && bytes.Equal(g.Key, rec.Key) && bytes.Equal(g.Value, rec.Value) {
					r.m.Apply(g.Ts+uint64(len(recs)-1-i), recs)
					r.acked = append(r.acked, g.Ts+uint64(len(recs)-1-i))
					continue maybe
				}
			}
		}
	}
	r.maybe = nil
	n := len(r.acked)
	for ; n > 0; n-- {
		var m model.Model
		for _, rec := range r.m.SeekGE(nil, record.MaxTs) {
			if rec.Ts <= r.acked[n-1] {
				m.Put(rec)
			}
		}
		if sameResults(got, modelScan(&m, "key", "kez", record.MaxTs)) == nil {
			break
		}
	}
	if n == 0 && len(got) > 0 {
		r.t.Fatalf("step %d: the store recovered rows no prefix of the writes holds: %v; lies %v", r.step, got, r.lies())
	}
	return n
}

// run runs script and checks each step's expected outcome.
func (r *hostRun) run(script []step) {
	defer r.down()
	for i, st := range script {
		r.step = i
		told, lying, up, honest := len(r.h.Told()), r.h.Lying(), r.s != nil, r.honest()
		r.armed, r.opened = false, false
		err := st.fn(r)
		// A lie in effect while the store took the step, at rest or told to
		// the step, taints the store; if the step writes, its files too.
		if lied := lying || r.h.Lying() || len(r.h.Told()) > told; lied && !st.host && (up || r.s != nil || r.opened) {
			r.tainted = r.s != nil
			r.tampered = r.tampered || !st.read
			honest = false
		}
		if r.armed {
			r.tainted = r.s != nil
			honest = false
		}
		if r.s != nil {
			// The sealed bound moves up when the last seal covers every append.
			if unsealed, _ := r.s.SealWindow(); unsealed == 0 && len(r.maybe) == 0 {
				r.sealed = len(r.acked)
			}
		}
		switch {
		case st.want == nil && honest && err != nil:
			r.t.Fatalf("step %d (%s): %v on an honest host", i, st.name, err)
		case st.want == nil:
			r.check(st.name, err)
		case st.want[0] == errNone && err != nil:
			r.t.Fatalf("step %d (%s): %v, want no error; lies %v", i, st.name, err, r.lies())
		case st.want[0] != errNone && !slices.ContainsFunc(st.want, func(e error) bool { return errors.Is(err, e) }):
			r.t.Fatalf("step %d (%s): %v, want %v; lies %v", i, st.name, err, st.want, r.lies())
		}
	}
}

// FuzzHostileHost runs fuzz-chosen scripts; the first byte picks the seal
// interval, KeepVersions and whether level 1's target is 1 KiB, so that a
// flush's run is moved down by relabel. Its seeds write two runs of
// overlapping keys and then tell, at rest, one lie of each kind before a
// reopen and reads of every key; or crash twice in a row; or arm a stream;
// or flush a run that is moved down by relabel, then hide a file.
func FuzzHostileHost(f *testing.F) {
	for kind, file := range []byte{0, 1, 2, 0, 4, 2, 3} { // the file by index in name order: tables, TRUSTED.bin, wal.log
		f.Add([]byte{0, 0, 0, 8, 0, 5, 0, 4, 8, 0, 5, 9, 14, file, byte(kind), 0, 1, 10, 1, 0, 0, 7, 0, 1, 8, 0, 7, 0, 2, 0, 15, 0})
	}
	f.Add([]byte{0, 0, 0, 8, 0, 5, 11, 2, 16, 12, 3, 10, 1, 0, 0, 7, 0})
	f.Add([]byte{6, 0, 0, 8, 0, 13, 6, 1, 0, 1, 3, 0, 2, 5, 6, 0, 1, 0, 0, 7, 0, 9, 10})
	f.Add([]byte{8, 0, 0, 15, 0, 5, 9, 14, 1, 5, 0, 18, 10, 1, 0, 0, 7, 0, 15, 10, 1, 0, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// A script that hangs is a finding too: the fuzzer keeps the input of
		// a worker that dies.
		hung := time.AfterFunc(30*time.Second, func() {
			buf := make([]byte, 1<<20)
			panic(fmt.Sprintf("script hung:\n%s", buf[:runtime.Stack(buf, true)]))
		})
		defer hung.Stop()
		if len(data) == 0 {
			return
		}
		c, script := int(data[0]), decodeScript(data[1:])
		tune := func(cfg *Config) {
			cfg.CounterInterval, cfg.KeepVersions = []int{0, 1, 8, -1}[c%4], c/4%2
			if c/8%2 == 1 {
				cfg.LevelBase = 1 << 10
			}
		}
		for _, warm := range []bool{false, true} {
			newHostRun(t, warm, tune).run(script)
		}
	})
}

// corpusScript is a named script and the configuration it runs under.
type corpusScript struct {
	name   string
	tune   func(*Config)
	script []step
}

// forgeTune keeps every group in the active log until a script flushes it,
// and seals only when asked.
func forgeTune(cfg *Config) { cfg.MemtableSize, cfg.CounterInterval = 1<<20, -1 }

// oneRunTune makes every flush one run of its own that nothing compacts.
func oneRunTune(cfg *Config) { cfg.MemtableSize, cfg.DisableCompaction = 1<<20, true }

// flipEvery flips every stride-th byte of the first 1/part of a file.
func flipEvery(stride, part int) func([]byte) []byte {
	return func(b []byte) []byte {
		for off := 0; off < len(b)/part; off += stride {
			b[off] ^= 0xFF
		}
		return b
	}
}

// firstRunLevel compacts the level of the first run.
var firstRunLevel = on("compact(first run)", func(_ *hostRun, s *Store) error { return s.Compact(s.Engine().Runs()[0].Level) })

func replayedPastSeal(n int) step {
	return do(func(r *hostRun) error {
		if got := r.s.ReplayedPastSeal(); got != n {
			return fmt.Errorf("replayed %d records past the seal, want %d", got, n)
		}
		return nil
	}).ok()
}

var hostileCorpus = []corpusScript{
	// Every record's bytes flipped somewhere in every table: a Get answers
	// the model or refuses, and some refuse.
	{"TestAttackCorruptSSTableDetected", nil, []step{puts(0, 2000), wait, do(func(r *hostRun) error { return r.edit("*.sst", flipEvery(97, 1)) }),
		reads(0, 2000).fails(ErrAuthFailed, sstable.ErrBadTable)}},
	// The files of an older sealed state, put back whole.
	{"TestAttackRollbackDetected", nil, []step{puts(0, 500), flush, do(func(r *hostRun) error { r.mark = r.h.Mark(); return nil }),
		puts(0, 500), flush, closeS, do(func(r *hostRun) error { return r.h.Rollback(r.mark) }).ok(), open.fails(ErrRollback)}},
	// A compaction over tables flipped densely in their first halves.
	{"TestAttackCompactionInputTamperDetected", nil, []step{puts(0, 1000), flush, do(func(r *hostRun) error { return r.edit("*.sst", flipEvery(37, 2)) }),
		firstRunLevel.fails(ErrAuthFailed, sstable.ErrBadTable)}},
	{"TestAttackTrustedStateDeletionDetected", nil, []step{puts(0, 500), flush, closeS, tell(trustedStateName, hostfs.Hide, 0), open.fails(ErrStateMissing)}},
	{"TestAttackWALTamperDetected", nil, []step{puts(0, 2), closeS, tell("wal.log", hostfs.Flip, -1), open.fails(ErrAuthFailed)}},
	// A group of the log appended again, after a clean close and a crash.
	{"TestAttackForgedWALSuffix/crash=false", forgeTune, []step{puts(0, 2), closeS, tell("wal.log", hostfs.Replay, 0), open.fails(ErrForged)}},
	{"TestAttackForgedWALSuffix/crash=true", forgeTune, []step{puts(0, 2), crashed, tell("wal.log", hostfs.Replay, 1), open.fails(ErrForged)}},
	// Every 37th bit of the tag of each group past the seal flipped, one at
	// a time, the frame's CRC fixed up; the untouched log replays all three
	// groups past the seal.
	flippedTagPastSeal(),
	// The log a flush install deleted, put back as the active log.
	{"TestAttackOlderGenerationLog", forgeTune, []step{puts(0, 2), flush, closeS, tell("wal.log", hostfs.Older, 1), open.fails(ErrForged)}},
	// Another store's log: one process, one platform, so one sealing key.
	{"TestAttackOtherShardsLog", forgeTune, []step{do(func(r *hostRun) error {
		cfg := r.cfg
		sub, _ := vfs.Sub(r.fault, "twin")
		cfg.FS, cfg.Counter, cfg.Caches = sub, sgx.NewMonotonicCounter(), nil
		twin, err := Open(cfg)
		if err != nil {
			return err
		}
		Put(twin, key(0), []byte("twin"))
		Put(twin, key(1), []byte("twin"))
		return twin.Close()
	}).ok(), closeS, tell("wal.log", hostfs.Swap, 0), open.fails(ErrForged)}},
	// A group lost in a crash, kept by the host and put back in place of the
	// one the next incarnation wrote at its position.
	{"TestAttackTornGroupOfEarlierIncarnation", forgeTune, []step{puts(0, 1),
		do(func(r *hostRun) error { r.keep, _ = vfs.ReadFile(r.h, "wal.log"); r.mark = len(r.keep); return nil }),
		puts(1, 1), crashed,
		do(func(r *hostRun) error {
			return r.edit("wal.log", func(b []byte) []byte { r.keep = bytes.Clone(b); return b[:r.mark] })
		}), open.ok(), puts(2, 1), crashed,
		do(func(r *hostRun) error { return r.edit("wal.log", func([]byte) []byte { return r.keep }) }), open.fails(ErrForged)}},
	// The frozen log of a flush that never installed, hidden after a seal
	// covered it.
	{"TestAttackDroppedFrozenLog", forgeTune, []step{puts(0, 2), failedFlush, seal, crashed,
		tell("wal-*.log", hostfs.Hide, 0), open.fails(ErrRollback), heal, open.ok(), reads(0, 2).ok()}},
	// A MANIFEST planted in a directory that holds none: the version before
	// the last flushes in the parent's shape, with a lowered next file
	// number as an earlier format stated one, with two levels or level 1's
	// two runs swapped, and garbage.
	plantedManifest("TestParentManifestIsIgnored", func(older, _ []byte) ([]byte, error) { return older, nil }),
	plantedManifest("LoweredNextFile", func(older, _ []byte) ([]byte, error) {
		return bytes.Replace(older, []byte(`{`), []byte(`{"nextFile":1,`), 1), nil
	}),
	plantedManifest("TestAttackManifestReordersRuns/swap-levels", reordered(func(l [][]json.RawMessage) { l[1], l[2] = l[2], l[1] })),
	plantedManifest("TestAttackManifestReordersRuns/swap-L1-runs", reordered(func(l [][]json.RawMessage) { l[1][0], l[1][1] = l[1][1], l[1][0] })),
	plantedManifest("GarbledManifest", func(_, _ []byte) ([]byte, error) { return []byte("\x00{not a version"), nil }),
	forgedFilter("all clear", func(own, _ []byte) []byte { clear(own[:len(own)-1]); return own }),
	forgedFilter("all set", func(own, _ []byte) []byte { return append(bytes.Repeat([]byte{0xff}, len(own)-1), own[len(own)-1]) }),
	forgedFilter("another run", func(_, other []byte) []byte { return other }),
	forgedFilter("truncated", func(own, _ []byte) []byte { return own[:len(own)-1] }),
	forgedFilter("bad probe count", func(own, _ []byte) []byte { own[len(own)-1] = 31; return own }),
	groupSectionTamper(),
	indexLies("wrong block", func(e []fileIndexEntry) []fileIndexEntry { e[2].key, e[2].ts = e[1].key, 0; return e }),
	indexLies("dropped block", func(e []fileIndexEntry) []fileIndexEntry { return append(e[:2], e[3:]...) }, ErrAuthFailed),
	partBounds("cut table's last key lowered: last block overruns", 0, lastKey(func(e []fileIndexEntry) ([]byte, uint64) {
		return e[len(e)-2].key, 0
	}), sstable.ErrBadTable),
	partBounds("cut table's last key raised: the cut moves", 0, lastKey(func(e []fileIndexEntry) ([]byte, uint64) {
		return append(bytes.Clone(e[len(e)-1].key), 0xff), 1
	})),
	partBounds("table before the cut claims a key past it: refused", -1, lastKey(func([]fileIndexEntry) ([]byte, uint64) {
		return key(1199), 1
	}), ErrCompactionInput),
	// One byte of a single-version record's value flipped in a compaction's
	// input: the record's digest is its leaf.
	{"TestAttackTamperedOnlyVersionInCompaction", oneRunTune, []step{puts(0, 200), flush, do(func(r *hostRun) error {
		v, _ := r.m.Get(key(123), record.MaxTs)
		return r.edit("*.sst", func(b []byte) []byte {
			if at := bytes.Index(b, v.Value); at >= 0 {
				b[at+len(v.Value)-1] ^= 0xFF
			}
			return b
		})
	}), firstRunLevel.fails(ErrCompactionInput)}},
	// A clean close leaves nothing past the seal; a crash leaves what the
	// last periodic seal did not cover.
	{"TestCleanRecoveryVerifies", nil, []step{puts(0, 400), puts(0, 400), puts(0, 400), puts(0, 300), closeS, open.ok(), replayedPastSeal(0), reads(0, 400), puts(400, 1), reads(400, 1)}},
	{"TestUncleanRecoveryCountsSuffixPastSeal", func(cfg *Config) { cfg.CounterInterval = 10 }, []step{puts(0, 25), crashed, open.ok(), replayedPastSeal(5)}},
	// A store through flushes and compactions, its history, deletes and scans.
	{"TestPutGetVerified", nil, []step{puts(0, 700), puts(0, 700), puts(0, 700), puts(0, 700), puts(0, 200), wait,
		do(func(r *hostRun) error {
			if r.s.Engine().Stats().Compactions == 0 {
				return errors.New("no compaction ran")
			}
			return nil
		}).ok(), reads(0, 700), getKeys("aaa", "key99999", "zzz", "key00000a"), scan(100, 99, 0)}},
	{"TestHistoricalGetVerified", nil, []step{batch(0, 201, 201, 0), batch(0, 201, 201, 0), batch(0, 201, 201, 0), batch(0, 201, 201, 0),
		batch(0, 201, 201, 0), batch(0, 201, 201, 0), batch(0, 201, 201, 0), batch(0, 201, 201, 0), flush, history(0, 1)}},
	{"TestDeleteVerified", nil, []step{puts(0, 1), batch(0, 1, 1, 1), flush, reads(0, 1), history(0, 1)}},
	{"TestScanVerified", nil, []step{puts(0, 1000), puts(0, 100), scan(50, 99, 0), scan(2000, 9, 0)}},
	// Crashes: the log cut inside the last of six groups recovers the five
	// whole ones; a disk that dies under writes, a flush or a compaction
	// fails them with its error, and the reopened store holds every
	// acknowledged write and still refuses tampered tables.
	{"TestGroupCommitCrashRecoveryMidGroup", forgeTune, []step{puts(0, 1), closeS, open.ok(), batch(1, 30, 5, 0), crashed,
		do(func(r *hostRun) error { return r.edit("wal.log", func(b []byte) []byte { return b[:len(b)-7] }) }).ok(),
		open.ok(), reads(0, 31).ok(), do(func(r *hostRun) error {
			if len(r.acked) != 6 {
				return fmt.Errorf("recovered %d of 7 batches, want all but the cut one", len(r.acked))
			}
			return nil
		}).ok()}},
	{"TestRecoveryAfterMidFlushCrash", func(cfg *Config) { cfg.CounterInterval = 8 }, []step{puts(0, 60), crash(25, 3000), open.ok(), reads(0, 60)}},
	ioFault(3), ioFault(10), ioFault(40), ioFault(120), ioFault(400),
	crashMidCompaction(1), crashMidCompaction(2), crashMidCompaction(4), crashMidCompaction(8),
	crashMidCompaction(16), crashMidCompaction(32), crashMidCompaction(1 << 30),
	// Seals every seven records across flush installs that rebase the chain,
	// then a crash: fewer than seven records lie past the last seal.
	{"TestRecoveryAcrossFlushGenerations", func(cfg *Config) { cfg.CounterInterval = 7 }, []step{puts(0, 60), puts(0, 60), puts(0, 60),
		puts(0, 20), crashed, open.ok(), do(func(r *hostRun) error {
			if n := r.s.ReplayedPastSeal(); n >= 7 {
				return fmt.Errorf("%d records past the last seal with a bump every 7", n)
			}
			return nil
		}).ok(), reads(0, 60)}},
	// A final seal whose rename fails: Close returns the error, and the
	// reopened store replays the write it would have covered.
	{"TestCloseReportsAFailedSeal", nil, []step{puts(0, 1), do(func(r *hostRun) error {
		r.fail(vfs.OpRename, trustedStateName+"*", 0)
		defer r.fault.Disarm()
		return closeS.fn(r)
	}).fails(vfs.ErrInjected), open.ok(), replayedPastSeal(1), reads(0, 1)}},
	// A freeze renames the active log, then creates the next; a crash or a
	// failed create between the two leaves only frozen logs, and two
	// recoveries in a row still pass every group's tag.
	lostActiveLog("crash after the rename", func(r *hostRun) error { return r.h.Rename("wal.log", "wal-frozen-00000000.log") }),
	lostActiveLog("failed create", func(r *hostRun) error {
		r.fail(vfs.OpCreate, "wal.log", 0)
		defer r.fault.Disarm()
		if err := r.s.Flush(); !errors.Is(err, vfs.ErrInjected) {
			return fmt.Errorf("Flush with the new active log's create failing: %v", err)
		}
		return nil
	}),
	// A log whose COMMIT marker the host gave format 2's kind byte (two bits
	// of format 3's), its CRC fixed up, is refused as that format.
	{"TestParentFormatLogIsRefused", forgeTune, []step{puts(0, 1), crashed, tell("wal.log", hostfs.Flip, -167), tell("wal.log", hostfs.Flip, -168),
		open.fails(wal.ErrOldFormat)}},
	recoveryFlushWritesOneRun(),
	// Found by the fuzzer: with the seal and the log hidden, the tables left
	// looked like no store's, and Open started an empty one, a rollback to
	// nothing. A missing seal under a counter that has counted one is
	// refused.
	{"SealAndLogHidden", nil, []step{puts(0, 10), flush, closeS,
		tell(trustedStateName, hostfs.Hide, 0), tell("wal.log", hostfs.Hide, 0), open.fails(ErrStateMissing)}},
	// Found by the fuzzer, with two crashes in a row: a restart numbered its
	// frozen logs from 1 again, below the version's watermark of flushed
	// logs, so when the recovery flush crashed after freezing the log, the
	// next recovery deleted that log as flushed, and an acknowledged write
	// with it.
	{"FrozenLogBelowTheWatermark", nil, []step{puts(1, 1), flush, crash(2, 16), openCrash(3), open.ok(), reads(0, 2)}},
	// Found by the fuzzer: a table given another run's bytes feeds a
	// compaction a key's versions out of order; the hasher's refusal was an
	// unclassified error, and is ErrCompactionInput.
	{"SwappedTableInCompaction", oneRunTune, []step{puts(48, 1), flush, puts(48, 1), flush, closeS,
		tell("000002.sst", hostfs.Swap, 0), open, compact(1).fails(ErrCompactionInput)}},
	// Found by the fuzzer: garbled framing is refused as it is decoded, with
	// the decoder's error (see allowed).
	{"GarbledLogFrame", forgeTune, []step{puts(0, 3), crashed, tell("wal.log", hostfs.Flip, 0), open.fails(wal.ErrCorrupt)}},
	{"TruncatedTable", oneRunTune, []step{puts(0, 300), flush, tell("*.sst", hostfs.Truncate, 2000),
		reads(0, 300).fails(io.EOF, io.ErrUnexpectedEOF, sstable.ErrBadTable)}},
	// Found by the fuzzer, in the runner: a log hidden at rest under the
	// open store and shown again by a heal before any write must be the
	// file the store goes on appending to, not a copy beside it.
	{"HiddenAndHealedUnderTheStore", nil, []step{puts(0, 1), tell("wal.log", hostfs.Hide, 0), heal, puts(1, 1), closeS, open.ok(), reads(0, 2)}},
	// A lie a recovery acted on stays in its seal: the frozen log of a
	// failed flush, two groups past the seal, hidden from the recovery
	// after a crash, which opens without them under a new WAL key; put back
	// after a second crash, its groups fail their tags past the new seal, as
	// TestAttackTornGroupOfEarlierIncarnation's group does, and every later
	// Open refuses.
	{"HiddenFrozenLogReturns", forgeTune, []step{puts(0, 2), failedFlush, crashed,
		tell("wal-*.log", hostfs.Hide, 0), open.ok(), crashed, heal, open.fails(ErrForged)}},
}

// failedFlush is a flush whose table create fails: the frozen log it
// rotated the active log to stays.
var failedFlush = do(func(r *hostRun) error {
	r.fail(vfs.OpCreate, "*.sst", 0)
	defer r.fault.Disarm()
	return r.s.Flush()
}).fails(vfs.ErrInjected)

// getKeys reads keys at the newest timestamp.
func getKeys(keys ...string) step {
	s := on(fmt.Sprintf("getKeys%q", keys), func(r *hostRun, s *Store) (first error) {
		for _, k := range keys {
			if err := r.get(s, []byte(k), record.MaxTs); first == nil {
				first = err
			}
		}
		return first
	})
	s.read = true
	return s
}

// flippedTagPastSeal seals one group, crashes past three more, and flips,
// one at a time, every 37th bit of each of their tags, the frame's CRC
// fixed up as a host can; each flip fails the reopen, and the untouched log
// replays the three groups.
func flippedTagPastSeal() corpusScript {
	var tags []int64 // the bit offset of each group's tag, the last bytes of the group
	script := []step{puts(0, 1), seal, puts(1, 3), crashed, do(func(r *hostRun) error {
		log, err := vfs.ReadFile(r.h, "wal.log")
		end := 0
		tags = tags[:0]
		wal.Replay(log, func(g []record.Record, _ *wal.Tag) error {
			end += wal.GroupSize(g)
			tags = append(tags, int64(end-wal.TagSize)*8)
			return nil
		})
		if err == nil && len(tags) != 4 {
			err = fmt.Errorf("found %d groups, want 4", len(tags))
		}
		return err
	}).ok()}
	for g := 1; g < 4; g++ {
		for bit := int64(0); bit < 8*wal.TagSize; bit += 37 {
			flip := do(func(r *hostRun) error { return r.h.Tell("wal.log", hostfs.Lie{Kind: hostfs.Flip, Arg: tags[g] + bit}) }).ok()
			flip.host = true
			script = append(script, flip, open.fails(ErrForged), heal)
		}
	}
	return corpusScript{"TestAttackFlippedTagPastSeal", forgeTune, append(script, open.ok(), replayedPastSeal(3), reads(0, 4).ok())}
}

// history reads keys [from, from+n), each also with an x appended, at every
// timestamp from just before the first acknowledged batch to the last.
func history(from, n int) step {
	s := on(fmt.Sprintf("history(%d,%d)", from, n), func(r *hostRun, s *Store) error {
		var errs []error
		for ts := r.acked[0] - 1; ts <= r.acked[len(r.acked)-1]; ts++ {
			for i := from; i < from+n; i++ {
				errs = append(errs, r.get(s, key(i), ts), r.get(s, append(key(i), 'x'), ts))
			}
		}
		return errors.Join(errs...)
	})
	s.read = true
	return s
}

// ioFault lets the disk die after budget operations under a stream of puts:
// a put fails with the injected error, never another.
func ioFault(budget int) corpusScript {
	return corpusScript{fmt.Sprintf("TestIOFaultDuringWritesSurfacesCleanly/budget%d", budget), nil, []step{do(func(r *hostRun) error {
		r.fail(vfs.OpAll, "", budget)
		defer r.fault.Disarm()
		for i := 0; i < 2000; i++ {
			if err := r.commit([]record.Record{{Key: key(i), Kind: record.KindSet, Value: []byte("v")}}); err != nil {
				return err
			}
		}
		return nil
	}).fails(vfs.ErrInjected)}}
}

// crashMidCompaction lets the disk die after budget operations of a
// compaction, crashes, and reopens: the store lists the compaction's input
// runs or its output, never some of both, holds every acknowledged write,
// and a Get through a table flipped every 64 bytes refuses.
func crashMidCompaction(budget int) corpusScript {
	var before, after []lsm.RunRef
	ids := func(runs []lsm.RunRef) []uint64 {
		out := make([]uint64, len(runs))
		for i, run := range runs {
			out[i] = run.ID
		}
		return out
	}
	subset := func(got, of []lsm.RunRef) bool {
		return !slices.ContainsFunc(ids(got), func(id uint64) bool { return !slices.Contains(ids(of), id) })
	}
	return corpusScript{fmt.Sprintf("TestCrashMidBackgroundCompaction/budget%d", budget), func(cfg *Config) {
		cfg.CounterInterval, cfg.KeepVersions = 8, 1
	}, []step{puts(0, 150), flush, do(func(r *hostRun) error {
		before = r.s.Engine().Runs()
		r.fail(vfs.OpAll, "", budget)
		defer r.fault.Disarm()
		err := r.s.Compact(1)
		after = r.s.Engine().Runs()
		return err
	}), crashed, open.ok(), do(func(r *hostRun) error {
		if got := r.s.Engine().Runs(); !subset(got, before) && !subset(got, after) {
			return fmt.Errorf("recovered a mixed version: runs %v, before the compaction %v, after it %v", ids(got), ids(before), ids(after))
		}
		return nil
	}).ok(), reads(0, 150), do(func(r *hostRun) error {
		r.s.emptyRecordCache()
		return r.edit("*.sst", flipEvery(64, 1))
	}).ok(), reads(0, 150).fails(ErrAuthFailed, sstable.ErrBadTable)}}
}

func lostActiveLog(name string, freeze func(r *hostRun) error) corpusScript {
	return corpusScript{"TestRecoveryAfterFreezeLostItsActiveLog/" + name, forgeTune, []step{puts(0, 2), do(freeze).ok(), crashed,
		do(func(r *hostRun) error {
			if r.h.Exists("wal.log") {
				return errors.New("the active log survived the freeze")
			}
			return nil
		}).ok(), open.ok(), puts(2, 2), crashed, open.ok(), replayedPastSeal(2), reads(0, 4)}}
}

// recoveryFlushWritesOneRun: Open's flush of what it replayed is one new
// run at the front of L1, holding the replayed records alone — every run
// keeps its place and no byte is compacted, however much L1 held.
func recoveryFlushWritesOneRun() corpusScript {
	var (
		before []lsm.RunRef
		size   int64
	)
	return corpusScript{"TestRecoveryFlushWritesOneRun", func(cfg *Config) { forgeTune(cfg); cfg.LevelBase = 1 << 30 }, []step{
		puts(0, 2000), flush, compact(1), puts(0, 1000), flush, puts(500, 1000),
		do(func(r *hostRun) error { before, size = r.s.Engine().Runs(), r.s.Engine().DiskBytes(); return nil }),
		crashed, open.ok(), wait, do(func(r *hostRun) error {
			after, st := r.s.Engine().Runs(), r.s.Engine().Stats()
			if len(after) != len(before)+1 || after[0].Level != 1 || after[0].Index != 0 {
				return fmt.Errorf("runs %v after the reopen, want one new run at the front of L1 above %v", after, before)
			}
			for i, want := range before {
				if want.Level == 1 {
					want.Index++
				}
				if after[i+1] != want {
					return fmt.Errorf("run %v after the reopen, want %v", after[i+1], want)
				}
			}
			if grown := r.s.Engine().DiskBytes() - size; st.Flushes != 1 || st.Compactions != 0 || st.BytesCompacted != 0 || st.BytesFlushed != uint64(grown) {
				return fmt.Errorf("the reopen ran %d flushes and %d compactions of %d bytes and flushed %d as the tree grew by %d", st.Flushes, st.Compactions, st.BytesCompacted, st.BytesFlushed, grown)
			}
			return nil
		}).ok(), reads(0, 2000)}}
}

// forgedFilter rewrites the key filter stored in the first table of the
// middle of three runs. No forgery hashes to the filter sealed in the run's
// digest, so the reopened store gives that run no filter and every other
// run its own; the run is read through its proofs: every Get and GetAt, at
// every timestamp, answers the model, an absent key is proved absent in
// that run alone, and a forged witness pair there fails.
func forgedFilter(name string, forge func(own, other []byte) []byte) corpusScript {
	var (
		forged uint64
		first  map[uint64]string
	)
	return corpusScript{"TestAttackForgedFilter/" + name, oneRunTune, []step{
		puts(0, 3), flush, puts(3, 1), flush, puts(4, 1), puts(2, 1), batch(1, 1, 1, 1), flush,
		do(func(r *hostRun) error {
			runs := r.s.Engine().Runs()
			forged, first = runs[1].ID, firstTables(r.s)
			other, err := vfs.ReadFile(r.h, first[runs[0].ID])
			if err != nil {
				return err
			}
			own, err := vfs.ReadFile(r.h, first[forged])
			r.keep, _ = storedFilter(other, nil)
			if stored, _ := storedFilter(own, nil); len(stored) == 0 || bytes.Equal(stored, r.keep) {
				return fmt.Errorf("run %d stores a filter of %d bytes, equal to run %d's: %v", forged, len(stored), runs[0].ID, bytes.Equal(stored, r.keep))
			}
			return err
		}).ok(), closeS,
		do(func(r *hostRun) error {
			return r.h.Rewrite(first[forged], func(img []byte) []byte {
				_, out := storedFilter(img, func(own []byte) []byte { return forge(own, bytes.Clone(r.keep)) })
				return out
			})
		}).ok(), open.ok(),
		reads(0, 5).ok(), history(0, 5).ok(), get(0, 5, 0, true).ok(),
		do(func(r *hostRun) error {
			for id := range first {
				if has := runFilterOf(r.s, id) != nil; has != (id != forged) {
					return fmt.Errorf("run %d (forged: %v) has a filter: %v", id, id == forged, has)
				}
			}
			if res, probed, filtered, _, err := getCounts(r.t.(*testing.T), r.s, "absent"); err != nil || res.Found || probed != 1 || filtered != 2 {
				return fmt.Errorf("Get(absent) = %+v, %v, proving %d runs and filtering %d; want the forged run proved alone", res, err, probed, filtered)
			}
			r.s.getTamper = swapWitnesses(forged)
			defer func() { r.s.getTamper = nil }()
			if _, err := Get(r.s, []byte("absent")); !errors.Is(err, ErrAuthFailed) {
				return fmt.Errorf("forged pair in the unfiltered run %d: %v, want ErrAuthFailed", forged, err)
			}
			return nil
		}).ok()}}
}

// groupSectionTamper flips, one at a time, each byte of sectionRows in the
// block a Get of sectionTarget reads, and reopens before the Get: with
// fresh caches the Get starts cold; with shared ones it starts from the
// nodes the reads of every key outside the group cached (a warm walk stops
// at the first cached node, and nothing below it in the group is cached).
func groupSectionTamper() corpusScript {
	var (
		file   string
		rows   []sectionRow
		lo, hi int
	)
	script := []step{puts(0, 300), flush, do(func(r *hostRun) (err error) {
		file, rows, lo, hi, err = sectionRows(r, 300)
		return err
	}).ok(), do(func(r *hostRun) error { return errors.Join(reads(0, lo).fn(r), reads(hi, 300-hi).fn(r)) }).ok()}
	for i := 0; i < 6; i++ {
		script = append(script, do(func(r *hostRun) error {
			return r.h.Rewrite(file, func(b []byte) []byte { b[rows[i].off] ^= 0xFF; return b })
		}).ok(), closeS, open.ok(), do(func(r *hostRun) error {
			err := r.get(r.s, key(sectionTarget), record.MaxTs)
			if row := rows[i]; row.harmless != (err == nil) || !row.harmless && !errors.Is(err, ErrForged) && !errors.Is(err, ErrIncomplete) {
				return fmt.Errorf("%s: %v, want %s", row.name, err, map[bool]string{true: "the value", false: "ErrForged or ErrIncomplete"}[row.harmless])
			}
			return nil
		}).ok(), closeS, heal, open.ok())
	}
	return corpusScript{"TestAttackGroupSectionTamper", func(cfg *Config) {
		cfg.MemtableSize, cfg.BlockSize, cfg.TableFileSize, cfg.DisableCompaction = 1<<20, 0, 0, true
	}, script}
}

// indexLies rewrites the index of a one-table run: it points a block's keys
// at the next block (its index key moved down to its predecessor's), or
// drops a block. Every Get, absent-key Get and Scan answers the model or
// refuses, and with the block dropped some refuse.
func indexLies(name string, lie func([]fileIndexEntry) []fileIndexEntry, want ...error) corpusScript {
	all := reads(0, 300)
	if want != nil {
		all = all.fails(want...)
	}
	return corpusScript{"TestAttackIndexLies/" + name, func(cfg *Config) {
		cfg.MemtableSize, cfg.TableFileSize, cfg.DisableCompaction = 1<<20, 1<<20, true
	}, []step{puts(0, 300), flush, closeS,
		do(func(r *hostRun) error {
			return r.edit("*.sst", func(img []byte) []byte { return withIndex(img, lie(tableIndex(img))) })
		}).ok(), open.ok(), all, get(0, 300, 0, true), scan(0, 299, 0), scan(75, 75, 0), scan(150, 75, 0)}}
}

// partBounds rewrites, in a store whose next job runs in two parts, the
// index of level 2's table whose last key is the cut (cut 0) or of the table
// before it (cut -1). Raising the cut table's last key only moves the cut;
// lowering it leaves the table's last block running past its index entry,
// which the job's read refuses. A table before the cut that claims a key past
// it misleads the second part's seek into it, and on into the cut table from
// its start: the part streams records below its bound. A refused job leaves
// the version as it was.
func partBounds(name string, cut int, lie func([]fileIndexEntry) []fileIndexEntry, want ...error) corpusScript {
	compaction := do(func(r *hostRun) error {
		before := r.s.Engine().Runs()
		err := r.s.Compact(1)
		if after := r.s.Engine().Runs(); err != nil && !slices.Equal(after, before) {
			return fmt.Errorf("aborted compaction changed the version: %v → %v", before, after)
		}
		return err
	}).ok()
	all := reads(0, 1200).ok()
	if want != nil {
		// The lie stays: a Get may seek into the wrong table as the job did.
		compaction, all = compaction.fails(want...), reads(0, 1200)
	}
	return corpusScript{"TestAttackPartBoundsMetadata/" + name, func(cfg *Config) {
		cfg.MemtableSize, cfg.LevelBase, cfg.Workers = 1<<20, 1<<30, lsm.NewWorkerPool(2)
	}, []step{puts(0, 1200), flush, compact(1), puts(1, 150), flush, closeS,
		do(func(r *hostRun) error {
			_, levels := manifestRuns(r.t.(*testing.T), r.h)
			l1, l2 := levels[1][0], levels[2][0]
			if len(l2) < 4 || len(l2) <= len(l1) {
				return fmt.Errorf("set-up: level 2 has %d tables, level 1 %d; want level 2 the larger, of several", len(l2), len(l1))
			}
			file := l2[len(l2)/2-1+cut]["file"].(float64)
			return r.h.Rewrite(fmt.Sprintf("%06d.sst", int(file)), func(img []byte) []byte { return withIndex(img, lie(tableIndex(img))) })
		}).ok(), open.ok(), compaction, all}}
}

// lastKey sets the last index entry's key and timestamp to what to returns
// for the entries.
func lastKey(to func(e []fileIndexEntry) ([]byte, uint64)) func([]fileIndexEntry) []fileIndexEntry {
	return func(e []fileIndexEntry) []fileIndexEntry {
		e[len(e)-1].key, e[len(e)-1].ts = to(e)
		return e
	}
}

// plantedManifest plants a MANIFEST in the store's directory, which holds
// none: the store's version is sealed with its trusted state, and Open reads
// no host file for it. form makes the MANIFEST from the versions sealed
// before (older) and after (newer) the script's last two flushes, which
// leave two runs at level 1 over one at level 2. Open must ignore the file
// and read every write back, and a compaction after it writes its output
// past every live table, whatever the planted file says.
func plantedManifest(name string, form func(older, newer []byte) ([]byte, error)) corpusScript {
	var older, newer []byte
	sealedVersion := func(v *[]byte) step {
		return do(func(r *hostRun) error { *v = sealedState(r.t.(*testing.T), r.s, r.h).Version; return nil }).ok()
	}
	plant := do(func(r *hostRun) error {
		m, err := form(older, newer)
		if err != nil {
			return err
		}
		return r.h.Rewrite("MANIFEST", func([]byte) []byte { return m })
	}).ok()
	plant.host = true
	return corpusScript{name, func(cfg *Config) { cfg.MemtableSize, cfg.LevelBase = 1<<20, 1<<30 },
		[]step{puts(0, 300), flush, compact(1), sealedVersion(&older), puts(0, 300), flush, puts(150, 300), flush,
			sealedVersion(&newer), closeS, plant, open.ok(), reads(0, 450).ok(), scan(0, 449, 0).ok(),
			compact(1).ok(), reads(0, 450).ok(), scan(0, 449, 0).ok()}}
}

// reordered plants the newer version with its runs reordered by swap.
func reordered(swap func(levels [][]json.RawMessage)) func(older, newer []byte) ([]byte, error) {
	return func(_, newer []byte) ([]byte, error) {
		var v map[string]json.RawMessage
		var levels [][]json.RawMessage
		if err := json.Unmarshal(newer, &v); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(v["levels"], &levels); err != nil {
			return nil, err
		}
		if len(levels) < 3 || len(levels[1]) != 2 || len(levels[2]) != 1 {
			return nil, fmt.Errorf("set-up: levels %s, want two runs at level 1 over one at level 2", v["levels"])
		}
		swap(levels)
		v["levels"], _ = json.Marshal(levels)
		return json.Marshal(v)
	}
}

// runCorpus runs, with caches cold and warm, the corpus scripts t owns: a
// script named Test... belongs to that test (its subtests after a slash),
// and TestHostileHostCorpus runs the others.
func runCorpus(t *testing.T) {
	n := 0
	for _, cs := range hostileCorpus {
		run := func(t *testing.T) {
			for _, warm := range []bool{false, true} {
				newHostRun(t, warm, cs.tune).run(cs.script)
			}
		}
		owner, sub, _ := strings.Cut(cs.name, "/")
		if !strings.HasPrefix(owner, "Test") {
			owner = "TestHostileHostCorpus"
			sub = cs.name
		}
		if owner != t.Name() {
			continue
		}
		if n++; sub == "" {
			run(t)
		} else {
			t.Run(sub, run)
		}
	}
	if n == 0 {
		t.Fatalf("no corpus script belongs to %s", t.Name())
	}
}

// TestHostileHostCorpus runs the scripts the fuzzer found, and those of
// decode refusals; the tests below run the scripts that took over their
// bodies.
func TestHostileHostCorpus(t *testing.T) { runCorpus(t) }

func TestAttackCorruptSSTableDetected(t *testing.T)          { runCorpus(t) }
func TestAttackRollbackDetected(t *testing.T)                { runCorpus(t) }
func TestAttackCompactionInputTamperDetected(t *testing.T)   { runCorpus(t) }
func TestAttackTrustedStateDeletionDetected(t *testing.T)    { runCorpus(t) }
func TestAttackWALTamperDetected(t *testing.T)               { runCorpus(t) }
func TestAttackForgedWALSuffix(t *testing.T)                 { runCorpus(t) }
func TestAttackFlippedTagPastSeal(t *testing.T)              { runCorpus(t) }
func TestAttackOlderGenerationLog(t *testing.T)              { runCorpus(t) }
func TestAttackOtherShardsLog(t *testing.T)                  { runCorpus(t) }
func TestAttackTornGroupOfEarlierIncarnation(t *testing.T)   { runCorpus(t) }
func TestAttackDroppedFrozenLog(t *testing.T)                { runCorpus(t) }
func TestAttackForgedFilter(t *testing.T)                    { runCorpus(t) }
func TestAttackGroupSectionTamper(t *testing.T)              { runCorpus(t) }
func TestAttackIndexLies(t *testing.T)                       { runCorpus(t) }
func TestAttackPartBoundsMetadata(t *testing.T)              { runCorpus(t) }
func TestAttackTamperedOnlyVersionInCompaction(t *testing.T) { runCorpus(t) }
func TestPutGetVerified(t *testing.T)                        { runCorpus(t) }
func TestHistoricalGetVerified(t *testing.T)                 { runCorpus(t) }
func TestDeleteVerified(t *testing.T)                        { runCorpus(t) }
func TestScanVerified(t *testing.T)                          { runCorpus(t) }
func TestGroupCommitCrashRecoveryMidGroup(t *testing.T)      { runCorpus(t) }
func TestRecoveryAfterMidFlushCrash(t *testing.T)            { runCorpus(t) }
func TestIOFaultDuringWritesSurfacesCleanly(t *testing.T)    { runCorpus(t) }
func TestCrashMidBackgroundCompaction(t *testing.T)          { runCorpus(t) }
func TestRecoveryAcrossFlushGenerations(t *testing.T)        { runCorpus(t) }
func TestCloseReportsAFailedSeal(t *testing.T)               { runCorpus(t) }
func TestRecoveryAfterFreezeLostItsActiveLog(t *testing.T)   { runCorpus(t) }
func TestParentFormatLogIsRefused(t *testing.T)              { runCorpus(t) }
func TestRecoveryFlushWritesOneRun(t *testing.T)             { runCorpus(t) }
func TestCleanRecoveryVerifies(t *testing.T)                 { runCorpus(t) }
func TestUncleanRecoveryCountsSuffixPastSeal(t *testing.T)   { runCorpus(t) }
func TestParentManifestIsIgnored(t *testing.T)               { runCorpus(t) }
func TestAttackManifestReordersRuns(t *testing.T)            { runCorpus(t) }
