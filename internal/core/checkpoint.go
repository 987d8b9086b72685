// Checkpoint export/import and replicated-group application — the trusted
// half of the replication subsystem (internal/repl carries the transport).
//
// A checkpoint is a portable, attested serialization of one consistent cut
// of a leader: the pinned version's SSTable files and manifest, the digest
// frontier covering them, and the live WAL tail (the records between the
// run frontier and the applied frontier) together with its chain digest.
// Nothing in the stream is trusted as carried: the header travels under an
// enclave attestation report, and the importer re-derives every run's
// Merkle digest from the shipped bytes and re-hashes the WAL chain before
// sealing the state as its own — so a follower bootstraps over an untrusted
// transport with exactly the §5.6 trust base (sealed digests + monotonic
// counter), never trusting the wire.
package core

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"elsm/internal/hashutil"
	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
	"elsm/internal/wal"
)

// checkpointMagic heads every checkpoint stream.
const checkpointMagic = "ELSMCKP1"

// maxCheckpointHeader bounds the header a reader will buffer.
const maxCheckpointHeader = 64 << 20

// ErrCheckpointCorrupt reports a structurally invalid or tampered
// checkpoint stream. It wraps ErrAuthFailed: a corrupt checkpoint is
// indistinguishable from a forged one.
var ErrCheckpointCorrupt = fmt.Errorf("%w: checkpoint rejected", ErrAuthFailed)

// checkpointFile is one raw file section of the stream, in order. SHA256
// binds the section's raw bytes to the attested header: the semantic
// checks (Merkle rebuild, WAL chain replay) cover record content but not
// every container byte — embedded proofs and framing are derived data the
// digests cannot cover — so without it a flip there would only surface at
// the follower's first read of the damaged region.
type checkpointFile struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	SHA256 []byte `json:"sha256"`
}

// checkpointHeader is the attested description of the stream: the trusted
// frontier the importer verifies the raw bytes against.
type checkpointHeader struct {
	// Shard and Shards bind the checkpoint to one partition of one
	// topology; the attestation report covers them, so an untrusted
	// transport cannot serve shard 0's (individually valid) checkpoint to
	// a follower bootstrapping shard 1.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Format is stateFormat, of the attested run roots; a checkpoint of an
	// earlier build carries none.
	Format int `json:"format"`
	// Epoch is the leader's replication epoch at capture time. The
	// follower adopts it as its own sealed epoch, so frames shipped by a
	// leader demoted before this checkpoint was taken (an older epoch) are
	// fenced out at the first tailed frame.
	Epoch uint64 `json:"epoch,omitempty"`
	// LastTs is the applied frontier T of the captured cut; RunFrontier is
	// F = T − len(WAL tail), the highest timestamp covered by the runs.
	LastTs      uint64 `json:"lastTs"`
	RunFrontier uint64 `json:"runFrontier"`
	// WALAppends counts the tail records; WALDigest is their hash chain
	// from zero (LinkWAL), which the importer recomputes from the shipped
	// bytes: their tags are under the leader's key, which it does not hold.
	WALAppends uint64               `json:"walAppends"`
	WALDigest  hashutil.Hash        `json:"walDigest"`
	Digests    map[uint64]runDigest `json:"digests"`
	Manifest   []byte               `json:"manifest"`
	Tables     []checkpointFile     `json:"tables"`
	WALFiles   []checkpointFile     `json:"walFiles"`
}

// AttestPayload mints an attestation report binding SHA-256(payload) to
// this store's enclave measurement — the stand-in for local attestation of
// replication messages (checkpoint headers, shipped group frames).
func (c *Store) AttestPayload(payload []byte) sgx.Report {
	return c.platform.CreateReport(c.measurement, payloadData(payload))
}

// VerifyPeerPayload checks a report minted by a peer enclave on a platform
// sharing this store's root of trust.
func (c *Store) VerifyPeerPayload(rep sgx.Report, payload []byte) error {
	return verifyPeerPayload(c.platform, c.measurement, rep, payload)
}

// payloadData is the report data that binds a payload: its SHA-256, zero
// padded.
func payloadData(payload []byte) (data [64]byte) {
	sum := sha256.Sum256(payload)
	copy(data[:], sum[:])
	return data
}

// verifyPeerPayload checks MAC, measurement equality (same enclave code)
// and payload binding; checkpoint import calls it before a Store exists.
func verifyPeerPayload(platform *sgx.Platform, m sgx.Measurement, rep sgx.Report, payload []byte) error {
	if err := platform.VerifyReport(rep); err != nil {
		return fmt.Errorf("%w: %v", ErrAuthFailed, err)
	}
	if rep.Measurement != m {
		return fmt.Errorf("%w: peer measurement mismatch", ErrAuthFailed)
	}
	if rep.Data != payloadData(payload) {
		return fmt.Errorf("%w: report payload mismatch", ErrAuthFailed)
	}
	return nil
}

// ApplyReplicated applies one authenticated shipped commit group through
// the full local pipeline (WAL tag, append, fsync, seal cadence).
// The transport layer has already verified the group's frame; the engine
// still enforces timestamp contiguity with the applied frontier.
func (c *Store) ApplyReplicated(recs []record.Record) error {
	var err error
	c.enclave.ECall(func() { err = c.engine.ApplyReplicated(recs) })
	return err
}

// SealState forces a commitState seal — the follower's durability hook
// after applying shipped groups, bounding what a restart must re-ship.
func (c *Store) SealState() {
	c.enclave.ECall(func() { _ = c.commitState() })
}

// ---------------------------------------------------------------------------
// Export

// ExportCheckpoint serializes a consistent cut of the store into w: the
// attested header, then the pinned SSTable files, then the live WAL tail,
// all raw. shard and shards name this store's partition within the
// leader's topology (0, 1 for an unsharded store) and travel attested in
// the header. The capture window quiesces the commit pipeline; streaming
// happens outside all engine locks against pinned files.
func (c *Store) ExportCheckpoint(w io.Writer, shard, shards int) error {
	if shards <= 0 {
		shards = 1
	}
	var digs map[uint64]runDigest
	var ch walChain
	var epoch uint64
	src, err := c.engine.CaptureCheckpoint(func() error {
		c.mu.Lock()
		// The pipeline is drained: the durable frontier IS the tip.
		digs = c.snap.Load().digests
		ch = walChain{key: c.chain.key, seek: []walSeek{{base: c.chain.base, frontier: c.chain.durable}}}
		epoch = c.epoch.Load()
		c.mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	defer src.Release()

	// Re-derive the tail extent from the captured bytes: every copied group
	// must carry its tag, at the position it is counted at, up to the
	// durable frontier (anything else means the untrusted log was tampered
	// with under us — fail stop, do not ship), and the record count fixes
	// the run frontier F. The header attests the tail's chain from zero.
	lastTs := src.Snap.Ts()
	chain := hashutil.Zero
	var tail uint64
	wantTs := uint64(0) // first record fixes the base
	for i := range src.WALData {
		info, rerr := wal.Replay(src.WALData[i], func(group []record.Record, tag *wal.Tag) error {
			for _, rec := range group {
				if wantTs != 0 && rec.Ts != wantTs {
					return fmt.Errorf("%w: wal tail not contiguous at ts %d", ErrCheckpointCorrupt, rec.Ts)
				}
				wantTs = rec.Ts + 1
			}
			ch.replayed(group, tag)
			chain = LinkWAL(chain, group)
			return nil
		})
		if rerr != nil {
			return fmt.Errorf("checkpoint export: wal %s: %w", src.WALNames[i], rerr)
		}
		if info.CommittedSize != int64(len(src.WALData[i])) {
			return fmt.Errorf("%w: wal %s torn in quiesced capture", ErrCheckpointCorrupt, src.WALNames[i])
		}
		tail += uint64(info.Records)
	}
	if _, err := ch.verdict(ch.seek[0]); err != nil {
		return fmt.Errorf("%w: wal tail: %w", ErrCheckpointCorrupt, err)
	}
	if tail > 0 && wantTs-1 != lastTs {
		return fmt.Errorf("%w: wal tail ends at ts %d, applied frontier is %d",
			ErrCheckpointCorrupt, wantTs-1, lastTs)
	}
	frontier := lastTs - tail

	manifest, err := src.Snap.EncodeManifest(frontier)
	if err != nil {
		return fmt.Errorf("checkpoint export: %w", err)
	}
	hdr := checkpointHeader{
		Shard:       shard,
		Shards:      shards,
		Format:      stateFormat,
		Epoch:       epoch,
		LastTs:      lastTs,
		RunFrontier: frontier,
		WALAppends:  tail,
		WALDigest:   chain,
		Digests:     digs,
		Manifest:    manifest,
	}
	for _, run := range src.Snap.CheckpointRuns() {
		for _, tbl := range run.Tables {
			// Hash the pinned (immutable) file now; the write loop below
			// re-reads it, so large stores never hold every table in memory.
			data, rerr := c.readFile(tbl.Name)
			if rerr != nil {
				return fmt.Errorf("checkpoint export: table %s: %w", tbl.Name, rerr)
			}
			sum := sha256.Sum256(data)
			hdr.Tables = append(hdr.Tables, checkpointFile{Name: tbl.Name, Size: tbl.Size, SHA256: sum[:]})
		}
	}
	for i := range src.WALNames {
		sum := sha256.Sum256(src.WALData[i])
		hdr.WALFiles = append(hdr.WALFiles, checkpointFile{
			Name: src.WALNames[i], Size: int64(len(src.WALData[i])), SHA256: sum[:],
		})
	}
	hdrBytes, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("checkpoint export: header marshal: %w", err)
	}
	rep := c.AttestPayload(hdrBytes)

	if _, err := io.WriteString(w, checkpointMagic); err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(hdrBytes)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := w.Write(hdrBytes); err != nil {
		return err
	}
	if err := sgx.WriteReport(w, rep); err != nil {
		return err
	}
	for _, tbl := range hdr.Tables {
		data, rerr := c.readFile(tbl.Name)
		if rerr != nil {
			return fmt.Errorf("checkpoint export: table %s: %w", tbl.Name, rerr)
		}
		if int64(len(data)) != tbl.Size {
			return fmt.Errorf("%w: table %s is %d bytes, manifest says %d",
				ErrCheckpointCorrupt, tbl.Name, len(data), tbl.Size)
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	for i := range src.WALData {
		if _, err := w.Write(src.WALData[i]); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Import

// RestoreConfig parameterizes a checkpoint import.
type RestoreConfig struct {
	// FS is the follower's (empty) data directory.
	FS vfs.FS
	// Platform is the shared root of trust: it must verify reports minted
	// by the leader's enclave (sgx.NewPlatformFromSecret on both sides, or
	// the same instance in process) and is what the follower seals under.
	Platform *sgx.Platform
	// Counter is the follower's own monotonic counter; the imported state
	// is sealed against it.
	Counter *sgx.MonotonicCounter
	// Enclave hosts the verification work; nil uses a fresh one.
	Enclave *sgx.Enclave
	// Shard and Shards are the partition identity this restore expects
	// (Shards 0 means 1). The attested header must match exactly: a
	// checkpoint exported for another shard — or by a leader with a
	// different partition count — is rejected, so a transport cannot swap
	// shard streams and opts mismatched to the leader's topology surface
	// as an error instead of an incomplete replica.
	Shard  int
	Shards int
}

// restoreApplyChunk bounds the records one imported WAL group carries.
const restoreApplyChunk = 4096

// NeedsBootstrap reports whether fs lacks sealed trusted state — the
// signal that a follower directory must be (re-)restored from a
// checkpoint. A crash mid-restore leaves no TRUSTED.bin (it is written
// last), so an interrupted import also reports true.
func NeedsBootstrap(fs vfs.FS) bool { return !fs.Exists(trustedStateName) }

// WipeFS removes every file under fs — re-bootstrap hygiene before
// restoring over a partial or stale follower directory.
func WipeFS(fs vfs.FS) error {
	names, err := fs.List("")
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := fs.Remove(name); err != nil {
			return err
		}
	}
	return nil
}

// RestoreCheckpoint imports a checkpoint stream into cfg.FS, verifying
// every byte against the attested header before sealing the state as the
// follower's own:
//
//  1. the header's attestation report is checked (shared platform, same
//     enclave measurement);
//  2. SSTable files and the manifest are installed and every run's Merkle
//     digest is REBUILT from the installed bytes and compared against the
//     attested frontier — a tampered or truncated run fails the import;
//  3. the shipped WAL tail's hash chain is recomputed from zero and
//     compared against the attested one, then the records are re-applied
//     through the follower's own pipeline, into its own WAL, each group
//     tagged from position zero under the key of a seed the follower
//     draws and seals in step 4 (tailTagger);
//  4. only then is the trusted state sealed under the follower's platform,
//     bound to ITS monotonic counter, and written. TRUSTED.bin is written
//     last: a crash anywhere before leaves a directory that
//     NeedsBootstrap reports as unseeded, so restart re-restores from
//     scratch instead of trusting a torn import.
func RestoreCheckpoint(r io.Reader, cfg RestoreConfig) error {
	if cfg.FS == nil || cfg.Platform == nil || cfg.Counter == nil {
		return errors.New("core: restore requires FS, Platform and Counter")
	}
	enclave := cfg.Enclave
	if enclave == nil {
		enclave = sgx.New(sgx.Params{})
	}
	measurement := sgx.Measure([]byte("elsm-p2"))

	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("%w: short magic: %v", ErrCheckpointCorrupt, err)
	}
	if string(magic[:]) != checkpointMagic {
		return fmt.Errorf("%w: bad magic", ErrCheckpointCorrupt)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return fmt.Errorf("%w: short header length: %v", ErrCheckpointCorrupt, err)
	}
	hdrLen := binary.BigEndian.Uint32(lenBuf[:])
	if hdrLen == 0 || hdrLen > maxCheckpointHeader {
		return fmt.Errorf("%w: implausible header length %d", ErrCheckpointCorrupt, hdrLen)
	}
	hdrBytes := make([]byte, hdrLen)
	if _, err := io.ReadFull(r, hdrBytes); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrCheckpointCorrupt, err)
	}
	rep, err := sgx.ReadReport(r)
	if err != nil {
		return fmt.Errorf("%w: short report: %v", ErrCheckpointCorrupt, err)
	}
	if err := verifyPeerPayload(cfg.Platform, measurement, rep, hdrBytes); err != nil {
		return err
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
		return fmt.Errorf("%w: header decode: %v", ErrCheckpointCorrupt, err)
	}
	if err := checkDigestFormat(hdr.Format, hdr.Digests); err != nil {
		return err
	}
	wantShards := cfg.Shards
	if wantShards <= 0 {
		wantShards = 1
	}
	hdrShards := hdr.Shards
	if hdrShards <= 0 {
		hdrShards = 1
	}
	if hdr.Shard != cfg.Shard || hdrShards != wantShards {
		return fmt.Errorf("%w: checkpoint is for shard %d of %d, restoring shard %d of %d",
			ErrCheckpointCorrupt, hdr.Shard, hdrShards, cfg.Shard, wantShards)
	}
	if hdr.RunFrontier+hdr.WALAppends != hdr.LastTs {
		return fmt.Errorf("%w: inconsistent frontiers", ErrCheckpointCorrupt)
	}

	// Install the raw files. Their content is untrusted until step 2's
	// digest rebuild passes.
	for _, tbl := range hdr.Tables {
		if !safeCheckpointName(tbl.Name) {
			return fmt.Errorf("%w: unsafe file name %q", ErrCheckpointCorrupt, tbl.Name)
		}
		if err := copySection(r, cfg.FS, tbl.Name, tbl.Size, tbl.SHA256); err != nil {
			return err
		}
	}
	if err := writeFile(cfg.FS, "MANIFEST", hdr.Manifest); err != nil {
		return err
	}

	// Buffer and pre-verify the WAL tail before touching the engine: the
	// chain from zero must reproduce the attested durable digest exactly,
	// and the records must tile (RunFrontier, LastTs] contiguously.
	var tailRecs []record.Record
	chain := hashutil.Zero
	wantTs := hdr.RunFrontier + 1
	for _, wf := range hdr.WALFiles {
		if wf.Size < 0 || wf.Size > maxCheckpointHeader {
			return fmt.Errorf("%w: implausible wal section size %d", ErrCheckpointCorrupt, wf.Size)
		}
		data := make([]byte, wf.Size)
		if _, err := io.ReadFull(r, data); err != nil {
			return fmt.Errorf("%w: short wal section: %v", ErrCheckpointCorrupt, err)
		}
		if err := checkSectionSHA(wf.Name, data, wf.SHA256); err != nil {
			return err
		}
		info, rerr := wal.Replay(data, func(group []record.Record, _ *wal.Tag) error {
			for _, rec := range group {
				if rec.Ts != wantTs {
					return fmt.Errorf("%w: wal tail not contiguous at ts %d (want %d)",
						ErrCheckpointCorrupt, rec.Ts, wantTs)
				}
				wantTs++
			}
			chain = LinkWAL(chain, group)
			tailRecs = append(tailRecs, group...)
			return nil
		})
		if rerr != nil {
			return fmt.Errorf("%w: wal section %s: %v", ErrCheckpointCorrupt, wf.Name, rerr)
		}
		if info.CommittedSize != int64(len(data)) || info.TornRecords > 0 {
			return fmt.Errorf("%w: wal section %s torn", ErrCheckpointCorrupt, wf.Name)
		}
	}
	if chain != hdr.WALDigest {
		return fmt.Errorf("%w: wal chain mismatch", ErrCheckpointCorrupt)
	}
	if uint64(len(tailRecs)) != hdr.WALAppends {
		return fmt.Errorf("%w: wal tail carries %d records, header says %d",
			ErrCheckpointCorrupt, len(tailRecs), hdr.WALAppends)
	}

	// Open the installed version raw (no authenticated compaction: digests
	// are checked here, against the attested header; the engine's one
	// listener tags the tail) and rebuild every run's Merkle digest from the
	// shipped bytes. The oversized memtable and disabled compaction keep the
	// engine from reshaping the version underneath the verification pass.
	memCap := 1 << 20
	for _, wf := range hdr.WALFiles {
		memCap += int(wf.Size) * 2
	}
	sealKey := cfg.Platform.SealingKey(measurement)
	seed := make([]byte, 32)
	if _, err := rand.Read(seed); err != nil {
		return fmt.Errorf("core: wal key seed: %w", err)
	}
	tagger := &tailTagger{}
	tagger.chain.keyed(sealKey, seed)
	eng, err := lsm.Open(lsm.Options{
		FS:                cfg.FS,
		Enclave:           enclave,
		Listener:          tagger,
		Geometry:          lsm.Geometry{MemtableSize: memCap},
		DisableCompaction: true,
	})
	if err != nil {
		return fmt.Errorf("%w: restored manifest rejected: %v", ErrCheckpointCorrupt, err)
	}
	snap := eng.AcquireSnapshot()
	err = verifyRestoredRuns(enclave, snap, hdr.Digests)
	snap.Release()
	// Re-apply the verified tail through the follower's own pipeline, each
	// group tagged under the follower's new key.
	for off := 0; err == nil && off < len(tailRecs); off += restoreApplyChunk {
		if err = eng.ApplyReplicated(tailRecs[off:min(off+restoreApplyChunk, len(tailRecs))]); err != nil {
			err = fmt.Errorf("checkpoint import: apply tail: %w", err)
		}
	}
	if cerr := eng.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("checkpoint import: close: %w", cerr)
	}
	if err != nil {
		return err
	}

	// Seal the imported frontier as the follower's own trusted state,
	// bound to ITS counter — written last, after every verification. The
	// leader's attested epoch is adopted verbatim: it is the fencing token
	// every subsequently tailed frame must match.
	st := trustedState{
		Format:     stateFormat,
		Digests:    hdr.Digests,
		WALAppends: hdr.WALAppends,
		LastTs:     hdr.LastTs,
		Epoch:      hdr.Epoch,
		WALSeed:    seed,
	}
	if err := writeTrustedState(cfg.FS, enclave, sealKey, cfg.Counter, st); err != nil {
		return fmt.Errorf("checkpoint import: %w", err)
	}
	return nil
}

// verifyRestoredRuns holds the runs of snap, and the order a read visits
// them in, to the attested forest (checkRunOrder), and rebuilds the digest
// of every run from its bytes.
func verifyRestoredRuns(enclave *sgx.Enclave, snap *lsm.Snapshot, digests map[uint64]runDigest) error {
	refs := snap.Runs()
	if len(refs) != len(digests) {
		return fmt.Errorf("%w: %d runs installed, %d attested", ErrCheckpointCorrupt, len(refs), len(digests))
	}
	if err := checkRunOrder(refs, digests); err != nil {
		return fmt.Errorf("%w: %w", ErrCheckpointCorrupt, err)
	}
	for i, ref := range refs {
		want := digests[ref.ID]
		var h *compactionHasher
		var err error
		enclave.ECall(func() { h, err = replayRun(snap, i, ref.ID, 0, nil, nil) })
		if err != nil {
			return fmt.Errorf("%w: run %d stream: %v", ErrCheckpointCorrupt, ref.ID, err)
		}
		ok := h.inputs[0].matches(want)
		h.release()
		if !ok {
			return fmt.Errorf("%w: run %d digest mismatch (shipped bytes tampered)", ErrCheckpointCorrupt, ref.ID)
		}
	}
	return nil
}

// tailTagger is the listener of the engine a checkpoint restore re-applies
// the shipped tail through: it tags each group, from position zero, under
// the key of the seed the restore seals.
type tailTagger struct {
	lsm.NopListener
	chain walChain
}

// OnGroupAppended implements lsm.EventListener.
func (t *tailTagger) OnGroupAppended(recs []record.Record, tag *wal.Tag, _ bool) {
	*tag = t.chain.appended(recs)
}

// safeCheckpointName admits only flat table-file names: no path
// separators, no reserved engine files.
func safeCheckpointName(name string) bool {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return false
	}
	switch {
	case name == "MANIFEST", name == "MANIFEST.tmp", name == trustedStateName:
		return false
	case strings.HasPrefix(name, "wal"):
		return false
	}
	return strings.HasSuffix(name, ".sst")
}

// copySection streams size bytes from r into a new file, rejecting any
// section whose raw bytes do not match the attested content hash.
func copySection(r io.Reader, fs vfs.FS, name string, size int64, wantSHA []byte) error {
	if size < 0 {
		return fmt.Errorf("%w: negative section size", ErrCheckpointCorrupt)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(r, data); err != nil {
		return fmt.Errorf("%w: short section %s: %v", ErrCheckpointCorrupt, name, err)
	}
	if err := checkSectionSHA(name, data, wantSHA); err != nil {
		return err
	}
	return writeFile(fs, name, data)
}

// checkSectionSHA compares a section's raw bytes against the attested hash
// from the header. A missing hash is rejected too: a transport must not be
// able to strip the binding.
func checkSectionSHA(name string, data, wantSHA []byte) error {
	if len(wantSHA) != sha256.Size {
		return fmt.Errorf("%w: section %s lacks an attested content hash", ErrCheckpointCorrupt, name)
	}
	sum := sha256.Sum256(data)
	if !bytes.Equal(sum[:], wantSHA) {
		return fmt.Errorf("%w: section %s content hash mismatch", ErrCheckpointCorrupt, name)
	}
	return nil
}

// writeFile installs one imported file (vfs.WriteFile).
func writeFile(fs vfs.FS, name string, data []byte) error {
	if err := vfs.WriteFile(fs, name, data); err != nil {
		return fmt.Errorf("checkpoint import: write %s: %w", name, err)
	}
	return nil
}
