// Tamper demo: a malicious host corrupts, forges and rolls back the
// untrusted storage under an eLSM store, and every attack is detected by
// the enclave-side verification (the threat model of §3.3).
package main

import (
	"fmt"
	"log"

	"elsm"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

func main() {
	// The MemFS plays the role of the untrusted host's disk: we get to
	// corrupt it at will, exactly like the adversary of §3.3.
	fs := vfs.NewMem()
	platform, err := sgx.NewPlatform()
	if err != nil {
		log.Fatal(err)
	}
	counter := sgx.NewMonotonicCounter() // the trusted monotonic counter (§5.6.1)

	opts := elsm.Options{
		FS:            fs,
		Platform:      platform,
		ShardCounters: []*sgx.MonotonicCounter{counter},
	}
	store, err := elsm.Open(opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("## honest phase: writing 2000 records")
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("account%05d", i)
		if _, err := store.Put([]byte(key), []byte(fmt.Sprintf("balance=%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	res, err := store.Get([]byte("account01000"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   verified read: account01000 -> %s\n", res.Value)
	// Push every record into untrusted SSTables and let background
	// compaction settle, so the tables listed below are the live ones.
	settle(store)

	// --- Attack 1: corrupt SSTable bytes on the untrusted disk.
	fmt.Println("## attack 1: host flips bytes inside the SSTables")
	names, err := fs.List("0")
	if err != nil {
		log.Fatal(err)
	}
	if len(names) == 0 {
		log.Fatal("no SSTables on disk to corrupt")
	}
	for _, name := range names {
		f, err := fs.Open(name)
		if err != nil {
			log.Fatal(err)
		}
		for off := int64(0); off < f.Size(); off += 29 {
			if err := fs.Corrupt(name, off); err != nil {
				log.Fatal(err)
			}
		}
		f.Close()
	}
	detected := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("account%05d", i)
		res, err := store.Get([]byte(key))
		switch {
		case err != nil:
			detected++
		case string(res.Value) != fmt.Sprintf("balance=%d", i):
			log.Fatalf("silent wrong answer: %s -> %q", key, res.Value)
		}
	}
	if detected == 0 {
		log.Fatal("corruption NOT detected")
	}
	fmt.Printf("   %d/2000 reads failed verification — no silent wrong answers\n", detected)
	store.Close()

	// --- Attack 2: rollback. The host snapshots an old (authenticated!)
	// state, lets the enclave write more, then restores the snapshot.
	fmt.Println("## attack 2: rollback to an old authenticated state")
	fs2 := vfs.NewMem()
	opts2 := opts
	opts2.FS = fs2
	opts2.Platform = platform
	opts2.ShardCounters = []*sgx.MonotonicCounter{sgx.NewMonotonicCounter()}
	store2, err := elsm.Open(opts2)
	if err != nil {
		log.Fatal(err)
	}
	// Each phase ends in authenticated SSTables and a sealed version, so the
	// snapshot is a complete old state, not just a write-ahead log.
	writeAll(store2, "v1")
	settle(store2)
	snapshot := fs2.Clone() // attacker snapshots here
	writeAll(store2, "v2")
	settle(store2)
	if err := store2.Close(); err != nil {
		log.Fatal(err)
	}
	fs2.Restore(snapshot) // attacker rolls the disk back

	if _, err := elsm.Open(opts2); err != nil && elsm.IsAuthFailure(err) {
		fmt.Printf("   rollback detected at recovery: %v\n", err)
	} else {
		log.Fatalf("rollback NOT detected (err=%v)", err)
	}

	fmt.Println("## all attacks detected")
}

// settle flushes the memtable into SSTables and waits for background
// compaction, so the files on disk are the store's live state.
func settle(store *elsm.Store) {
	if err := store.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := store.WaitMaintenance(); err != nil {
		log.Fatal(err)
	}
}

// writeAll sets keys k0000..k0499 to val.
func writeAll(store *elsm.Store, val string) {
	for i := 0; i < 500; i++ {
		if _, err := store.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(val)); err != nil {
			log.Fatal(err)
		}
	}
}
