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
		// Small limits so data reaches untrusted SSTables quickly.
		MemtableSize:  4 << 10,
		TableFileSize: 4 << 10,
		LevelBase:     16 << 10,
		BlockSize:     512,
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

	// --- Attack 1: corrupt SSTable bytes on the untrusted disk.
	fmt.Println("## attack 1: host flips bytes inside the SSTables")
	names, _ := fs.List("0")
	for _, name := range names {
		f, _ := fs.Open(name)
		for off := int64(0); off < f.Size(); off += 29 {
			fs.Corrupt(name, off)
		}
	}
	detected := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("account%05d", i)
		if _, err := store.Get([]byte(key)); err != nil {
			detected++
		}
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
	for i := 0; i < 500; i++ {
		store2.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v1"))
	}
	snapshot := fs2.Clone() // attacker snapshots here
	for i := 0; i < 500; i++ {
		store2.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v2"))
	}
	store2.Close()
	fs2.Restore(snapshot) // attacker rolls the disk back

	if _, err := elsm.Open(opts2); err != nil && elsm.IsAuthFailure(err) {
		fmt.Printf("   rollback detected at recovery: %v\n", err)
	} else {
		log.Fatalf("rollback NOT detected (err=%v)", err)
	}

	fmt.Println("## all attacks detected")
}
