package core

import (
	"strings"
	"testing"

	"elsm/internal/crypto"
	"elsm/internal/lsm"
	"elsm/internal/vfs"
)

// TestOpenP1RefusesMmap: eLSM-P1 decrypts every block inside the enclave
// (§6.3), so it has no mmap read path. OpenP1 refuses MmapReads, and so does
// the engine below it for any block transform.
func TestOpenP1RefusesMmap(t *testing.T) {
	s, err := OpenP1(Config{MmapReads: true})
	if err == nil {
		s.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "cannot mmap") {
		t.Fatalf("OpenP1 with MmapReads = %v, want a refusal", err)
	}
	mk, err := crypto.NewMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	opts := Config{FS: vfs.NewMem(), MmapReads: true}.engineOptions()
	opts.Transform = &blockSealer{bc: crypto.NewBlock(mk)}
	e, err := lsm.Open(opts)
	if err == nil {
		e.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("engine with MmapReads and a block transform = %v, want a refusal", err)
	}
}
