package ctlog

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"elsm"
	"elsm/internal/lsm"
)

func testServer(t *testing.T) (*Server, *elsm.Store) {
	t.Helper()
	kv, err := elsm.Open(elsm.Options{}.WithGeometry(lsm.Geometry{
		MemtableSize:  8 << 10,
		TableFileSize: 8 << 10,
		LevelBase:     32 << 10,
		BlockSize:     1024,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(kv), kv
}

func mkCert(host string, serial uint64) Certificate {
	return Certificate{
		Hostname: host,
		Serial:   serial,
		Issuer:   "Test CA",
		NotAfter: time.Date(2027, 1, 1, 0, 0, 0, 0, time.UTC),
		DER:      []byte(fmt.Sprintf("der-%s-%d", host, serial)),
	}
}

func TestAddChainAndAudit(t *testing.T) {
	srv, kv := testServer(t)
	defer kv.Close()
	cert := mkCert("www.example.com", 1)
	ts, err := srv.AddChain(cert)
	if err != nil || ts == 0 {
		t.Fatalf("add chain: ts=%d err=%v", ts, err)
	}
	if err := srv.Audit(cert); err != nil {
		t.Fatalf("audit of logged cert: %v", err)
	}
	// Auditing an unlogged certificate fails.
	if err := srv.Audit(mkCert("rogue.example.com", 2)); !errors.Is(err, ErrNotLogged) {
		t.Fatalf("unlogged audit: %v", err)
	}
	// A different certificate for the same hostname fails (mismatch).
	impostor := mkCert("www.example.com", 99)
	if err := srv.Audit(impostor); !errors.Is(err, ErrMismatch) {
		t.Fatalf("impostor audit: %v", err)
	}
}

func TestRotationFreshness(t *testing.T) {
	srv, kv := testServer(t)
	defer kv.Close()
	old := mkCert("site.example.com", 1)
	srv.AddChain(old)
	renewed := mkCert("site.example.com", 2)
	srv.AddChain(renewed)
	// The old certificate must no longer audit — freshness guarantees the
	// auditor sees the rotation.
	if err := srv.Audit(old); !errors.Is(err, ErrMismatch) {
		t.Fatalf("stale cert audited: %v", err)
	}
	if err := srv.Audit(renewed); err != nil {
		t.Fatalf("renewed cert rejected: %v", err)
	}
}

func TestRevocation(t *testing.T) {
	srv, kv := testServer(t)
	defer kv.Close()
	cert := mkCert("revoked.example.com", 7)
	srv.AddChain(cert)
	if _, err := srv.Revoke("revoked.example.com"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Audit(cert); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked cert audited: %v", err)
	}
	if _, err := srv.Revoke("never-logged.example.com"); !errors.Is(err, ErrNotLogged) {
		t.Fatalf("revoking unlogged: %v", err)
	}
}

func TestMonitorDomain(t *testing.T) {
	srv, kv := testServer(t)
	defer kv.Close()
	// Log certificates for two domains interleaved.
	for i := 0; i < 30; i++ {
		srv.AddChain(mkCert(fmt.Sprintf("example.com/host%02d", i), uint64(i)))
		srv.AddChain(mkCert(fmt.Sprintf("other.org/host%02d", i), uint64(100+i)))
	}
	rep, err := srv.MonitorDomain("example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 30 {
		t.Fatalf("monitor saw %d entries, want 30", len(rep.Entries))
	}
	for host := range rep.Entries {
		if host[:12] != "example.com/" {
			t.Fatalf("foreign host in report: %q", host)
		}
	}
	// A domain with no certificates yields a verified empty report.
	rep, err = srv.MonitorDomain("unused.net/")
	if err != nil || len(rep.Entries) != 0 {
		t.Fatalf("empty domain report: %d err=%v", len(rep.Entries), err)
	}
}

func TestIntensiveSubmissionStream(t *testing.T) {
	srv, kv := testServer(t)
	defer kv.Close()
	// The §3.1 workload: a large stream of small writes, then random
	// audits — all through flushes and compactions.
	for i := 0; i < 2000; i++ {
		if _, err := srv.AddChain(mkCert(fmt.Sprintf("bulk%04d.example.com", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if kv.Stats().Flushes == 0 {
		t.Fatal("stream did not exercise flush")
	}
	for _, i := range []int{0, 999, 1999} {
		if err := srv.Audit(mkCert(fmt.Sprintf("bulk%04d.example.com", i), uint64(i))); err != nil {
			t.Fatalf("audit %d: %v", i, err)
		}
	}
}
