// Package ctlog implements the paper's case study (§5.7): a Certificate
// Transparency log server backed by eLSM. Certificates are stored keyed by
// hostname with the certificate hash as the value; the store's verified
// freshness is exactly the property CT needs ("returning a revoked
// certificate may connect a user to an impersonator", §3.1).
//
// Three CT roles are modelled:
//
//   - the log server ingests certificate submissions (an intensive small-
//     write stream) and serves authenticated lookups;
//   - a log auditor validates a single certificate against the log
//     (a verified point GET);
//   - a log monitor watches all certificates under its own domains with
//     sublinear bandwidth (a verified range SCAN per domain) — the
//     "lightweight log monitor" the paper's design enables.
package ctlog

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"elsm/internal/core"
)

// Certificate is a (simplified) logged certificate.
type Certificate struct {
	Hostname string    `json:"hostname"`
	Serial   uint64    `json:"serial"`
	Issuer   string    `json:"issuer"`
	NotAfter time.Time `json:"notAfter"`
	// DER is the raw certificate (simulated content).
	DER []byte `json:"der"`
}

// Hash returns the certificate's digest (what the log stores and auditors
// compare).
func (c Certificate) Hash() [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%s|%d|", c.Hostname, c.Serial, c.Issuer, c.NotAfter.Unix())
	h.Write(c.DER)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Entry is the stored log record for one hostname.
type Entry struct {
	CertHash [32]byte  `json:"certHash"`
	Serial   uint64    `json:"serial"`
	Issuer   string    `json:"issuer"`
	NotAfter time.Time `json:"notAfter"`
	Revoked  bool      `json:"revoked"`
	LoggedAt time.Time `json:"loggedAt"`
}

// CT errors.
var (
	ErrNotLogged = errors.New("ctlog: certificate not in log")
	ErrRevoked   = errors.New("ctlog: certificate revoked")
	ErrMismatch  = errors.New("ctlog: presented certificate does not match logged certificate")
)

// KV is the verified-store surface the log server needs: authenticated
// point writes, verified-freshness lookups and completeness-verified range
// scans. The public *elsm.Store (sharded or not) satisfies it.
type KV interface {
	Put(key, value []byte) (uint64, error)
	Get(key []byte) (core.Result, error)
	Scan(start, end []byte) ([]core.Result, error)
}

// Server is the eLSM-backed CT log server.
type Server struct {
	kv KV
}

// NewServer wraps a (typically eLSM-P2) store.
func NewServer(kv KV) *Server { return &Server{kv: kv} }

// AddChain logs a certificate submission, returning the log timestamp.
// Re-submission for the same hostname supersedes (rotation): freshness
// verification guarantees auditors always see the newest entry.
func (s *Server) AddChain(cert Certificate) (uint64, error) {
	return s.putEntry(cert.Hostname, Entry{
		CertHash: cert.Hash(),
		Serial:   cert.Serial,
		Issuer:   cert.Issuer,
		NotAfter: cert.NotAfter,
		LoggedAt: time.Now().UTC(),
	})
}

// Revoke marks a hostname's current certificate revoked (a fresh record —
// CT logs are append-only; revocation is a newer statement, not an erase).
func (s *Server) Revoke(hostname string) (uint64, error) {
	entry, _, err := s.GetEntry(hostname)
	if err != nil {
		return 0, err
	}
	entry.Revoked = true
	return s.putEntry(hostname, entry)
}

func (s *Server) putEntry(hostname string, e Entry) (uint64, error) {
	val, err := json.Marshal(e)
	if err != nil {
		return 0, fmt.Errorf("ctlog: encode entry: %w", err)
	}
	return s.kv.Put([]byte(hostname), val)
}

// GetEntry returns the verified newest log entry for a hostname.
func (s *Server) GetEntry(hostname string) (Entry, uint64, error) {
	res, err := s.kv.Get([]byte(hostname))
	if err != nil {
		return Entry{}, 0, fmt.Errorf("ctlog: verified get: %w", err)
	}
	if !res.Found {
		return Entry{}, 0, ErrNotLogged
	}
	var e Entry
	if err := json.Unmarshal(res.Value, &e); err != nil {
		return Entry{}, 0, fmt.Errorf("ctlog: decode entry: %w", err)
	}
	return e, res.Ts, nil
}

// Audit is the log-auditor check a TLS client performs: the presented
// certificate must be the log's current, unrevoked entry for its hostname.
func (s *Server) Audit(cert Certificate) error {
	e, _, err := s.GetEntry(cert.Hostname)
	if err != nil {
		return err
	}
	if e.CertHash != cert.Hash() {
		return fmt.Errorf("%w (hostname %s)", ErrMismatch, cert.Hostname)
	}
	if e.Revoked {
		return fmt.Errorf("%w (hostname %s)", ErrRevoked, cert.Hostname)
	}
	return nil
}

// MonitorReport is the per-domain digest a log monitor downloads.
type MonitorReport struct {
	Domain  string
	Entries map[string]Entry // hostname -> entry
}

// MonitorDomain returns all current log entries under a domain prefix via
// one completeness-verified range scan — the monitor downloads only its own
// certificates ("low and sublinear bandwidth", §5.7), yet an omitted
// hostname would be detected by the store's range proof.
func (s *Server) MonitorDomain(domain string) (MonitorReport, error) {
	// Hostnames under "example.com" sort within ["example.com",
	// "example.com\xff"...]; the prefix-range end key appends 0xff.
	start := []byte(domain)
	end := append([]byte(domain), 0xff)
	results, err := s.kv.Scan(start, end)
	if err != nil {
		return MonitorReport{}, fmt.Errorf("ctlog: monitor scan: %w", err)
	}
	rep := MonitorReport{Domain: domain, Entries: make(map[string]Entry, len(results))}
	for _, r := range results {
		var e Entry
		if err := json.Unmarshal(r.Value, &e); err != nil {
			return MonitorReport{}, fmt.Errorf("ctlog: decode %q: %w", r.Key, err)
		}
		rep.Entries[string(r.Key)] = e
	}
	return rep, nil
}
