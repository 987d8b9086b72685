package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// Measurement identifies the code loaded into an enclave (MRENCLAVE). In the
// simulator it is the SHA-256 of the supplied code-identity bytes.
type Measurement [32]byte

// Measure computes the enclave measurement of the given code identity.
func Measure(codeIdentity []byte) Measurement {
	return Measurement(sha256.Sum256(codeIdentity))
}

// Report is a local attestation report: a MAC over the measurement and
// caller-chosen report data, keyed by a per-platform key.
type Report struct {
	Measurement Measurement
	Data        [64]byte
	MAC         [32]byte
}

// reportSize is the length of a Report's wire form: measurement, data, MAC.
const reportSize = 32 + 64 + 32

// WriteReport writes r in its 128-byte wire form, the one form both
// a checkpoint header and a replication frame carry.
func WriteReport(w io.Writer, r Report) error {
	buf := make([]byte, 0, reportSize)
	buf = append(append(append(buf, r.Measurement[:]...), r.Data[:]...), r.MAC[:]...)
	_, err := w.Write(buf)
	return err
}

// ReadReport reads the form WriteReport writes.
func ReadReport(rd io.Reader) (Report, error) {
	var buf [reportSize]byte
	var r Report
	if _, err := io.ReadFull(rd, buf[:]); err != nil {
		return r, err
	}
	copy(r.Measurement[:], buf[:32])
	copy(r.Data[:], buf[32:96])
	copy(r.MAC[:], buf[96:])
	return r, nil
}

// Platform models the per-machine root of trust (the CPU's fused keys).
type Platform struct {
	key [32]byte
}

// NewPlatform creates a platform with a fresh random root key.
func NewPlatform() (*Platform, error) {
	var p Platform
	if _, err := rand.Read(p.key[:]); err != nil {
		return nil, fmt.Errorf("sgx: platform key generation: %w", err)
	}
	return &p, nil
}

// NewPlatformFromSecret creates a platform whose root key is derived from a
// deterministic secret. Two processes constructed from the same secret
// verify each other's reports — the simulator's stand-in for a remote
// attestation handshake having established a shared channel key, which is
// what lets a replication follower on another "machine" check reports
// minted inside the leader's enclave.
func NewPlatformFromSecret(secret []byte) *Platform {
	var p Platform
	p.key = sha256.Sum256(secret)
	return &p
}

// CreateReport produces an attestation report binding data to the
// measurement under this platform's key.
func (p *Platform) CreateReport(m Measurement, data [64]byte) Report {
	r := Report{Measurement: m, Data: data}
	mac := hmac.New(sha256.New, p.key[:])
	mac.Write(m[:])
	mac.Write(data[:])
	mac.Sum(r.MAC[:0])
	return r
}

// ErrReportInvalid indicates attestation verification failure.
var ErrReportInvalid = errors.New("sgx: attestation report invalid")

// VerifyReport checks that the report was produced on this platform.
func (p *Platform) VerifyReport(r Report) error {
	mac := hmac.New(sha256.New, p.key[:])
	mac.Write(r.Measurement[:])
	mac.Write(r.Data[:])
	var want [32]byte
	mac.Sum(want[:0])
	if !hmac.Equal(want[:], r.MAC[:]) {
		return ErrReportInvalid
	}
	return nil
}

// SealingKey derives the enclave's sealing key: unique per (platform,
// measurement), so only the same code on the same machine can unseal.
func (p *Platform) SealingKey(m Measurement) [32]byte {
	mac := hmac.New(sha256.New, p.key[:])
	mac.Write([]byte("seal"))
	mac.Write(m[:])
	var out [32]byte
	mac.Sum(out[:0])
	return out
}

// ErrUnsealFailed indicates the sealed blob was tampered with or sealed by a
// different enclave identity.
var ErrUnsealFailed = errors.New("sgx: unseal failed")

// Seal encrypts-and-authenticates plaintext under the sealing key (AES-GCM,
// random nonce prepended). This mirrors sgx_seal_data.
func Seal(key [32]byte, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("sgx: seal cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sgx: seal gcm: %w", err)
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("sgx: seal nonce: %w", err)
	}
	return gcm.Seal(nonce, nonce, plaintext, nil), nil
}

// Unseal reverses Seal, failing if the blob is corrupt or the key is wrong.
func Unseal(key [32]byte, sealed []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("sgx: unseal cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sgx: unseal gcm: %w", err)
	}
	if len(sealed) < gcm.NonceSize() {
		return nil, ErrUnsealFailed
	}
	pt, err := gcm.Open(nil, sealed[:gcm.NonceSize()], sealed[gcm.NonceSize():], nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsealFailed, err)
	}
	return pt, nil
}
