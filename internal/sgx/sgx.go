// Package sgx stands in for the Intel SGX execution environment the paper
// builds on. It keeps the trust primitives — a platform root of trust,
// sealing, measurement and reports (seal.go), a trusted monotonic counter for
// rollback defence — and a boundary meter: an Enclave counts the world
// switches (ECall/OCall), the bytes copied across the boundary and the
// protected memory its regions hold.
//
// It provides no isolation and charges no time. What an SGX CPU would make
// those events cost — and the EPC paging a region's accesses would cause — is
// the business of an Observer, which the product never installs: the
// paper-reproduction layer (internal/costmodel) implements one and prices the
// counts afterwards.
//
// Concurrency: all types are safe for concurrent use.
package sgx

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Observer is told which protected memory an enclave's code touches, so a
// model outside this package can page it. Regions are named by an id unique
// within their enclave. Calls arrive on the goroutine making the access, with
// no lock held; a Touch that races with the Free of its region may be
// delivered after it.
type Observer interface {
	// Touch reports an access to bytes [off, off+n) of a region, n > 0.
	Touch(region uint64, off, n int)
	// Free reports that a region is gone; its id is not reused.
	Free(region uint64)
}

// Params configures an enclave. The zero value is the product's.
type Params struct {
	// Observer receives every region access; nil (the product) receives
	// nothing and costs nothing.
	Observer Observer
}

// EnclaveStats is a snapshot of an enclave's counters.
type EnclaveStats struct {
	// ECalls and OCalls count boundary crossings (each is two world
	// switches: exit and re-enter).
	ECalls uint64
	OCalls uint64
	// CopiedBytes counts bytes copied across the enclave boundary.
	CopiedBytes uint64
	// EnclaveBytes is the total size of live enclave regions.
	EnclaveBytes uint64
}

// Enclave meters one enclave's boundary: a set of counters and nothing else.
type Enclave struct {
	observer   Observer
	ecalls     atomic.Uint64
	ocalls     atomic.Uint64
	copied     atomic.Uint64
	allocated  atomic.Int64
	lastRegion atomic.Uint64
}

// New creates an enclave.
func New(p Params) *Enclave { return &Enclave{observer: p.Observer} }

// NewUnlimited is New(Params{}) under the name the frozen benchmark/ module
// compiles against.
func NewUnlimited() *Enclave { return New(Params{}) }

// Stats returns a snapshot of the counters. Each is read atomically; the set
// is not one atomic snapshot.
func (e *Enclave) Stats() EnclaveStats {
	return EnclaveStats{
		ECalls:       e.ecalls.Load(),
		OCalls:       e.ocalls.Load(),
		CopiedBytes:  e.copied.Load(),
		EnclaveBytes: uint64(e.allocated.Load()),
	}
}

// ECall runs fn inside the enclave on behalf of untrusted code: one entry
// and one exit.
func (e *Enclave) ECall(fn func()) {
	e.ecalls.Add(1)
	fn()
}

// OCall runs fn in the untrusted world on behalf of enclave code: one exit
// and one re-entry.
func (e *Enclave) OCall(fn func()) {
	e.ocalls.Add(1)
	fn()
}

// Copy counts n bytes copied across the enclave boundary, in either
// direction.
func (e *Enclave) Copy(n int) {
	if n > 0 {
		e.copied.Add(uint64(n))
	}
}

// Region is a tracked allocation of enclave-protected memory. The actual
// bytes live in ordinary Go memory owned by the caller; the region accounts
// their size and reports declared accesses to the enclave's observer.
//
// A freed region accounts nothing: Free is idempotent, and Grow, Touch and
// CopyIn on a freed region — including ones that lose a race with Free — do
// nothing, so an owner may release a region while readers are still in
// flight.
type Region struct {
	enclave *Enclave
	id      uint64
	size    atomic.Int64 // regionFreed once freed
}

const regionFreed = -1

// Alloc registers a region of n bytes of enclave memory.
func (e *Enclave) Alloc(n int) *Region {
	if n < 0 {
		panic(fmt.Sprintf("sgx: negative allocation %d", n))
	}
	r := &Region{enclave: e, id: e.lastRegion.Add(1)}
	r.size.Store(int64(n))
	e.allocated.Add(int64(n))
	return r
}

// Free releases the region.
func (r *Region) Free() {
	size := r.size.Swap(regionFreed)
	if size == regionFreed {
		return
	}
	r.enclave.allocated.Add(-size)
	if o := r.enclave.observer; o != nil {
		o.Free(r.id)
	}
}

// Size returns the region size in bytes, zero once freed.
func (r *Region) Size() int {
	if size := r.size.Load(); size != regionFreed {
		return int(size)
	}
	return 0
}

// Grow extends the region's accounted size by delta bytes (e.g., a memtable
// arena growing).
func (r *Region) Grow(delta int) {
	if delta <= 0 {
		return
	}
	// The enclave's total moves first and is taken back if the region turns
	// out to be freed, so it never reads below the live regions' sizes; Free
	// subtracts whatever size it swaps out.
	e := r.enclave
	e.allocated.Add(int64(delta))
	for {
		size := r.size.Load()
		if size == regionFreed {
			e.allocated.Add(-int64(delta))
			return
		}
		if r.size.CompareAndSwap(size, size+int64(delta)) {
			return
		}
	}
}

// Touch declares an access to [off, off+n) within the region.
func (r *Region) Touch(off, n int) {
	o := r.enclave.observer
	if o == nil || n <= 0 || r.size.Load() == regionFreed {
		return
	}
	o.Touch(r.id, off, n)
}

// CopyIn declares n bytes copied from untrusted memory into the region at
// off: a boundary copy and an access to the destination.
func (r *Region) CopyIn(off, n int) {
	if r.size.Load() == regionFreed {
		return
	}
	r.enclave.Copy(n)
	r.Touch(off, n)
}

// ErrCounterRollback is returned when a monotonic counter write would move
// the counter backwards — the signature of a rollback attack.
var ErrCounterRollback = errors.New("sgx: monotonic counter rollback detected")

// MonotonicCounter simulates the trusted monotonic counter
// (sgx_create_monotonic_counter / ROTE) used for rollback defence (§5.6.1).
// Values only move forward; the associated state hash lets the enclave pin
// its latest dataset digest to the counter value.
type MonotonicCounter struct {
	mu    sync.Mutex
	value uint64
	bound [32]byte
}

// NewMonotonicCounter creates a counter starting at zero.
func NewMonotonicCounter() *MonotonicCounter { return &MonotonicCounter{} }

// Increment advances the counter by one and binds it to the given state
// digest, returning the new value.
func (c *MonotonicCounter) Increment(state [32]byte) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.value++
	c.bound = state
	return c.value
}

// Read returns the current value and the state digest bound to it.
func (c *MonotonicCounter) Read() (uint64, [32]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.value, c.bound
}

// Verify checks a claimed (value, state) pair against the counter. It
// returns ErrCounterRollback if the claimed value is older than the trusted
// value, and a generic error if the value matches but the state does not.
func (c *MonotonicCounter) Verify(value uint64, state [32]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if value < c.value {
		return fmt.Errorf("%w: claimed %d < trusted %d", ErrCounterRollback, value, c.value)
	}
	if value == c.value && state != c.bound {
		return fmt.Errorf("sgx: state digest mismatch at counter %d", value)
	}
	return nil
}
