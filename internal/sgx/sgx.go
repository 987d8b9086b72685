// Package sgx simulates the Intel SGX enclave execution environment used by
// the paper: a protected memory region (EPC) of limited size with expensive
// paging beyond it, costly world switches (ECall/OCall), a trusted monotonic
// counter for rollback defence, and sealing/measurement primitives.
//
// The simulator does not provide real isolation — it provides the *cost
// structure* and the *trust-boundary bookkeeping* of SGX, which is what the
// paper's design and evaluation depend on. See DESIGN.md ("Hardware
// substitution") for the calibration rationale.
//
// Concurrency: all types are safe for concurrent use unless noted otherwise.
package sgx

import (
	"errors"
	"fmt"
	"sync"

	"elsm/internal/costmodel"
)

// DefaultPageSize is the SGX EPC page granularity.
const DefaultPageSize = 4096

// DefaultEPCSize mirrors the paper's 128 MB EPC. Benchmarks scale this down
// together with dataset sizes (DESIGN.md "Scaling rule").
const DefaultEPCSize = 128 << 20

// Params configures a simulated enclave.
type Params struct {
	// EPCSize is the protected-memory capacity in bytes. Accesses to
	// enclave regions whose combined working set exceeds this trigger
	// simulated paging. Zero means DefaultEPCSize.
	EPCSize int
	// PageSize is the paging granularity. Zero means DefaultPageSize.
	PageSize int
	// Cost is the hardware cost model. The zero model disables all cost
	// accounting (functional tests).
	Cost costmodel.Model
}

func (p Params) withDefaults() Params {
	if p.EPCSize == 0 {
		p.EPCSize = DefaultEPCSize
	}
	if p.PageSize == 0 {
		p.PageSize = DefaultPageSize
	}
	return p
}

// Stats counts simulated hardware events. Retrieve a snapshot with
// Enclave.Stats.
type Stats struct {
	// PageFaults is the number of EPC page evict+load round trips.
	PageFaults uint64
	// ECalls and OCalls count boundary crossings (each is two world
	// switches: exit and re-enter).
	ECalls uint64
	OCalls uint64
	// CopiedBytes counts bytes copied across the enclave boundary.
	CopiedBytes uint64
	// ResidentPages is the current EPC occupancy in pages.
	ResidentPages int
	// AllocatedBytes is the total size of live enclave regions.
	AllocatedBytes int64
}

// Enclave is a simulated SGX enclave: an accounting domain for protected
// memory regions plus the ECall/OCall boundary.
type Enclave struct {
	params Params

	mu        sync.Mutex
	regions   map[int]*Region
	nextID    int
	pages     map[pageKey]*pageEntry
	ring      []*pageEntry // CLOCK ring over resident pages
	hand      int
	resident  int
	capacity  int // capacity in pages
	allocated int64

	stats struct {
		faults  uint64
		ecalls  uint64
		ocalls  uint64
		copied  uint64
		evicted uint64
	}
}

type pageKey struct {
	region int
	page   int
}

type pageEntry struct {
	key      pageKey
	ref      bool
	resident bool
}

// New creates an enclave with the given parameters.
func New(p Params) *Enclave {
	p = p.withDefaults()
	cap := p.EPCSize / p.PageSize
	if cap < 1 {
		cap = 1
	}
	return &Enclave{
		params:   p,
		regions:  make(map[int]*Region),
		pages:    make(map[pageKey]*pageEntry),
		capacity: cap,
	}
}

// NewUnlimited creates an enclave with an effectively infinite EPC and zero
// cost model: the "no SGX" configuration used by unsecured baselines and
// functional tests.
func NewUnlimited() *Enclave {
	return New(Params{EPCSize: 1 << 50, Cost: costmodel.Zero})
}

// Params returns the enclave's configuration.
func (e *Enclave) Params() Params { return e.params }

// Stats returns a snapshot of the simulated hardware event counters.
func (e *Enclave) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		PageFaults:     e.stats.faults,
		ECalls:         e.stats.ecalls,
		OCalls:         e.stats.ocalls,
		CopiedBytes:    e.stats.copied,
		ResidentPages:  e.resident,
		AllocatedBytes: e.allocated,
	}
}

// Region is a tracked allocation of enclave-protected memory. The actual
// bytes live in ordinary Go memory owned by the caller; the region performs
// paging and MEE cost accounting for every declared access.
type Region struct {
	enclave *Enclave
	id      int
	size    int
}

// Alloc registers a region of n bytes of enclave memory for cost accounting.
func (e *Enclave) Alloc(n int) *Region {
	if n < 0 {
		panic(fmt.Sprintf("sgx: negative allocation %d", n))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextID++
	r := &Region{enclave: e, id: e.nextID, size: n}
	e.regions[r.id] = r
	e.allocated += int64(n)
	return r
}

// Free releases the region. Accessing a freed region panics.
func (r *Region) Free() {
	e := r.enclave
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.regions[r.id]; !ok {
		return
	}
	delete(e.regions, r.id)
	e.allocated -= int64(r.size)
	npages := (r.size + e.params.PageSize - 1) / e.params.PageSize
	for p := 0; p < npages; p++ {
		k := pageKey{region: r.id, page: p}
		if pe, ok := e.pages[k]; ok {
			if pe.resident {
				pe.resident = false
				e.resident--
			}
			delete(e.pages, k)
		}
	}
	r.enclave = nil
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return r.size }

// Grow extends the region's accounted size by delta bytes (e.g., a memtable
// arena growing).
func (r *Region) Grow(delta int) {
	if delta <= 0 {
		return
	}
	e := r.enclave
	e.mu.Lock()
	r.size += delta
	e.allocated += int64(delta)
	e.mu.Unlock()
}

// Touch charges the cost of accessing [off, off+n) within the region: MEE
// overhead for every byte plus a page fault for every non-resident page.
// This is the heart of the paging simulation.
func (r *Region) Touch(off, n int) {
	if n <= 0 {
		return
	}
	e := r.enclave
	if e == nil {
		panic("sgx: access to freed region")
	}
	cost := e.params.Cost
	if !cost.IsZero() {
		costmodel.ChargeBytes(cost.MEEPerKB, n)
	}
	ps := e.params.PageSize
	first := off / ps
	last := (off + n - 1) / ps
	faults := 0
	e.mu.Lock()
	for p := first; p <= last; p++ {
		k := pageKey{region: r.id, page: p}
		pe, ok := e.pages[k]
		if !ok {
			pe = &pageEntry{key: k}
			e.pages[k] = pe
		}
		if pe.resident {
			pe.ref = true
			continue
		}
		// Fault: evict a victim if the EPC is full, then load.
		if e.resident >= e.capacity {
			e.evictLocked()
		}
		pe.resident = true
		pe.ref = true
		e.resident++
		e.ring = append(e.ring, pe)
		faults++
	}
	e.stats.faults += uint64(faults)
	e.mu.Unlock()
	if faults > 0 && !cost.IsZero() {
		costmodel.Charge(cost.PageFault, faults)
	}
}

// evictLocked removes one resident page using the CLOCK algorithm.
// Caller holds e.mu.
func (e *Enclave) evictLocked() {
	for {
		if len(e.ring) == 0 {
			return
		}
		if e.hand >= len(e.ring) {
			e.hand = 0
		}
		pe := e.ring[e.hand]
		if !pe.resident {
			// Stale entry from a freed region; compact lazily.
			e.ring[e.hand] = e.ring[len(e.ring)-1]
			e.ring = e.ring[:len(e.ring)-1]
			continue
		}
		if pe.ref {
			pe.ref = false
			e.hand++
			continue
		}
		pe.resident = false
		e.resident--
		e.stats.evicted++
		e.ring[e.hand] = e.ring[len(e.ring)-1]
		e.ring = e.ring[:len(e.ring)-1]
		return
	}
}

// CopyIn models copying n bytes from untrusted memory into the enclave
// (charging the boundary-copy rate and touching the destination region).
func (r *Region) CopyIn(off int, n int) {
	e := r.enclave
	cost := e.params.Cost
	if !cost.IsZero() {
		costmodel.ChargeBytes(cost.EnclaveCopyPerKB, n)
	}
	e.mu.Lock()
	e.stats.copied += uint64(n)
	e.mu.Unlock()
	r.Touch(off, n)
}

// OCall runs fn in the untrusted world: the enclave exits (world switch),
// fn executes outside, then execution re-enters (second world switch).
func (e *Enclave) OCall(fn func()) {
	cost := e.params.Cost
	if !cost.IsZero() {
		costmodel.Spin(cost.WorldSwitch)
	}
	e.mu.Lock()
	e.stats.ocalls++
	e.mu.Unlock()
	fn()
	if !cost.IsZero() {
		costmodel.Spin(cost.WorldSwitch)
	}
}

// ECall runs fn inside the enclave on behalf of untrusted code, charging the
// enter/exit world switches.
func (e *Enclave) ECall(fn func()) {
	cost := e.params.Cost
	if !cost.IsZero() {
		costmodel.Spin(cost.WorldSwitch)
	}
	e.mu.Lock()
	e.stats.ecalls++
	e.mu.Unlock()
	fn()
	if !cost.IsZero() {
		costmodel.Spin(cost.WorldSwitch)
	}
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
