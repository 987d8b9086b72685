// Package costmodel gives the paper-reproduction benchmarks the cost
// structure of real SGX hardware without an SGX CPU, in virtual time. The
// product (internal/sgx and everything above it) only counts: world switches,
// bytes copied across the boundary, accesses to protected regions. This
// package holds what turns those counts into the paper's figures:
//
//   - Model, the price list: what a world switch, an EPC page fault and a KiB
//     copied or touched cost on the published hardware;
//   - Sim, a simulated enclave: an sgx.Enclave whose region accesses drive a
//     CLOCK model of the EPC, so a working set beyond the EPC faults;
//   - Model.Price, which multiplies the two into simulated nanoseconds.
//
// Nothing here burns or measures time, so a seeded run prices identically on
// any box. The limit of the method: virtual time is additive per operation.
// It adds each event's price to the operation that caused it and models no
// contention between operations (a busy-loop would have shown some), which is
// faithful for what the figures plot — the mean latency of one client.
//
// The dependency points one way: this package imports the product, and no
// package the product is built from imports it.
package costmodel

import (
	"sync"
	"time"

	"elsm/internal/sgx"
)

// PageSize is the SGX EPC page granularity.
const PageSize = 4096

// DefaultEPCSize is the paper's 128 MB EPC. Benchmarks scale it down
// together with their dataset sizes, so every dataset:EPC ratio is kept.
const DefaultEPCSize = 128 << 20

// Model prices each enclave-related event. The zero Model prices everything
// at nothing.
type Model struct {
	// WorldSwitch is charged once per enclave boundary crossing direction
	// (an ECall or OCall costs two: exit + re-enter). Real SGX: ~8k–14k
	// cycles.
	WorldSwitch time.Duration
	// PageFault is charged per 4 KiB enclave page that must be evicted and
	// reloaded when the enclave working set exceeds the EPC. Real SGX EWB +
	// ELDU round trip: ~40k cycles.
	PageFault time.Duration
	// EnclaveCopyPerKB is charged per KiB copied across the enclave
	// boundary (the "extra copy" S1 in the paper, §4.2).
	EnclaveCopyPerKB time.Duration
	// MEEPerKB is the memory-encryption-engine overhead per KiB of
	// enclave-resident data touched.
	MEEPerKB time.Duration
	// Monitor is charged per declared region access. Hardware-paged
	// enclaves pay nothing here; Eleos's SUVM translates every reference in
	// software, and the benchmarks set it for that baseline alone.
	Monitor time.Duration
}

// Calibrated returns the model the paper-reproduction benchmarks use. The
// durations correspond to published SGX microbenchmarks (Orenbach et al.,
// EuroSys'17; Weisse et al., ISCA'17) at ~2.7 GHz:
//
//	world switch ≈ 3 µs, EPC page fault ≈ 12 µs,
//	cross-boundary copy ≈ 150 ns/KiB, MEE ≈ 25 ns/KiB.
func Calibrated() Model {
	return Model{
		WorldSwitch:      3 * time.Microsecond,
		PageFault:        12 * time.Microsecond,
		EnclaveCopyPerKB: 150 * time.Nanosecond,
		MEEPerKB:         25 * time.Nanosecond,
	}
}

// Scaled returns Calibrated with every term multiplied by f. Useful for
// sensitivity/ablation benchmarks.
func Scaled(f float64) Model {
	c := Calibrated()
	return Model{
		WorldSwitch:      time.Duration(float64(c.WorldSwitch) * f),
		PageFault:        time.Duration(float64(c.PageFault) * f),
		EnclaveCopyPerKB: time.Duration(float64(c.EnclaveCopyPerKB) * f),
		MEEPerKB:         time.Duration(float64(c.MEEPerKB) * f),
	}
}

// Counts is every event a simulated enclave saw: the crossings and copies its
// sgx.Enclave counted and the region traffic its EPC model observed.
type Counts struct {
	ECalls       uint64 `json:"ecalls"`
	OCalls       uint64 `json:"ocalls"`
	CopiedBytes  uint64 `json:"copied_bytes"`
	Touches      uint64 `json:"touches"`
	TouchedBytes uint64 `json:"touched_bytes"`
	PageFaults   uint64 `json:"page_faults"`
}

// Sub returns the events between an earlier snapshot and c.
func (c Counts) Sub(earlier Counts) Counts {
	return Counts{
		ECalls:       c.ECalls - earlier.ECalls,
		OCalls:       c.OCalls - earlier.OCalls,
		CopiedBytes:  c.CopiedBytes - earlier.CopiedBytes,
		Touches:      c.Touches - earlier.Touches,
		TouchedBytes: c.TouchedBytes - earlier.TouchedBytes,
		PageFaults:   c.PageFaults - earlier.PageFaults,
	}
}

// Price is the simulated time the counted events cost under m: the virtual
// clock. Per-KiB rates are applied to byte totals, not rounded up per event.
func (m Model) Price(c Counts) time.Duration {
	perKB := func(rate time.Duration, bytes uint64) time.Duration {
		return time.Duration(uint64(rate) * bytes / 1024)
	}
	return 2*m.WorldSwitch*time.Duration(c.ECalls+c.OCalls) +
		perKB(m.EnclaveCopyPerKB, c.CopiedBytes) +
		m.Monitor*time.Duration(c.Touches) +
		perKB(m.MEEPerKB, c.TouchedBytes) +
		m.PageFault*time.Duration(c.PageFaults)
}

// Sim is a simulated enclave: an sgx.Enclave plus the EPC it would run in.
// It observes the enclave's region accesses and keeps the set of resident
// pages with the CLOCK algorithm; an access to a non-resident page is a
// fault, and evicts a victim once the EPC is full. Safe for concurrent use.
//
// A Touch delivered after its region's Free (see sgx.Observer) makes pages
// resident that nothing will reference again; CLOCK evicts them within two
// sweeps, so the error is bounded and absent from single-goroutine runs.
type Sim struct {
	enclave  *sgx.Enclave
	capacity int // EPC size in pages

	mu       sync.Mutex
	resident map[pageKey]*page
	ring     []*page // the resident pages in CLOCK order
	hand     int
	counts   Counts // region traffic only; Counts adds the enclave's own
}

type pageKey struct {
	region uint64
	page   int
}

type page struct {
	key pageKey
	ref bool
}

// New creates a simulated enclave with an EPC of epcBytes.
func New(epcBytes int) *Sim {
	s := &Sim{capacity: epcBytes / PageSize, resident: make(map[pageKey]*page)}
	if s.capacity < 1 {
		s.capacity = 1
	}
	s.enclave = sgx.New(sgx.Params{Observer: s})
	return s
}

// Enclave returns the enclave to build stores in.
func (s *Sim) Enclave() *sgx.Enclave { return s.enclave }

// Counts returns every event counted so far.
func (s *Sim) Counts() Counts {
	s.mu.Lock()
	c := s.counts
	s.mu.Unlock()
	st := s.enclave.Stats()
	c.ECalls, c.OCalls, c.CopiedBytes = st.ECalls, st.OCalls, st.CopiedBytes
	return c
}

// ResidentPages returns the current EPC occupancy in pages.
func (s *Sim) ResidentPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}

// Touch implements sgx.Observer: every page of [off, off+n) is referenced,
// faulting in the ones not resident.
func (s *Sim) Touch(region uint64, off, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts.Touches++
	s.counts.TouchedBytes += uint64(n)
	for p := off / PageSize; p <= (off+n-1)/PageSize; p++ {
		k := pageKey{region: region, page: p}
		if pg, ok := s.resident[k]; ok {
			pg.ref = true
			continue
		}
		if len(s.ring) >= s.capacity {
			s.evict()
		}
		pg := &page{key: k, ref: true}
		s.resident[k] = pg
		s.ring = append(s.ring, pg)
		s.counts.PageFaults++
	}
}

// evict removes one resident page by CLOCK: the hand clears reference bits
// until it meets a page not referenced since its last pass.
func (s *Sim) evict() {
	for {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		if pg := s.ring[s.hand]; pg.ref {
			pg.ref = false
			s.hand++
			continue
		}
		s.drop(s.hand)
		return
	}
}

// drop removes the page at ring index i, moving the last page into its slot.
func (s *Sim) drop(i int) {
	delete(s.resident, s.ring[i].key)
	last := len(s.ring) - 1
	s.ring[i] = s.ring[last]
	s.ring = s.ring[:last]
}

// Free implements sgx.Observer: the region's pages leave the EPC.
func (s *Sim) Free(region uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < len(s.ring); {
		if s.ring[i].key.region == region {
			s.drop(i)
		} else {
			i++
		}
	}
}
