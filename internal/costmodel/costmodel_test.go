package costmodel

import (
	"sync"
	"testing"
	"time"
)

func TestZeroModelIsZero(t *testing.T) {
	busy := Counts{ECalls: 3, OCalls: 5, CopiedBytes: 1 << 20, Touches: 9, TouchedBytes: 1 << 20, PageFaults: 7}
	if got := (Model{}).Price(busy); got != 0 {
		t.Fatalf("the zero model prices %+v at %v", busy, got)
	}
	if got := Calibrated().Price(Counts{}); got != 0 {
		t.Fatalf("Calibrated prices no events at %v", got)
	}
	if Calibrated().Price(busy) <= 0 {
		t.Fatal("Calibrated prices events at nothing")
	}
}

// TestChargeMultiplies: a price is charged once per counted event, exactly —
// the virtual-time successor of a test that timed a busy-loop and flaked.
func TestChargeMultiplies(t *testing.T) {
	m := Model{PageFault: time.Millisecond, Monitor: time.Microsecond}
	if got, want := m.Price(Counts{PageFaults: 5, Touches: 3}), 5*time.Millisecond+3*time.Microsecond; got != want {
		t.Fatalf("5 faults + 3 monitored references priced at %v, want %v", got, want)
	}
}

// TestWorldSwitchCostIsCharged: a crossing is two world switches, and the Sim
// reports the crossings its enclave counted.
func TestWorldSwitchCostIsCharged(t *testing.T) {
	s := New(DefaultEPCSize)
	for i := 0; i < 10; i++ {
		s.Enclave().OCall(func() {})
	}
	s.Enclave().ECall(func() {})
	m := Model{WorldSwitch: 200 * time.Microsecond}
	if got, want := m.Price(s.Counts()), 11*2*200*time.Microsecond; got != want {
		t.Fatalf("10 OCalls + 1 ECall priced at %v, want %v", got, want)
	}
}

// TestChargeBytesRounding: per-KiB rates apply to the byte total, so many
// small copies cost what one large copy of the same bytes costs.
func TestChargeBytesRounding(t *testing.T) {
	m := Model{EnclaveCopyPerKB: 1024 * time.Nanosecond, MEEPerKB: 2048 * time.Nanosecond}
	if got := m.Price(Counts{CopiedBytes: 1}); got != time.Nanosecond {
		t.Fatalf("1 byte copied priced at %v", got)
	}
	if got := m.Price(Counts{CopiedBytes: 4096, TouchedBytes: 512}); got != 4096*time.Nanosecond+1024*time.Nanosecond {
		t.Fatalf("4 KiB copied + 512 B touched priced at %v", got)
	}
}

func TestScaled(t *testing.T) {
	half := Scaled(0.5)
	cal := Calibrated()
	if half.WorldSwitch != cal.WorldSwitch/2 {
		t.Fatalf("scaled world switch = %v", half.WorldSwitch)
	}
	if half.PageFault != cal.PageFault/2 {
		t.Fatalf("scaled page fault = %v", half.PageFault)
	}
}

func TestCountsSub(t *testing.T) {
	s := New(8 * PageSize)
	r := s.Enclave().Alloc(4 * PageSize)
	r.Touch(0, 4*PageSize)
	before := s.Counts()
	s.Enclave().ECall(func() {})
	r.CopyIn(0, 100)
	want := Counts{ECalls: 1, CopiedBytes: 100, Touches: 1, TouchedBytes: 100}
	if got := s.Counts().Sub(before); got != want {
		t.Fatalf("delta = %+v, want %+v", got, want)
	}
}

func TestPagingWithinEPCNoFaultsOnRevisit(t *testing.T) {
	s := New(64 * PageSize)
	r := s.Enclave().Alloc(32 * PageSize)
	r.Touch(0, 32*PageSize)
	first := s.Counts().PageFaults
	if first != 32 {
		t.Fatalf("cold faults = %d, want 32", first)
	}
	r.Touch(0, 32*PageSize)
	if got := s.Counts().PageFaults; got != first {
		t.Fatalf("re-touch faulted: %d -> %d", first, got)
	}
}

func TestPagingThrashesBeyondEPC(t *testing.T) {
	s := New(16 * PageSize)
	r := s.Enclave().Alloc(64 * PageSize)
	// Sequentially touch a working set 4x the EPC, twice: the second
	// sweep must fault again (capacity evictions).
	r.Touch(0, 64*PageSize)
	after1 := s.Counts().PageFaults
	r.Touch(0, 64*PageSize)
	after2 := s.Counts().PageFaults
	if after2-after1 < 32 {
		t.Fatalf("second sweep faulted only %d times; eviction broken", after2-after1)
	}
	if got := s.ResidentPages(); got > 16 {
		t.Fatalf("resident %d pages > EPC capacity 16", got)
	}
}

func TestFreeReleasesResidency(t *testing.T) {
	s := New(8 * PageSize)
	keep := s.Enclave().Alloc(2 * PageSize)
	keep.Touch(0, 2*PageSize)
	r := s.Enclave().Alloc(6 * PageSize)
	r.Touch(0, 6*PageSize)
	if s.ResidentPages() != 8 {
		t.Fatalf("resident = %d", s.ResidentPages())
	}
	r.Free()
	if s.ResidentPages() != 2 {
		t.Fatalf("resident after free = %d, want the other region's 2", s.ResidentPages())
	}
	faults := s.Counts().PageFaults
	keep.Touch(0, 2*PageSize)
	if got := s.Counts().PageFaults; got != faults {
		t.Fatalf("the surviving region's pages faulted after another's Free: %d -> %d", faults, got)
	}
}

func TestConcurrentTouches(t *testing.T) {
	s := New(32 * PageSize)
	r := s.Enclave().Alloc(128 * PageSize)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Touch((g*17+i*31)%120*PageSize, PageSize)
			}
		}(g)
	}
	wg.Wait()
	if got := s.ResidentPages(); got > 32 {
		t.Fatalf("resident %d > capacity 32", got)
	}
	if got := s.Counts(); got.Touches != 8*200 || got.TouchedBytes != 8*200*PageSize {
		t.Fatalf("counted %+v, want 1600 touches of one page each", got)
	}
}
