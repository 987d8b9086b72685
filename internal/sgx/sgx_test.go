package sgx

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestOCallECallCounting(t *testing.T) {
	e := New(Params{})
	ran := 0
	e.OCall(func() { ran++ })
	e.ECall(func() { ran++ })
	e.Copy(100)
	e.Copy(0)
	if ran != 2 {
		t.Fatalf("callbacks ran %d times", ran)
	}
	if st := e.Stats(); st.OCalls != 1 || st.ECalls != 1 || st.CopiedBytes != 100 {
		t.Fatalf("counted %+v", st)
	}
}

// recorder is an Observer that counts what it is told.
type recorder struct {
	mu      sync.Mutex
	touches map[uint64]int // region → bytes touched
	freed   map[uint64]int // region → Free calls
}

func newRecorder() *recorder {
	return &recorder{touches: map[uint64]int{}, freed: map[uint64]int{}}
}

func (r *recorder) Touch(region uint64, off, n int) {
	r.mu.Lock()
	r.touches[region] += n
	r.mu.Unlock()
}

func (r *recorder) Free(region uint64) {
	r.mu.Lock()
	r.freed[region]++
	r.mu.Unlock()
}

// TestFreedRegionAccountsNothing pins the one behaviour of a freed region:
// every method is a no-op, Free included, and the observer hears of the
// region's end exactly once.
func TestFreedRegionAccountsNothing(t *testing.T) {
	obs := newRecorder()
	e := New(Params{Observer: obs})
	r := e.Alloc(100)
	r.Grow(50)
	r.Touch(0, 10)
	r.CopyIn(10, 20)
	if r.Size() != 150 || e.Stats().EnclaveBytes != 150 || e.Stats().CopiedBytes != 20 || obs.touches[r.id] != 30 {
		t.Fatalf("live region: size %d, stats %+v, touched %d", r.Size(), e.Stats(), obs.touches[r.id])
	}
	r.Free()
	r.Free()
	r.Grow(50)
	r.Touch(0, 10)
	r.CopyIn(10, 20)
	if r.Size() != 0 || e.Stats().EnclaveBytes != 0 || e.Stats().CopiedBytes != 20 || obs.touches[r.id] != 30 || obs.freed[r.id] != 1 {
		t.Fatalf("freed region: size %d, stats %+v, touched %d, freed %d times", r.Size(), e.Stats(), obs.touches[r.id], obs.freed[r.id])
	}
}

// TestConcurrentMeterIsExact runs N goroutines × M rounds of every metered
// call, on private regions and on one shared region that is freed mid-run,
// under the race detector in CI: the counters come out exactly N×M, and the
// allocation total returns to zero whichever side of the shared Free each
// Grow fell on.
func TestConcurrentMeterIsExact(t *testing.T) {
	const goroutines, rounds = 8, 500
	obs := newRecorder()
	e := New(Params{Observer: obs})
	shared := e.Alloc(64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				e.ECall(func() {})
				e.OCall(func() {})
				e.Copy(3)
				r := e.Alloc(10)
				r.Grow(5)
				r.Touch(0, 7)
				shared.Grow(1)
				shared.Touch(0, 1)
				_ = shared.Size()
				if g == 0 && i == rounds/2 {
					shared.Free()
				}
				r.Free()
			}
		}(g)
	}
	wg.Wait()
	const n = goroutines * rounds
	want := EnclaveStats{ECalls: n, OCalls: n, CopiedBytes: 3 * n}
	if got := e.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	if got := e.lastRegion.Load(); got != n+1 {
		t.Fatalf("%d regions allocated, want %d", got, n+1)
	}
	private := 0
	for id, bytes := range obs.touches {
		if id != shared.id {
			private += bytes
		}
	}
	if private != 7*n {
		t.Fatalf("observer saw %d private bytes touched, want %d", private, 7*n)
	}
	for id, times := range obs.freed {
		if times != 1 {
			t.Fatalf("region %d reported freed %d times", id, times)
		}
	}
	if len(obs.freed) != n+1 {
		t.Fatalf("observer saw %d regions freed, want %d", len(obs.freed), n+1)
	}
}

func TestMonotonicCounter(t *testing.T) {
	c := NewMonotonicCounter()
	var s1 [32]byte
	s1[0] = 1
	v1 := c.Increment(s1)
	if v1 != 1 {
		t.Fatalf("first increment = %d", v1)
	}
	var s2 [32]byte
	s2[0] = 2
	v2 := c.Increment(s2)
	if v2 != 2 {
		t.Fatalf("second increment = %d", v2)
	}
	if err := c.Verify(v2, s2); err != nil {
		t.Fatalf("current state rejected: %v", err)
	}
	if err := c.Verify(v1, s1); !errors.Is(err, ErrCounterRollback) {
		t.Fatalf("rollback not detected: %v", err)
	}
	if err := c.Verify(v2, s1); err == nil {
		t.Fatal("wrong state digest at current counter accepted")
	}
	if err := c.Verify(v2+5, s1); err != nil {
		t.Fatalf("future counter value rejected: %v", err)
	}
}

func TestSealUnseal(t *testing.T) {
	p, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	m := Measure([]byte("enclave-code-v1"))
	key := p.SealingKey(m)
	blob, err := Seal(key, []byte("trusted state"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unseal(key, blob)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "trusted state" {
		t.Fatalf("unsealed %q", got)
	}
	// Different enclave identity cannot unseal.
	otherKey := p.SealingKey(Measure([]byte("other-code")))
	if _, err := Unseal(otherKey, blob); !errors.Is(err, ErrUnsealFailed) {
		t.Fatalf("cross-identity unseal: %v", err)
	}
	// Tampered blob fails.
	blob[len(blob)-1] ^= 1
	if _, err := Unseal(key, blob); !errors.Is(err, ErrUnsealFailed) {
		t.Fatalf("tampered blob unsealed: %v", err)
	}
}

func TestAttestationReport(t *testing.T) {
	p, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	m := Measure([]byte("enclave"))
	var data [64]byte
	copy(data[:], "nonce")
	rep := p.CreateReport(m, data)
	if err := p.VerifyReport(rep); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	var wire bytes.Buffer
	if err := WriteReport(&wire, rep); err != nil || wire.Len() != 128 {
		t.Fatalf("WriteReport wrote %d bytes, %v", wire.Len(), err)
	}
	if back, err := ReadReport(&wire); err != nil || back != rep {
		t.Fatalf("ReadReport = %+v, %v; want the report written", back, err)
	}
	rep.Data[0] ^= 1
	if err := p.VerifyReport(rep); !errors.Is(err, ErrReportInvalid) {
		t.Fatalf("tampered report accepted: %v", err)
	}
	p2, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	rep2 := p.CreateReport(m, data)
	if err := p2.VerifyReport(rep2); err == nil {
		t.Fatal("cross-platform report accepted")
	}
}

func TestRegionGrow(t *testing.T) {
	e := New(Params{})
	r := e.Alloc(100)
	r.Grow(50)
	if r.Size() != 150 {
		t.Fatalf("size = %d", r.Size())
	}
	if e.Stats().EnclaveBytes != 150 {
		t.Fatalf("allocated = %d", e.Stats().EnclaveBytes)
	}
}
