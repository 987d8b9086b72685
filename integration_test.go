package elsm

import (
	"fmt"
	"testing"

	"elsm/internal/sgx"
	"elsm/internal/vfs"
	"elsm/internal/ycsb"
)

func newTestFS() vfs.FS { return vfs.NewMem() }

func newTestTrust(t *testing.T) (*sgx.Platform, *sgx.MonotonicCounter) {
	t.Helper()
	plat, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	return plat, sgx.NewMonotonicCounter()
}

// TestYCSBWorkloadsAllModes drives the six standard YCSB workloads against
// every store design: the full read/update/insert/scan/read-modify-write
// surface must execute without verification failures through flushes and
// compactions.
func TestYCSBWorkloadsAllModes(t *testing.T) {
	const loaded = 2000
	workloads := []ycsb.Workload{
		ycsb.WorkloadA(), ycsb.WorkloadB(), ycsb.WorkloadC(),
		ycsb.WorkloadD(), ycsb.WorkloadE(), ycsb.WorkloadF(),
	}
	for _, mode := range []Mode{ModeP2, ModeP1, ModeUnsecured} {
		for _, wl := range workloads {
			t.Run(fmt.Sprintf("%s/workload%s", mode, wl.Name), func(t *testing.T) {
				opts := testOptions(mode)
				s, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				bulkLoad(t, s, ycsb.GenRecords(loaded, 64))
				wl.ValueSize = 64
				r := ycsb.NewRunner(storeDB{s}, wl, loaded, 99)
				st, err := r.RunOps(800)
				if err != nil {
					t.Fatalf("workload %s on %s: %v", wl.Name, mode, err)
				}
				if st.Errors != 0 {
					t.Fatalf("workload %s on %s: %d op errors", wl.Name, mode, st.Errors)
				}
			})
		}
	}
}

// TestConcurrentYCSBOnVerifiedStore drives the multi-threaded YCSB runner
// against eLSM-P2: concurrent verified reads and authenticated writes with
// live flushes/compactions must complete without a single verification
// failure (§5.5.2 "Multi-threading").
func TestConcurrentYCSBOnVerifiedStore(t *testing.T) {
	s, err := Open(testOptions(ModeP2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 1500
	bulkLoad(t, s, ycsb.GenRecords(n, 64))
	wl := ycsb.WorkloadA()
	wl.ValueSize = 64
	st, err := ycsb.RunConcurrent(storeDB{s}, wl, n, 4, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("%d verification/op errors under concurrency", st.Errors)
	}
	if st.Ops != 2000 {
		t.Fatalf("ops = %d", st.Ops)
	}
}

// TestMixedWriteThenScanConsistency interleaves writes and verified scans,
// checking scans reflect all completed writes (read-your-writes through
// the verified path).
func TestMixedWriteThenScanConsistency(t *testing.T) {
	s, err := Open(testOptions(ModeP2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; round < 10; round++ {
		for i := 0; i < 100; i++ {
			key := fmt.Sprintf("r%02d-key%03d", round, i)
			if _, err := s.Put([]byte(key), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		out, err := s.Scan([]byte(fmt.Sprintf("r%02d-", round)), []byte(fmt.Sprintf("r%02d-z", round)))
		if err != nil {
			t.Fatalf("round %d scan: %v", round, err)
		}
		if len(out) != 100 {
			t.Fatalf("round %d scan saw %d of 100 fresh writes", round, len(out))
		}
	}
}

// TestReopenLoop exercises repeated clean close/reopen cycles with the
// same platform and counter (a long-lived service restarting).
func TestReopenLoop(t *testing.T) {
	opts := testOptions(ModeP2)
	opts.FS = newTestFS()
	plat, counter := newTestTrust(t)
	opts.Platform = plat
	opts.ShardCounters = []*sgx.MonotonicCounter{counter}

	total := 0
	for cycle := 0; cycle < 5; cycle++ {
		s, err := Open(opts)
		if err != nil {
			t.Fatalf("cycle %d open: %v", cycle, err)
		}
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("c%d-k%03d", cycle, i)
			if _, err := s.Put([]byte(key), []byte("v")); err != nil {
				t.Fatal(err)
			}
			total++
		}
		// All data from every earlier cycle must still verify.
		for c := 0; c <= cycle; c++ {
			res, err := s.Get([]byte(fmt.Sprintf("c%d-k000", c)))
			if err != nil || !res.Found {
				t.Fatalf("cycle %d: key from cycle %d: %+v err=%v", cycle, c, res, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cycle %d close: %v", cycle, err)
		}
	}
}
