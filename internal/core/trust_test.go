package core

import (
	"context"
	"errors"
	"maps"
	"sync"
	"testing"
	"time"

	"elsm/internal/record"
	"elsm/internal/vfs"
)

// TestRunWithoutTrustFailsReads: in a version where a pinned run carries no
// trusted state, every verified read that reaches the run — Get, GetAt and a
// Scan chunk — fails as an authentication failure. None skips the run, which
// may hold the newest version of the key. Once the run carries its state
// again, the same reads succeed.
func TestRunWithoutTrustFailsReads(t *testing.T) {
	s := mustOpenP2(t, earlyStopCfg(vfs.NewMem()))
	defer s.Close()
	runs := earlyStopTree(t, s)
	s.mu.Lock()
	trusted := maps.Clone(s.trusted)
	s.mu.Unlock()
	bare := runs[1].ID // {mid}: the key is in no other run
	setTrust := func(strip bool) {
		s.Engine().SetRunTrust(func(id uint64) any {
			if strip && id == bare {
				return nil
			}
			return trusted[id]
		})
	}
	reads := []struct {
		name string
		read func() ([]Result, error)
	}{
		{"Get", func() ([]Result, error) {
			res, err := Get(s, []byte("mid"))
			return []Result{res}, err
		}},
		{"GetAt", func() ([]Result, error) {
			res, err := s.GetAt(context.Background(), []byte("mid"), s.Engine().AppliedTs())
			return []Result{res}, err
		}},
		{"Scan", func() ([]Result, error) { return Scan(s, []byte("a"), []byte("z")) }},
	}
	setTrust(true)
	for _, r := range reads {
		if res, err := r.read(); !errors.Is(err, ErrUntrustedRun) || !errors.Is(err, ErrAuthFailed) {
			t.Errorf("%s over a run without trusted state = %+v, %v; want ErrUntrustedRun", r.name, res, err)
		}
	}
	setTrust(false)
	for _, r := range reads {
		if res, err := r.read(); err != nil || !res[0].Found {
			t.Errorf("%s once the run carries its state again = %+v, %v", r.name, res, err)
		}
	}
}

// TestCompactedRunGetsNoRebuiltFilter: a compaction retires a run while the
// filter rebuild Open started is held on it — before the run's pass, or in
// the middle of it, with the pass's snapshot pinning the run. The pass then
// publishes nothing, so no filter is charged for the run: the enclave holds
// its fixed budgets and the live runs' filters alone.
func TestCompactedRunGetsNoRebuiltFilter(t *testing.T) {
	for _, inPass := range []bool{false, true} {
		name := map[bool]string{false: "before the pass", true: "in the pass"}[inPass]
		t.Run(name, func(t *testing.T) {
			cfg := earlyStopCfg(vfs.NewMem())
			s := mustOpenP2(t, cfg)
			first := earlyStopTree(t, s)[0].ID // the rebuild's first run
			held, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			hold := func() {
				once.Do(func() {
					close(held)
					<-release
				})
			}
			if inPass {
				cfg.rebuildTamper = func(record.Record, bool) { hold() }
			} else {
				cfg.holdRebuild = func(id uint64) {
					if id == first {
						hold()
					}
				}
			}
			s = reopenWith(t, s, cfg)
			defer s.Close()
			select {
			case <-held:
			case <-time.After(30 * time.Second):
				t.Fatal("the reopened store started no filter rebuild")
			}
			err := s.Compact(1)
			close(release)
			if err != nil {
				t.Fatal(err)
			}
			s.rebuildDone.Wait()
			for _, r := range s.Engine().Runs() {
				if r.ID == first {
					t.Fatalf("run %d survived the compaction", first)
				}
			}
			if runFilterOf(s, first) != nil {
				t.Errorf("the retired run %d has a filter", first)
			}
			checkEnclaveBytes(t, s)
		})
	}
}
