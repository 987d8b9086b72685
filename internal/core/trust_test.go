package core

import (
	"context"
	"errors"
	"maps"
	"testing"

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
		s.Engine().SetRunTrust(func(id uint64, _ []byte) any {
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
