package elsm

import (
	"elsm/internal/core"
	"elsm/internal/obs"
)

// LoadedSet exposes, from ONE load of the engine pointer, every partition's
// ModeP2 core store and its recorder to the external test package (the
// replication tests run there so that they can serve a leader through
// internal/netsrv, which imports this package).
func (s *Store) LoadedSet() ([]*core.Store, []*obs.Recorder) {
	set := s.eng.Load()
	cores := make([]*core.Store, len(set.shards))
	for i := range cores {
		cores[i] = set.p2(i)
	}
	return cores, set.recs
}
