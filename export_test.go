package elsm

import "elsm/internal/core"

// ShardCores exposes every partition's ModeP2 core store to the external
// test package (the replication tests run there so that they can serve a
// leader through internal/netsrv, which imports this package).
func (s *Store) ShardCores() ([]*core.Store, error) { return s.shardCores() }
