package shard_test

import (
	"testing"

	"elsm/internal/core"
	"elsm/internal/kvtest"
	"elsm/internal/sgx"
	"elsm/internal/shard"
)

// TestConformance holds a 4-shard router of eLSM-P2 stores, sharing one
// enclave the way the public layer does, to the core.KV contract.
func TestConformance(t *testing.T) {
	kvtest.Run(t, kvtest.Opener{Name: "router4", PerShardTs: true, Open: func(t testing.TB) core.KV {
		enclave := sgx.New(sgx.Params{})
		shards := make([]core.KV, 4)
		for i := range shards {
			cfg := kvtest.SmallConfig()
			cfg.Enclave = enclave
			s, err := core.Open(cfg)
			if err != nil {
				t.Fatalf("open shard %d: %v", i, err)
			}
			shards[i] = s
		}
		r, err := shard.New(shards)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}})
}
