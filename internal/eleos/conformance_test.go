package eleos_test

import (
	"testing"

	"elsm/internal/core"
	"elsm/internal/eleos"
	"elsm/internal/kvtest"
)

// TestConformance holds the Eleos comparator to the core.KV contract, as far
// as an update-in-place array can meet it (no snapshots, no history).
func TestConformance(t *testing.T) {
	kvtest.Run(t, kvtest.Opener{Name: "eleos", UpdateInPlace: true, Open: func(t testing.TB) core.KV {
		s, err := eleos.Open(eleos.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}})
}
