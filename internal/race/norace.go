//go:build !race

// Package race tells tests whether the race detector is built in. It drops
// sync.Pool puts at random, so allocation counts that rely on a pool are
// not exact under it; the guards that pin such counts skip those checks
// when Enabled is set.
package race

// Enabled reports a build with the race detector (go build -race).
const Enabled = false
