package repl

import (
	"testing"
	"time"
)

// The network-source tests live in the external test package (they serve a
// leader through internal/netsrv, which imports this package by way of
// elsm); these are the helpers and knobs they share with the tests here.
var (
	Bootstrap    = bootstrap
	WaitCaughtUp = waitCaughtUp
)

// TightenNet shortens the network source's idle deadline, and the leader's
// heartbeat to a fifth of it, for one test.
func TightenNet(t *testing.T, idle time.Duration) {
	oldIdle, oldBeat := netIdleTimeout, HeartbeatInterval
	netIdleTimeout, HeartbeatInterval = idle, idle/5
	t.Cleanup(func() { netIdleTimeout, HeartbeatInterval = oldIdle, oldBeat })
}
