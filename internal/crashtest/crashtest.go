// Package crashtest is a systematic crash-point fault-injection harness:
// it runs a workload once to COUNT every filesystem operation it performs
// (scoped by an op mask and path glob), then re-runs it once per operation
// k with the disk armed to die at exactly op k — torn write and all — and
// after each simulated crash recovers the store and checks the durability
// invariants:
//
//   - recovery succeeds (a crash must never read as tampering or rollback),
//   - every write acknowledged as durable before the crash is present and
//     verifies byte for byte,
//   - commit groups are atomic — an unacknowledged batch is recovered
//     whole or not at all,
//   - tamper detection is still alive (a corrupted byte in the recovered
//     state is rejected, so crash tolerance has not widened into accepting
//     arbitrary damage).
//
// Scenarios enumerate the crash surface of one subsystem each: WAL
// appends, flush installs and their seals, checkpoint restore, promotion. The
// enumeration is exhaustive in normal mode and deterministically sampled
// in -short mode.
package crashtest

import (
	"fmt"
	"testing"

	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// maxShortPoints caps the crash points per scenario in -short mode.
const maxShortPoints = 25

// maxPoints caps the crash points per scenario even in full mode — a
// workload's op count can drift with background-maintenance timing, and
// the matrix must stay bounded. It is above every scenario's count (the
// largest, parallel-maintenance, performs about 500), so a full run is
// exhaustive.
const maxPoints = 800

// Group records one attempted commit group: its keys and values, and
// whether the store acknowledged it as durable. Acked groups must survive
// a crash completely; unacked groups must recover whole or not at all.
type Group struct {
	Keys  []string
	Vals  []string
	Acked bool
}

// Env is one crash-point execution environment: a fresh fault-injecting
// filesystem over a fresh memory disk, a fresh trust root, and the
// workload's durability bookkeeping. The monotonic counter deliberately
// survives the "crash" — it models the platform's trusted hardware
// counter, which persists across power loss.
type Env struct {
	Mem      *vfs.MemFS
	Fault    *vfs.FaultFS
	Platform *sgx.Platform
	Counter  *sgx.MonotonicCounter

	// Acked maps key → value for every write the store acknowledged as
	// durable before the crash.
	Acked map[string]string
	// Groups records every attempted commit group (atomicity checks).
	Groups []Group

	mask vfs.Op
	glob string
	k    int // crash at the k-th matching op; -1 = count mode
	torn bool
}

// ArmCrash arms the scenario's crash point: from this moment on, matching
// filesystem operations count, and the k-th one kills the disk. Scenarios
// with SelfArm call it themselves at the point in the workload where the
// crash window starts; otherwise the harness arms before Run.
func (e *Env) ArmCrash() {
	e.Fault.ArmFilter(e.mask, e.glob)
	e.Fault.SetTornWrites(e.torn)
	if e.k >= 0 {
		e.Fault.Arm(e.k)
	}
}

// Ack records a write acknowledged as durable.
func (e *Env) Ack(key, val string) {
	e.Acked[key] = val
}

// AckGroup records one attempted commit group and, when acked, its keys.
func (e *Env) AckGroup(keys, vals []string, acked bool) {
	e.Groups = append(e.Groups, Group{Keys: keys, Vals: vals, Acked: acked})
	if acked {
		for i, k := range keys {
			e.Acked[k] = vals[i]
		}
	}
}

// Scenario is one workload whose crash surface the harness enumerates.
type Scenario struct {
	// Name labels the subtest tree.
	Name string
	// Mask scopes which operation types are crash points (default
	// vfs.OpMutating — operations that change durable state).
	Mask vfs.Op
	// Glob scopes which paths are crash points ("" = every path).
	Glob string
	// Torn makes the crashing write tear (persist a prefix) instead of
	// failing cleanly — the harsher power-loss model.
	Torn bool
	// SelfArm defers arming to the workload's own ArmCrash call, so setup
	// operations (bootstrap, catch-up) are not counted as crash points.
	SelfArm bool
	// Platform overrides the per-run platform (scenarios that attest
	// against a fixed leader need to share its platform). Nil = fresh.
	Platform *sgx.Platform

	// Run drives the workload against env.Fault. It must tolerate
	// injected failures (the disk DOES die mid-run): record durability
	// acks via env.Ack/env.AckGroup only on success, and return normally.
	Run func(env *Env)
	// Verify checks the invariants after the crash: the harness has
	// already disarmed the fault, so env.Fault is a healthy disk holding
	// exactly the state the crash left behind.
	Verify func(t *testing.T, env *Env)
}

// newEnv builds a fresh environment for one enumeration point.
func (sc *Scenario) newEnv(tb testing.TB, k int) *Env {
	platform := sc.Platform
	if platform == nil {
		var err error
		platform, err = sgx.NewPlatform()
		if err != nil {
			tb.Fatal(err)
		}
	}
	mask := sc.Mask
	if mask == 0 {
		mask = vfs.OpMutating
	}
	mem := vfs.NewMem()
	return &Env{
		Mem:      mem,
		Fault:    vfs.NewFault(mem),
		Platform: platform,
		Counter:  sgx.NewMonotonicCounter(),
		Acked:    make(map[string]string),
		mask:     mask,
		glob:     sc.Glob,
		k:        k,
		torn:     sc.Torn,
	}
}

// Enumerate runs the scenario's full crash-point matrix: a count run with
// an unlimited budget learns how many matching operations the workload
// performs, then each selected operation index gets its own subtest that
// crashes there, recovers, and verifies. Operation counts can drift
// slightly between runs (background maintenance), so a point past the end
// of a particular run simply never trips — the workload completes and
// Verify checks a healthy store, a vacuous pass.
func Enumerate(t *testing.T, sc Scenario) {
	t.Helper()
	t.Run(sc.Name, func(t *testing.T) {
		env := sc.newEnv(t, -1)
		if !sc.SelfArm {
			env.ArmCrash()
		}
		sc.Run(env)
		if env.Fault.Tripped() {
			t.Fatalf("count run tripped a fault with an unlimited budget: %s", env.Fault.TrippedOn())
		}
		n := int(env.Fault.MatchingOps())
		if n == 0 {
			t.Fatalf("workload performed no matching operations — nothing to enumerate")
		}
		sc.Verify(t, env) // the fault-free run must satisfy the invariants too
		for _, k := range samplePoints(n, testing.Short()) {
			k := k
			t.Run(fmt.Sprintf("crash-at-op-%03d", k), func(t *testing.T) {
				env := sc.newEnv(t, k)
				if !sc.SelfArm {
					env.ArmCrash()
				}
				sc.Run(env)
				env.Fault.Disarm()
				sc.Verify(t, env)
			})
		}
	})
}

// samplePoints selects which of the n crash points to run: all of them
// when they fit the budget, otherwise a deterministic even sample that
// always includes the first and last point.
func samplePoints(n int, short bool) []int {
	budget := maxPoints
	if short {
		budget = maxShortPoints
	}
	if n <= budget {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, budget)
	for i := 0; i < budget; i++ {
		out = append(out, i*(n-1)/(budget-1))
	}
	// The even stride can repeat indices when n is close to the budget;
	// dedup while preserving order.
	dedup := out[:0]
	last := -1
	for _, k := range out {
		if k != last {
			dedup = append(dedup, k)
			last = k
		}
	}
	return dedup
}
