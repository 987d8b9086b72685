package netsrv

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"elsm"
	"elsm/internal/sgx"
)

// statNames lists, sorted, what an operator's tooling keys on: every STATS
// pair name, and every /metrics series (metric name with its labels).
func statNames(t *testing.T, srv *Server) (stats, series []string) {
	t.Helper()
	for _, st := range srv.statsPairs() {
		stats = append(stats, st.Name)
	}
	for _, line := range strings.Split(adminGet(t, srv, "/metrics").Body.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series = append(series, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	sort.Strings(stats)
	sort.Strings(series)
	return stats, series
}

// TestStatNamesGolden pins the names of the STATS verb and of /metrics for
// one and four shards, on a leader and on a follower, to a checked-in list
// written from the commit before the counter table existed: deriving the
// wire from the table must not rename, drop or add a single one. A deliberate
// change edits the list by hand: the failure names the first line that differs.
func TestStatNamesGolden(t *testing.T) {
	var got strings.Builder
	for _, shards := range []int{1, 4} {
		platform := sgx.NewPlatformFromSecret([]byte("golden"))
		leader, addr := startServer(t, elsm.Options{Shards: shards, Platform: platform}, Config{})
		fstore, err := elsm.OpenFollower(elsm.Options{Shards: shards, Platform: platform}, elsm.NewFollowerSource(addr))
		if err != nil {
			t.Fatal(err)
		}
		defer fstore.Close()
		follower, err := New(fstore, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// The same small traffic every time, so the same histograms have
		// observations: writes that reach every shard, a read and a scan on
		// both sides, the follower's after it has applied every group.
		c := dial(t, addr)
		const keys = 64
		for i := 0; i < keys; i++ {
			if _, err := c.Put([]byte(fmt.Sprintf("key%03d", i)), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		if err := leader.store.Flush(); err != nil { // so reads verify against a run
			t.Fatal(err)
		}
		if _, err := c.Get([]byte("key001")); err != nil {
			t.Fatal(err)
		}
		sc, err := c.Scan([]byte("key000"), []byte("key999"))
		if err != nil {
			t.Fatal(err)
		}
		for sc.Next() {
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			rows, err := fstore.Scan([]byte("key000"), []byte("key999"))
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == keys {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower applied %d of %d keys", len(rows), keys)
			}
		}
		if err := fstore.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := fstore.Get([]byte("key001")); err != nil {
			t.Fatal(err)
		}
		if _, err := fstore.Scan([]byte("key000"), []byte("key999")); err != nil {
			t.Fatal(err)
		}
		for _, side := range []struct {
			role string
			srv  *Server
		}{{"leader", leader}, {"follower", follower}} {
			stats, series := statNames(t, side.srv)
			fmt.Fprintf(&got, "== STATS shards=%d %s\n%s\n", shards, side.role, strings.Join(stats, "\n"))
			fmt.Fprintf(&got, "== /metrics shards=%d %s\n%s\n", shards, side.role, strings.Join(series, "\n"))
		}
	}
	const path = "testdata/stat_names.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("names differ from %s at line %d: got %q, want %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("names differ from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
