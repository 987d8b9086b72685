package netsrv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"elsm"
	"elsm/internal/obs"
)

// promLine matches one Prometheus text-format sample:
// name{label="v",...} value — the shape a scraper must be able to parse.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-][0-9]+)?$`)

// shardStat matches the STATS naming of a per-shard counter
// ("shard3_disk_bytes"): the shard, then the counter's own name.
var shardStat = regexp.MustCompile(`^shard([0-9]+)_(.+)$`)

// adminGet serves one request through the admin handler.
func adminGet(t *testing.T, srv *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, rec.Code)
	}
	return rec
}

// TestAdminEndpoint locks the operator surface: /metrics must be
// Prometheus-parseable and expose every STATS gauge (per-shard ones as
// shard-labeled series) plus the latency histograms as shard-labeled
// summaries; /traces and /events must decode as JSON; pprof must answer.
func TestAdminEndpoint(t *testing.T) {
	srv, addr := startServer(t, elsm.Options{Shards: 2}, Config{})
	c := dial(t, addr)
	for i := 0; i < 64; i++ {
		if _, err := c.Put([]byte(fmt.Sprintf("key%03d", i)), []byte("value")); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := c.Get([]byte(fmt.Sprintf("key%03d", i*7))); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	if _, err := c.Scan([]byte("key000"), []byte("key064")); err != nil {
		t.Fatalf("scan: %v", err)
	}

	rec := adminGet(t, srv, "/metrics")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q, want Prometheus text format", ct)
	}
	body := rec.Body.String()

	// Every sample line must parse; index the metric names and labels seen.
	plain := map[string]bool{}         // name → seen without labels
	shardLabeled := map[string]bool{}  // name → seen with a shard label
	shardQuantile := map[string]bool{} // name → seen with shard AND quantile labels
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("/metrics line not Prometheus-parseable: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		switch {
		case strings.Contains(line, `shard=`) && strings.Contains(line, `quantile=`):
			shardQuantile[name] = true
		case strings.Contains(line, `shard=`):
			shardLabeled[name] = true
		default:
			plain[name] = true
		}
	}

	// Every gauge the STATS commands expose must be on /metrics: aggregate
	// names verbatim, per-shard names as shard-labeled series. (hist_*
	// pairs are the wire encoding; here the histograms render natively.)
	for _, st := range srv.statsPairs() {
		if strings.HasPrefix(st.Name, "hist_") {
			continue
		}
		if m := shardStat.FindStringSubmatch(st.Name); m != nil {
			name := obs.PromName("elsm_" + m[2])
			if !shardLabeled[name] && !shardQuantile[name] {
				t.Errorf("per-shard stat %s (shard %s) missing from /metrics as %s{shard=...}", st.Name, m[1], name)
			}
			continue
		}
		if name := obs.PromName("elsm_" + st.Name); !plain[name] {
			t.Errorf("stat %s missing from /metrics as %s", st.Name, name)
		}
	}
	// The latency histograms: at least 6 distinct shard-labeled summaries.
	if len(shardQuantile) < 6 {
		t.Errorf("only %d shard-labeled summary metrics on /metrics, want >= 6: %v",
			len(shardQuantile), shardQuantile)
	}
	for _, want := range []string{"elsm_put_e2e_nanos", "elsm_commit_fsync_nanos", "elsm_get_e2e_nanos"} {
		if !shardQuantile[want] {
			t.Errorf("summary %s missing from /metrics", want)
		}
	}
	if !strings.Contains(body, "elsm_shards 2") {
		t.Errorf("/metrics missing topology gauge elsm_shards 2")
	}

	var traces struct {
		SampleEvery uint64      `json:"sample_every"`
		SlowNanos   uint64      `json:"slow_threshold_nanos"`
		Traces      []obs.Trace `json:"traces"`
		SlowOps     []obs.Trace `json:"slow_ops"`
	}
	if err := json.Unmarshal(adminGet(t, srv, "/traces").Body.Bytes(), &traces); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}
	if traces.SampleEvery == 0 || traces.SlowNanos == 0 {
		t.Errorf("/traces missing sampling config: %+v", traces)
	}

	var events struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(adminGet(t, srv, "/events").Body.Bytes(), &events); err != nil {
		t.Fatalf("/events not JSON: %v", err)
	}

	adminGet(t, srv, "/debug/pprof/cmdline")
}

// TestStatsAggregateIsTheSumOfItsShardLines: a STATS response and a /metrics
// page each collect the shards once, so beside concurrent writers every
// counter reported shard by shard (all of them fold by sum) still equals the
// sum of its own shardN_ lines — two collections would let the aggregate run
// ahead of the breakdown printed under it.
func TestStatsAggregateIsTheSumOfItsShardLines(t *testing.T) {
	srv, addr := startServer(t, elsm.Options{Shards: 4}, Config{})
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		c := dial(t, addr)
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Put(fmt.Appendf(nil, "w%d-key%06d", w, i), []byte("value")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	// check compares every shard-labeled name that also has an unlabeled
	// line (the latency summaries have a shard="all" series instead).
	check := func(surface string, total, shardSum map[string]uint64) {
		t.Helper()
		compared := 0
		for name, sum := range shardSum {
			if v, ok := total[name]; ok {
				compared++
				if v != sum {
					t.Errorf("%s: %s = %d, its shard lines add up to %d", surface, name, v, sum)
				}
			}
		}
		if compared == 0 {
			t.Fatalf("%s: no counter is reported both in total and by shard", surface)
		}
	}
	moved := false
	for round := 0; round < 200 && !t.Failed(); round++ {
		total, shardSum := map[string]uint64{}, map[string]uint64{}
		for _, st := range srv.statsPairs() {
			if m := shardStat.FindStringSubmatch(st.Name); m != nil {
				shardSum[m[2]] += st.Value
			} else {
				total[st.Name] = st.Value
			}
		}
		check("STATS", total, shardSum)
		moved = moved || total["group_commits"] > 0

		total, shardSum = map[string]uint64{}, map[string]uint64{}
		for _, line := range strings.Split(adminGet(t, srv, "/metrics").Body.String(), "\n") {
			var v uint64
			series, value, ok := strings.Cut(line, " ")
			if !ok || strings.HasPrefix(line, "#") {
				continue
			}
			if _, err := fmt.Sscan(value, &v); err != nil {
				continue // a summary's float
			}
			if name, _, perShard := strings.Cut(series, `{shard="`); perShard {
				shardSum[name] += v
			} else {
				total[series] = v
			}
		}
		check("/metrics", total, shardSum)
	}
	close(stop)
	writers.Wait()
	if !moved {
		t.Fatal("the writers never committed: the check raced nothing")
	}
}
