// Admin/observability HTTP endpoint. The binary protocol's STATS frame is
// the machine interface for clients already speaking netproto; this file
// is the operator interface: a plain HTTP handler serving Prometheus
// text-format metrics, pprof profiles, and the observability rings as
// JSON. cmd/elsm-server mounts it behind the opt-in -admin flag.
//
// Security: the handler is plaintext and unauthenticated — everything it
// serves is diagnostic, but profiles and event messages can leak workload
// shape, so the server binds it to localhost by default and operators who
// expose it wider must front it themselves (see cmd/elsm-server).
package netsrv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	"elsm"
	"elsm/internal/netproto"
	"elsm/internal/obs"
)

// AdminHandler returns the observability HTTP handler for this server:
//
//	/metrics               Prometheus text format: every STATS gauge
//	                       (elsm_* with per-shard labels) plus the latency
//	                       histograms as summaries
//	/debug/pprof/*         the standard Go profiles
//	/traces                sampled commit-pipeline traces + slow-op log, JSON
//	/events                the structured event ring, JSON
//
// The handler is independent of the TCP listeners: mount it on any
// http.Server (cmd/elsm-server's -admin flag does).
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics renders every counter the STATS verb exposes, in
// Prometheus text format under the elsm_ prefix: store and net_* gauges,
// the per-shard ones again as one shard-labeled series per entry of the
// same Store.ShardStats collection the store gauges were folded from, then the per-shard latency histograms as summaries with
// a merged shard="all" series, then the hub-level histograms and event
// counter. (STATS carries the histograms as hist_* quantile pairs; here
// they render natively.)
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	gauge := func(name string, v uint64) { obs.WriteGauge(&buf, "elsm_"+name, v) }
	shards := s.store.ShardStats()
	elsm.FoldStats(shards).Counters(false, gauge)
	s.Stats().counters(gauge)
	var rows [][]netproto.Stat // rows[i]: shard i's per-shard counters
	for _, ss := range shards {
		var row []netproto.Stat
		ss.Counters(true, func(name string, v uint64) { row = append(row, netproto.Stat{Name: name, Value: v}) })
		rows = append(rows, row)
	}
	for j, c := range rows[0] {
		name := obs.PromName("elsm_" + c.Name)
		fmt.Fprintf(&buf, "# TYPE %s gauge\n", name)
		for i, row := range rows {
			fmt.Fprintf(&buf, "%s{shard=\"%d\"} %d\n", name, i, row[j].Value)
		}
	}
	obs.WriteRecorderMetrics(&buf, "elsm_", s.store.Recorders())
	if o := s.obs; o != nil {
		obs.WriteSummary(&buf, "elsm_net_service_nanos",
			[]obs.SummarySeries{{Snap: o.NetService.Snapshot()}})
		obs.WriteSummary(&buf, "elsm_router_batch_nanos",
			[]obs.SummarySeries{{Snap: o.RouterBatch.Snapshot()}})
		obs.WriteGauge(&buf, "elsm_events_total", o.EventsTotal())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// handleTraces serves the sampled trace ring and the slow-op log, oldest
// first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	o := s.obs
	writeJSON(w, struct {
		SampleEvery uint64      `json:"sample_every"`
		SlowNanos   uint64      `json:"slow_threshold_nanos"`
		Traces      []obs.Trace `json:"traces"`
		SlowOps     []obs.Trace `json:"slow_ops"`
	}{o.SampleEvery(), uint64(o.SlowThreshold()), o.Traces(), o.SlowOps()})
}

// handleEvents serves the structured event ring, oldest first, with the
// all-time count so a consumer can detect eviction between polls.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	o := s.obs
	writeJSON(w, struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}{o.EventsTotal(), o.Events()})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
