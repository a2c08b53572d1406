package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/fabric"
)

// syncWriter serializes concurrent handler log writes onto one buffer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// newHTTPServer serves a preconfigured Server (newTestServer builds its
// own; option-bearing tests need to pass one in).
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

func TestRouteName(t *testing.T) {
	for pattern, want := range map[string]string{
		"GET /v1/run/{exp}": "/v1/run",
		"POST /v1/sweep":    "/v1/sweep",
		"GET /healthz":      "/healthz",
	} {
		if got := routeName(pattern); got != want {
			t.Fatalf("routeName(%q) = %q, want %q", pattern, got, want)
		}
	}
}

func TestHealthzV1(t *testing.T) {
	s, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready healthz: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("default healthz content type %q, want text", ct)
	}
	text := string(body)
	for _, want := range []string{"live: ok", "ready: true", "pool: ok", "disk_cache: disabled"} {
		if !strings.Contains(text, want) {
			t.Fatalf("healthz text missing %q:\n%s", want, text)
		}
	}

	var h HealthResponse
	resp = getJSON(t, ts.URL+"/v1/healthz?format=json", &h)
	if resp.StatusCode != http.StatusOK || !h.Live || !h.Ready || h.Checks["pool"] != "ok" {
		t.Fatalf("json healthz: status=%d body=%+v", resp.StatusCode, h)
	}

	// Draining flips readiness to 503 while liveness stays true — the
	// shutdown path sets this before http.Server.Shutdown drains.
	s.SetDraining(true)
	resp = getJSON(t, ts.URL+"/v1/healthz?format=json", &h)
	if resp.StatusCode != http.StatusServiceUnavailable || !h.Live || h.Ready || h.Checks["pool"] != "draining" {
		t.Fatalf("draining healthz: status=%d body=%+v", resp.StatusCode, h)
	}
	s.SetDraining(false)
	if resp := getJSON(t, ts.URL+"/v1/healthz?format=json", &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("undrained healthz: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/healthz?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad healthz format: status %d", resp.StatusCode)
	}
}

func TestPromMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	if resp := getJSON(t, ts.URL+runQuery, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("run failed: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE rowpress_runs_total counter",
		"rowpress_runs_total 1",
		"rowpress_shards_executed_total 2",    // fig7 with 2 modules plans 2 shards
		"rowpress_sub_shards_planned_total 6", // each module shard splits into 3 row-site chunks
		"rowpress_sub_shards_executed_total 6",
		`rowpress_cache_lookups_total{tier="miss"} 8`, // 2 unit lookups + 6 sub lookups
		`rowpress_cache_lookups_total{tier="mem_hit"} 0`,
		"rowpress_queue_waits_total 6", // only sub-shards occupy worker slots
		"rowpress_queue_wait_seconds_total",
		`rowpress_cache_entries{tier="mem"} 8`,        // 2 unit payloads + 6 sub payloads
		`rowpress_http_in_flight{route="/metrics"} 1`, // this very request
		`rowpress_http_responses_total{route="/v1/run",class="2xx"} 1`,
		`rowpress_http_request_duration_seconds_bucket{route="/v1/run",le="+Inf"} 1`,
		`rowpress_http_request_duration_seconds_count{route="/v1/run"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// /v1/metrics must carry the always-on latency aggregates and the
// per-endpoint histogram summaries alongside the historical counters.
func TestMetricsExtended(t *testing.T) {
	_, ts := newTestServer(t)
	getJSON(t, ts.URL+runQuery, nil) // cold: 2 unit + 6 sub miss lookups
	getJSON(t, ts.URL+runQuery, nil) // warm: 2 mem lookups at the unit level

	var m MetricsResponse
	getJSON(t, ts.URL+"/v1/metrics", &m)
	if m.QueueWaits != 6 || m.MissLookups != 8 || m.MemLookups != 2 {
		t.Fatalf("lookup aggregates: %+v", m)
	}
	// Both runs declare 6 sub-shards; only the cold run executes them
	// (the warm rerun resolves at the unit level).
	if m.SubsPlanned != 12 || m.SubsExecuted != 6 {
		t.Fatalf("sub-shard aggregates: %+v", m)
	}
	if m.QueueWaitAvgMS < 0 || m.QueueWaitTotalMS < 0 {
		t.Fatalf("queue wait negative: %+v", m)
	}
	ep, ok := m.Endpoints["/v1/run"]
	if !ok {
		t.Fatalf("endpoints missing /v1/run: %v", m.Endpoints)
	}
	if ep.Requests != 2 || ep.Status4xx != 0 || ep.Status5xx != 0 {
		t.Fatalf("/v1/run endpoint metrics: %+v", ep)
	}
	if ep.P95MS < ep.P50MS || ep.MaxMS <= 0 || ep.MeanMS <= 0 {
		t.Fatalf("/v1/run latency summary inconsistent: %+v", ep)
	}
	// Untouched routes still appear, with zero traffic.
	if ep, ok := m.Endpoints["/v1/sweep"]; !ok || ep.Requests != 0 {
		t.Fatalf("idle route missing or dirty: %+v", ep)
	}
}

// NDJSON shard events carry the tier/worker/queue/subs fields: a cold
// run executes on real workers (tier empty; split units report their
// sub-shard counts instead of a worker id), a warm rerun is all memory
// hits with no worker and no re-run subs, and in both cases every
// shard index appears exactly once before the done event.
func TestNDJSONShardEventObservability(t *testing.T) {
	_, ts := newTestServer(t)
	stream := func() []shardEvent {
		resp, err := http.Get(ts.URL + runQuery + "&format=ndjson")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var events []shardEvent
		dec := json.NewDecoder(resp.Body)
		doneSeen := false
		for dec.More() {
			var raw json.RawMessage
			if err := dec.Decode(&raw); err != nil {
				t.Fatal(err)
			}
			var probe struct {
				Event string `json:"event"`
			}
			if err := json.Unmarshal(raw, &probe); err != nil {
				t.Fatal(err)
			}
			if probe.Event == "done" {
				doneSeen = true
				continue
			}
			if doneSeen {
				t.Fatal("shard event after done")
			}
			var ev shardEvent
			if err := json.Unmarshal(raw, &ev); err != nil {
				t.Fatal(err)
			}
			events = append(events, ev)
		}
		if !doneSeen {
			t.Fatal("stream ended without done event")
		}
		return events
	}

	cold := stream()
	seen := map[int]bool{}
	for _, ev := range cold {
		if seen[ev.Index] {
			t.Fatalf("shard %d streamed twice", ev.Index)
		}
		seen[ev.Index] = true
		if ev.Cached || ev.Tier != "" || ev.QueueMS < 0 {
			t.Fatalf("cold event inconsistent: %+v", ev)
		}
		// fig7's module shards are split units: the parent holds no
		// worker slot (its sub-shards do), so Worker is -1 and the subs
		// accounting must close. A leaf shard would report Worker >= 0.
		if ev.Subs > 0 {
			if ev.Worker != -1 || ev.SubsRun != ev.Subs {
				t.Fatalf("cold split event inconsistent: %+v", ev)
			}
		} else if ev.Worker < 0 {
			t.Fatalf("cold leaf event inconsistent: %+v", ev)
		}
	}
	if len(cold) != 2 {
		t.Fatalf("cold stream: %d shard events, want 2", len(cold))
	}
	for _, ev := range stream() {
		if !ev.Cached || ev.Tier != engine.TierMem || ev.Worker != -1 {
			t.Fatalf("warm event inconsistent: %+v", ev)
		}
		if ev.SubsRun != 0 {
			t.Fatalf("warm event re-ran sub-shards: %+v", ev)
		}
	}
}

// WithLogger wires one structured "request" record per served request,
// carrying the id/method/path/status/duration/shard fields.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu syncWriter
	mu.w = &buf
	logger := slog.New(slog.NewTextHandler(&mu, nil))
	s := New(engine.New(2, 0), WithLogger(logger))
	ts := newHTTPServer(t, s)

	getJSON(t, ts.URL+runQuery, nil)
	getJSON(t, ts.URL+"/v1/experiments", nil)

	mu.mu.Lock()
	logs := buf.String()
	mu.mu.Unlock()
	lines := strings.Split(strings.TrimSpace(logs), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d request logs, want 2:\n%s", len(lines), logs)
	}
	run := lines[0]
	for _, want := range []string{
		"msg=request", "id=1", "method=GET", "path=/v1/run/fig7",
		"status=200", "duration=", "shards=2", "executed=2",
	} {
		if !strings.Contains(run, want) {
			t.Fatalf("run log missing %q: %s", want, run)
		}
	}
	if !strings.Contains(lines[1], "path=/v1/experiments") || !strings.Contains(lines[1], "shards=0") {
		t.Fatalf("experiments log wrong: %s", lines[1])
	}
}

// The default logger discards: constructing without WithLogger must
// not panic or write anywhere when requests flow.
func TestDefaultLoggerDiscards(t *testing.T) {
	s := New(engine.New(2, 0))
	ts := newHTTPServer(t, s)
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with default logger: %d", resp.StatusCode)
	}
}

func TestWithPprofRegistersHandlers(t *testing.T) {
	s := New(engine.New(2, 0), WithPprof())
	ts := newHTTPServer(t, s)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", resp.StatusCode)
	}
	// Without the option the path must not exist.
	s2 := New(engine.New(2, 0))
	ts2 := newHTTPServer(t, s2)
	resp, err = http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without WithPprof")
	}
}

// A fabric coordinator with an unreachable peer stays Ready — local
// fallback keeps every answer correct — but reports Degraded with the
// failing peer named, so orchestration sees an impaired fleet without
// pulling a correct daemon out of rotation.
func TestHealthzFabricDegraded(t *testing.T) {
	peerSrv := newHTTPServer(t, New(engine.New(1, 0)))
	dead := "http://127.0.0.1:1" // nothing listens on port 1
	fc, err := fabric.New([]string{peerSrv.URL, dead})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, New(engine.New(1, 0), WithFabric(fc)))

	var h HealthResponse
	resp := getJSON(t, ts.URL+"/v1/healthz?format=json", &h)
	if resp.StatusCode != http.StatusOK || !h.Ready {
		t.Fatalf("degraded coordinator must stay ready: status=%d body=%+v", resp.StatusCode, h)
	}
	if !h.Degraded {
		t.Fatalf("unreachable peer not reported as degraded: %+v", h)
	}
	if h.Checks["peer "+peerSrv.URL] != "ok" {
		t.Fatalf("live peer check = %q, want ok (checks %v)", h.Checks["peer "+peerSrv.URL], h.Checks)
	}
	if got := h.Checks["peer "+dead]; !strings.HasPrefix(got, "unreachable") {
		t.Fatalf("dead peer check = %q, want unreachable", got)
	}
	if h.Checks["fabric"] != "1/2 peers up" {
		t.Fatalf("fabric summary = %q", h.Checks["fabric"])
	}

	// Text form carries the degraded line for humans and grep.
	respT, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(respT.Body)
	respT.Body.Close()
	if !strings.Contains(string(body), "degraded: true") {
		t.Fatalf("healthz text missing degraded line:\n%s", body)
	}

	// A fully-live fleet is not degraded.
	fc2, err := fabric.New([]string{peerSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newHTTPServer(t, New(engine.New(1, 0), WithFabric(fc2)))
	var h2 HealthResponse // fresh: degraded is omitempty, a reused struct would keep the stale true
	resp = getJSON(t, ts2.URL+"/v1/healthz?format=json", &h2)
	if resp.StatusCode != http.StatusOK || h2.Degraded || h2.Checks["fabric"] != "1/1 peers up" {
		t.Fatalf("healthy fleet reported degraded: status=%d body=%+v", resp.StatusCode, h2)
	}
}
