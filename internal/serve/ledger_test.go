package serve

// Integration tests for the run-ledger surface: run/sweep stamping,
// /v1/history and /v1/compare in all three formats, warm-starting
// /v1/results from the ledger after a restart, the histogram bucket
// fields /v1/metrics must expose, and the load-test harness driving a
// live server end to end.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/report"
)

func newLedgerServer(t *testing.T, dir string) (*Server, *httptest.Server, *ledger.Ledger) {
	t.Helper()
	led, err := ledger.Open(dir, 0)
	if err != nil {
		t.Fatalf("ledger.Open: %v", err)
	}
	t.Cleanup(func() { led.Close() })
	s := New(engine.New(4, 0), WithLedger(led))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, led
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestRunsStampLedgerRecords(t *testing.T) {
	_, ts, led := newLedgerServer(t, t.TempDir())
	// Cold run misses every shard; the identical warm run hits memory.
	for i := 0; i < 2; i++ {
		if code, body := getBody(t, ts.URL+"/v1/run/fig6?scale=0.05"); code != http.StatusOK {
			t.Fatalf("run %d: code=%d body=%s", i, code, body)
		}
	}
	recs := led.Records(ledger.Query{Experiment: "fig6", Kind: ledger.KindRun})
	if len(recs) != 2 {
		t.Fatalf("ledger holds %d fig6 run records, want 2", len(recs))
	}
	warm, cold := recs[0], recs[1]
	if cold.Tiers.Miss == 0 || cold.Tiers.Mem != 0 {
		t.Fatalf("cold run tiers %+v, want all misses", cold.Tiers)
	}
	if warm.Tiers.Mem == 0 || warm.Tiers.Miss != 0 {
		t.Fatalf("warm run tiers %+v, want all mem hits", warm.Tiers)
	}
	if cold.OptionsHash == "" || cold.OptionsHash != warm.OptionsHash {
		t.Fatalf("options hashes differ for identical requests: %q vs %q", cold.OptionsHash, warm.OptionsHash)
	}
	if cold.DocHash == "" || cold.DocHash != warm.DocHash {
		t.Fatalf("doc hashes differ for identical requests: %q vs %q", cold.DocHash, warm.DocHash)
	}
	if cold.Tiers.Total() != cold.Shards {
		t.Fatalf("tier split %+v does not account for %d shards", cold.Tiers, cold.Shards)
	}
}

func TestSweepStampsLedgerRecord(t *testing.T) {
	_, ts, led := newLedgerServer(t, t.TempDir())
	body := `{"experiment":"fig6","scales":[0.05,0.1]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: code=%d", resp.StatusCode)
	}
	recs := led.Records(ledger.Query{Kind: ledger.KindSweep})
	if len(recs) != 1 {
		t.Fatalf("ledger holds %d sweep records, want 1", len(recs))
	}
	r := recs[0]
	if r.Experiment != "fig6" || r.OptionsHash == "" || r.DocHash == "" || r.Shards == 0 {
		t.Fatalf("sweep record incomplete: %+v", r)
	}
}

func TestHistoryEndpointFormats(t *testing.T) {
	_, ts, _ := newLedgerServer(t, t.TempDir())
	if code, body := getBody(t, ts.URL+"/v1/run/fig6?scale=0.05"); code != http.StatusOK {
		t.Fatalf("run: code=%d body=%s", code, body)
	}

	if code, body := getBody(t, ts.URL+"/v1/history"); code != http.StatusOK ||
		!strings.Contains(body, `"kind": "run"`) && !strings.Contains(body, `"kind":"run"`) {
		t.Fatalf("history json: code=%d body=%s", code, body)
	}
	if code, body := getBody(t, ts.URL+"/v1/history?format=text"); code != http.StatusOK ||
		!strings.Contains(body, "run history") || !strings.Contains(body, "fig6") {
		t.Fatalf("history text: code=%d body=%s", code, body)
	}
	if code, body := getBody(t, ts.URL+"/v1/history?format=csv"); code != http.StatusOK ||
		!strings.Contains(body, "fig6") {
		t.Fatalf("history csv: code=%d body=%s", code, body)
	}
	// Filters apply.
	if code, body := getBody(t, ts.URL+"/v1/history?experiment=nosuch"); code != http.StatusOK ||
		strings.TrimSpace(body) != "[]" {
		t.Fatalf("filtered history: code=%d body=%q", code, body)
	}
	if code, _ := getBody(t, ts.URL+"/v1/history?limit=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad limit: code=%d, want 400", code)
	}
}

func TestCompareEndpoint(t *testing.T) {
	_, ts, _ := newLedgerServer(t, t.TempDir())
	for i := 0; i < 2; i++ {
		if code, body := getBody(t, ts.URL+"/v1/run/fig6?scale=0.05"); code != http.StatusOK {
			t.Fatalf("run %d: code=%d body=%s", i, code, body)
		}
	}

	// Equal experiment selectors compare previous vs latest.
	code, body := getBody(t, ts.URL+"/v1/compare?a=fig6&b=fig6&format=text")
	if code != http.StatusOK {
		t.Fatalf("compare text: code=%d body=%s", code, body)
	}
	for _, want := range []string{"tier shift", "doc hashes match"} {
		if !strings.Contains(body, want) {
			t.Fatalf("compare text missing %q:\n%s", want, body)
		}
	}

	var cr CompareResponse
	resp := getJSON(t, ts.URL+"/v1/compare?a=fig6~1&b=fig6~0", &cr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare json: code=%d", resp.StatusCode)
	}
	if !cr.DeterminismChecked || cr.DeterminismViolation {
		t.Fatalf("identical runs: checked=%v violation=%v", cr.DeterminismChecked, cr.DeterminismViolation)
	}
	if cr.Doc == nil || cr.A.ID == "" || cr.B.ID == "" {
		t.Fatalf("compare json incomplete: %+v", cr)
	}

	if code, _ := getBody(t, ts.URL+"/v1/compare?a=fig6&b=fig6&format=csv"); code != http.StatusOK {
		t.Fatalf("compare csv: code=%d", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/compare?a=fig6"); code != http.StatusBadRequest {
		t.Fatalf("compare without ?b: code=%d, want 400", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/compare?a=nosuch&b=fig6"); code != http.StatusNotFound {
		t.Fatalf("compare unknown selector: code=%d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/compare?a=fig6&b=fig6&threshold=-1"); code != http.StatusBadRequest {
		t.Fatalf("compare bad threshold: code=%d, want 400", code)
	}
}

func TestHistoryWithoutLedger404s(t *testing.T) {
	_, ts := newTestServer(t)
	if code, _ := getBody(t, ts.URL+"/v1/history"); code != http.StatusNotFound {
		t.Fatalf("history without ledger: code=%d, want 404", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/compare?a=x&b=y"); code != http.StatusNotFound {
		t.Fatalf("compare without ledger: code=%d, want 404", code)
	}
}

// A restarted daemon must surface the previous process's runs in
// /v1/results, seeded from the ledger tail.
func TestResultsWarmStartFromLedger(t *testing.T) {
	dir := t.TempDir()
	_, ts, led := newLedgerServer(t, dir)
	if code, body := getBody(t, ts.URL+"/v1/run/fig6?scale=0.05"); code != http.StatusOK {
		t.Fatalf("run: code=%d body=%s", code, body)
	}
	ts.Close()
	led.Close()

	_, ts2, _ := newLedgerServer(t, dir)
	var results []ResultRecord
	getJSON(t, ts2.URL+"/v1/results", &results)
	if len(results) != 1 {
		t.Fatalf("restarted server reports %d results, want 1 from the ledger", len(results))
	}
	r := results[0]
	if r.Experiment != "fig6" || r.Kind != "run" || r.ID == "" {
		t.Fatalf("warm-started result incomplete: %+v", r)
	}
}

func TestMetricsExposeHistogramBuckets(t *testing.T) {
	_, ts := newTestServer(t)
	if code, body := getBody(t, ts.URL+"/v1/run/fig6?scale=0.05"); code != http.StatusOK {
		t.Fatalf("run: code=%d body=%s", code, body)
	}
	var m struct {
		Endpoints map[string]EndpointMetrics `json:"endpoints"`
	}
	getJSON(t, ts.URL+"/v1/metrics", &m)
	em, ok := m.Endpoints["/v1/run"]
	if !ok {
		t.Fatalf("no /v1/run endpoint metrics: %+v", m.Endpoints)
	}
	if len(em.BucketBoundsMS) == 0 || len(em.BucketCounts) != len(em.BucketBoundsMS)+1 {
		t.Fatalf("bucket layout bounds=%d counts=%d, want counts = bounds+1 > 1",
			len(em.BucketBoundsMS), len(em.BucketCounts))
	}
	var total uint64
	for _, c := range em.BucketCounts {
		total += c
	}
	if total != em.Requests {
		t.Fatalf("bucket counts sum %d != requests %d", total, em.Requests)
	}
}

// End-to-end: the load-test harness drives a live server, records
// client quantiles, and reconstructs the server-side window from
// /v1/metrics bucket deltas.
func TestLoadTestAgainstLiveServer(t *testing.T) {
	_, ts, led := newLedgerServer(t, t.TempDir())
	rec, doc, err := ledger.LoadTest(ledger.LoadTestConfig{
		BaseURL:  ts.URL,
		Clients:  3,
		Requests: 9,
		Mix:      []string{"fig6"},
		Scale:    0.05,
	})
	if err != nil {
		t.Fatalf("LoadTest: %v", err)
	}
	if rec.Kind != ledger.KindLoadTest || rec.Load == nil {
		t.Fatalf("load-test record incomplete: %+v", rec)
	}
	ls := rec.Load
	if ls.Errors != 0 {
		t.Fatalf("%d/%d requests failed", ls.Errors, ls.Requests)
	}
	if ls.ClientP50MS <= 0 || ls.ClientP99MS < ls.ClientP50MS {
		t.Fatalf("client quantiles implausible: %+v", ls)
	}
	if !ls.ServerWindow {
		t.Fatalf("server window not reconstructed from /v1/metrics buckets: %+v", ls)
	}
	if ls.ServerP50MS <= 0 {
		t.Fatalf("server p50 %v, want > 0", ls.ServerP50MS)
	}
	txt := report.Text(doc)
	if !strings.Contains(txt, "load test") || !strings.Contains(txt, "skew") {
		t.Fatalf("load-test doc missing sections:\n%s", txt)
	}
	stamped, err := led.Append(rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	got, ok := led.Get(stamped.ID)
	if !ok || got.Load == nil || got.Load.Clients != 3 {
		t.Fatalf("load-test record did not round-trip: %+v", got)
	}
}

// All requests failing is an error, not an empty record.
func TestLoadTestAllFailures(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer ts.Close()
	_, _, err := ledger.LoadTest(ledger.LoadTestConfig{BaseURL: ts.URL, Clients: 2, Requests: 4})
	if err == nil {
		t.Fatal("LoadTest against an all-failing server must error")
	}
}

// streamRun runs one experiment over NDJSON and returns its shard
// events. Goroutine-safe: problems come back as errors.
func streamRun(url string) ([]shardEvent, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	var events []shardEvent
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev shardEvent
		if err := dec.Decode(&ev); err != nil {
			return nil, err
		}
		switch ev.Event {
		case "shard":
			events = append(events, ev)
		case "done":
		default:
			return nil, fmt.Errorf("%s: event %q", url, ev.Event)
		}
	}
	return events, nil
}

// TestConcurrentRunsRecordOwnAccounting runs two experiments at once
// over NDJSON against one ledger-backed server, next to a sweep. Each
// run record must describe its own run exactly — tier split, queue-wait
// count and queue-wait total derived from that run's own event stream —
// however the runs interleave on the shared engine; the sweep record's
// tier split must total its shard references.
func TestConcurrentRunsRecordOwnAccounting(t *testing.T) {
	_, ts, led := newLedgerServer(t, t.TempDir())
	exps := []string{"fig6", "fig9"}
	events := make([][]shardEvent, len(exps))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, exp := range exps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var err error
			if events[i], err = streamRun(ts.URL + "/v1/run/" + exp + "?scale=0.05&format=ndjson"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"experiment":"fig7","scales":[0.05,0.1]}`))
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("sweep: status %d", resp.StatusCode)
		}
	}()
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, exp := range exps {
		recs := led.Records(ledger.Query{Experiment: exp, Kind: ledger.KindRun})
		if len(recs) != 1 {
			t.Fatalf("%s: %d run records, want 1", exp, len(recs))
		}
		rec := recs[0]
		var tiers ledger.TierCounts
		var waits uint64
		var waitMS float64
		for _, ev := range events[i] {
			switch {
			case !ev.Cached:
				tiers.Miss++
				if ev.Subs > 0 {
					waits += uint64(ev.SubsRun)
				} else {
					waits++
				}
			case ev.Tier == engine.TierMem:
				tiers.Mem++
			case ev.Tier == engine.TierDisk:
				tiers.Disk++
			case ev.Tier == engine.TierRemote:
				tiers.Remote++
			default:
				tiers.Join++
			}
			waitMS += ev.QueueMS
		}
		if rec.Shards != len(events[i]) || rec.Tiers != tiers {
			t.Errorf("%s: record shards=%d tiers=%+v, events give %d shards tiers=%+v",
				exp, rec.Shards, rec.Tiers, len(events[i]), tiers)
		}
		if rec.QueueWait.Count != waits {
			t.Errorf("%s: record queue_wait.count=%d, events executed %d", exp, rec.QueueWait.Count, waits)
		}
		if math.Abs(rec.QueueWait.TotalMS-waitMS) > 1e-6 {
			t.Errorf("%s: record queue_wait.total_ms=%v, events sum to %v", exp, rec.QueueWait.TotalMS, waitMS)
		}
	}

	sw := led.Records(ledger.Query{Kind: ledger.KindSweep})
	if len(sw) != 1 {
		t.Fatalf("%d sweep records, want 1", len(sw))
	}
	if sw[0].Tiers.Total() != sw[0].Shards || sw[0].Shards == 0 {
		t.Fatalf("sweep record tiers %+v total %d, want shard_refs %d", sw[0].Tiers, sw[0].Tiers.Total(), sw[0].Shards)
	}
}
