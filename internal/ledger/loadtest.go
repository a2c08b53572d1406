package ledger

// This file is the serving-path load-test harness: k concurrent
// clients drive a live rowpressd over a request mix while a client-side
// latency histogram records what callers actually experience. The
// server's own view of the same window is captured by snapshotting
// /v1/metrics histogram buckets before and after and subtracting
// (obs.HistogramSnapshot.Sub), so the record carries client p50/p95/p99
// *and* server p50/p99 for the identical request window — the skew is
// computed once, here, not eyeballed across two outputs. Results are
// stamped into the ledger like any run, giving the serving path the
// same benchmark trajectory the compute path has.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
)

// LoadTestConfig drives one load test. Zero fields select defaults.
type LoadTestConfig struct {
	BaseURL  string        // target daemon, e.g. "http://localhost:8271"
	Clients  int           // concurrent clients (default 4)
	Requests int           // total requests across all clients (default 32)
	Mix      []string      // experiment ids issued round-robin (default fig6)
	Scale    float64       // ?scale on every request (default 0.05)
	Seed     uint64        // ?seed on every request (default 1)
	Timeout  time.Duration // per-request bound (default 120s)
	Client   *http.Client  // optional transport override (tests)
}

func (c *LoadTestConfig) normalize() error {
	if c.BaseURL == "" {
		return fmt.Errorf("ledger: loadtest: no target URL")
	}
	if _, err := url.Parse(c.BaseURL); err != nil {
		return fmt.Errorf("ledger: loadtest: bad target URL %q: %v", c.BaseURL, err)
	}
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Requests <= 0 {
		c.Requests = 32
	}
	if len(c.Mix) == 0 {
		c.Mix = []string{"fig6"}
	}
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: c.Timeout}
	}
	return nil
}

// endpointBuckets is the slice of /v1/metrics the harness needs: the
// per-route histogram state (serve.EndpointMetrics on the wire).
// Decoded leniently — a daemon without bucket fields just yields no
// server window.
type endpointBuckets struct {
	Requests       uint64    `json:"requests"`
	MeanMS         float64   `json:"mean_ms"`
	MaxMS          float64   `json:"max_ms"`
	BucketBoundsMS []float64 `json:"bucket_bounds_ms"`
	BucketCounts   []uint64  `json:"bucket_counts"`
}

// snapshot reconstructs the route histogram as an obs snapshot so the
// window delta and quantile interpolation reuse the serving math.
func (e endpointBuckets) snapshot() (obs.HistogramSnapshot, bool) {
	if len(e.BucketCounts) != len(e.BucketBoundsMS)+1 || len(e.BucketBoundsMS) == 0 {
		return obs.HistogramSnapshot{}, false
	}
	s := obs.HistogramSnapshot{
		Bounds: make([]time.Duration, len(e.BucketBoundsMS)),
		Counts: append([]uint64(nil), e.BucketCounts...),
		Count:  e.Requests,
		Sum:    time.Duration(e.MeanMS * float64(e.Requests) * float64(time.Millisecond)),
		Max:    time.Duration(e.MaxMS * float64(time.Millisecond)),
	}
	for i, b := range e.BucketBoundsMS {
		s.Bounds[i] = time.Duration(b * float64(time.Millisecond))
	}
	return s, true
}

// metricsView is the slice of /v1/metrics the harness reads: the
// /v1/run route histogram plus the engine/fabric counters that locate
// the test's shard work (local execution vs fabric peers). Decoded
// leniently — a daemon without these fields yields zeros.
type metricsView struct {
	ShardsExecuted uint64 `json:"shards_executed"`
	RemoteHits     uint64 `json:"remote_hits"`
	Fabric         *struct {
		Peers int `json:"peers"`
	} `json:"fabric"`
	Endpoints map[string]endpointBuckets `json:"endpoints"`
}

func (m metricsView) runBuckets() (obs.HistogramSnapshot, bool) {
	return m.Endpoints["/v1/run"].snapshot()
}

// maxMetricsBody caps the /v1/metrics body the harness reads. A
// daemon's metrics are a few kilobytes; a body past the cap comes from
// something that is not a rowpressd and is treated like one that
// exposes no metrics, not read without bound.
const maxMetricsBody = 1 << 20

// fetchMetrics snapshots the target's /v1/metrics. ok is false when
// the endpoint is unreachable, answers more than maxMetricsBody bytes,
// or does not answer JSON.
func fetchMetrics(c *LoadTestConfig) (metricsView, bool) {
	resp, err := c.Client.Get(c.BaseURL + "/v1/metrics")
	if err != nil {
		return metricsView{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return metricsView{}, false
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxMetricsBody+1))
	if err != nil || len(b) > maxMetricsBody {
		return metricsView{}, false
	}
	var m metricsView
	if err := json.Unmarshal(b, &m); err != nil {
		return metricsView{}, false
	}
	return m, true
}

// LoadTest runs the configured test and returns the ledger record
// (unappended — the caller owns ledger placement) and its rendered
// document. An error is returned only when the test could not run at
// all; per-request failures are counted in the record.
func LoadTest(cfg LoadTestConfig) (Record, *report.Doc, error) {
	if err := cfg.normalize(); err != nil {
		return Record{}, nil, err
	}
	beforeM, beforeOK := fetchMetrics(&cfg)
	var before obs.HistogramSnapshot
	if beforeOK {
		before, beforeOK = beforeM.runBuckets()
	}

	hist := obs.NewLatencyHistogram()
	var errs atomic.Int64
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				exp := cfg.Mix[i%len(cfg.Mix)]
				u := fmt.Sprintf("%s/v1/run/%s?scale=%g&seed=%d&format=text",
					cfg.BaseURL, url.PathEscape(exp), cfg.Scale, cfg.Seed)
				req, err := http.NewRequest(http.MethodGet, u, nil)
				if err != nil {
					errs.Add(1)
					continue
				}
				t0 := time.Now()
				resp, err := cfg.Client.Do(req)
				if err != nil {
					errs.Add(1)
					continue
				}
				// Drain the body so the measured latency covers the full
				// response, not just the header.
				_, cerr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				hist.Observe(time.Since(t0))
				if resp.StatusCode != http.StatusOK || cerr != nil {
					errs.Add(1)
				}
			}
		}()
	}
	for i := 0; i < cfg.Requests; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)

	failed := int(errs.Load())
	if failed == cfg.Requests {
		return Record{}, nil, fmt.Errorf("ledger: loadtest: all %d requests against %s failed", cfg.Requests, cfg.BaseURL)
	}

	snap := hist.Snapshot()
	ls := &LoadStats{
		Target:        cfg.BaseURL,
		Mix:           cfg.Mix,
		Clients:       cfg.Clients,
		Requests:      cfg.Requests,
		Errors:        failed,
		DurationMS:    ms(wall),
		ThroughputRPS: float64(cfg.Requests) / wall.Seconds(),
		ClientP50MS:   ms(snap.Quantile(0.50)),
		ClientP95MS:   ms(snap.Quantile(0.95)),
		ClientP99MS:   ms(snap.Quantile(0.99)),
		ClientMeanMS:  ms(snap.Mean()),
		ClientMaxMS:   ms(snap.Max),
	}
	var window obs.HistogramSnapshot
	if afterM, afterOK := fetchMetrics(&cfg); afterOK {
		if afterM.Fabric != nil {
			ls.Peers = afterM.Fabric.Peers
		}
		ls.RemoteExecuted = afterM.RemoteHits - min(beforeM.RemoteHits, afterM.RemoteHits)
		ls.LocalExecuted = afterM.ShardsExecuted - min(beforeM.ShardsExecuted, afterM.ShardsExecuted)
		if after, ok := afterM.runBuckets(); beforeOK && ok {
			window = after.Sub(before)
			if window.Count > 0 {
				ls.ServerWindow = true
				ls.ServerP50MS = ms(window.Quantile(0.50))
				ls.ServerP99MS = ms(window.Quantile(0.99))
				ls.SkewP50MS = ls.ClientP50MS - ls.ServerP50MS
				ls.SkewP99MS = ls.ClientP99MS - ls.ServerP99MS
			}
		}
	}

	rec := Record{
		Kind:       KindLoadTest,
		Experiment: strings.Join(cfg.Mix, "+"),
		OptionsHash: HashJSON("loadtest", map[string]any{
			"mix": cfg.Mix, "scale": cfg.Scale, "seed": cfg.Seed,
			"clients": cfg.Clients, "requests": cfg.Requests,
		}),
		WallMS: ms(wall),
		Peers:  ls.Peers,
		Load:   ls,
	}
	return rec, loadTestDoc(ls, window), nil
}

// loadTestDoc renders the load-test record for text/JSON/CSV output.
func loadTestDoc(ls *LoadStats, window obs.HistogramSnapshot) *report.Doc {
	cfgTable := report.TableSection("load test",
		[]string{"target", "mix", "clients", "requests", "errors", "duration_ms", "throughput_rps"},
		[][]string{{
			ls.Target, strings.Join(ls.Mix, "+"),
			fmt.Sprintf("%d", ls.Clients), fmt.Sprintf("%d", ls.Requests), fmt.Sprintf("%d", ls.Errors),
			fmt.Sprintf("%.3f", ls.DurationMS), fmt.Sprintf("%.1f", ls.ThroughputRPS),
		}})
	lat := report.TableSection("latency (ms)",
		[]string{"view", "p50", "p95", "p99", "mean", "max"},
		latencyRows(ls, window))
	var findings []string
	if ls.ServerWindow {
		findings = append(findings,
			fmt.Sprintf("client/server skew (client minus server, same window): p50 %+.3f ms  p99 %+.3f ms",
				ls.SkewP50MS, ls.SkewP99MS))
		if int(window.Count) != ls.Requests-ls.Errors {
			findings = append(findings, fmt.Sprintf(
				"server window saw %d /v1/run requests vs %d issued — other clients were hitting the daemon during the test",
				window.Count, ls.Requests-ls.Errors))
		}
	} else {
		findings = append(findings, "server window unavailable: /v1/metrics gave no readable /v1/run histogram buckets; skew not computed")
	}
	if ls.Peers > 0 {
		findings = append(findings, fmt.Sprintf(
			"fabric topology: %d peers  remote %d / local %d shards executed in the window",
			ls.Peers, ls.RemoteExecuted, ls.LocalExecuted))
	}
	if ls.Errors > 0 {
		findings = append(findings, fmt.Sprintf("%d/%d requests failed", ls.Errors, ls.Requests))
	}
	doc := report.NewDoc(cfgTable, lat, report.FindingsSection("findings", findings...))
	doc.Title = "Serving-path load test"
	return doc
}

func latencyRows(ls *LoadStats, window obs.HistogramSnapshot) [][]string {
	f := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	rows := [][]string{{
		"client", f(ls.ClientP50MS), f(ls.ClientP95MS), f(ls.ClientP99MS), f(ls.ClientMeanMS), f(ls.ClientMaxMS),
	}}
	if ls.ServerWindow {
		rows = append(rows, []string{
			"server", f(ls.ServerP50MS), f(ms(window.Quantile(0.95))), f(ls.ServerP99MS),
			f(ms(window.Mean())), f(ms(window.Max)),
		})
	}
	return rows
}
