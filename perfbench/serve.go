package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/stats"
)

// The traffic mix is an assumption, not a measurement: nothing in the
// repository records real request traffic (rowpress loadtest replays a
// fixed round-robin list, fig6 by default). Reads draw experiment and
// format uniformly, the choice that favours no experiment.
const (
	// serveClients is one closed-loop client per core of the 2-core
	// host the benchmark is sized for.
	serveClients = 2
	// serveLRU holds fewer shard payloads than the warm set plans, so
	// reads are answered by both the memory and the disk tier.
	serveLRU = 48
	// writeEvery makes one request in this many a write at a fresh seed.
	// The 1% share is assumed, not measured: reads dominate, as on a
	// results cache, and a run still holds writes.
	writeEvery = 100
	// writeExp is the experiment every write runs. Cold cost across the
	// warm set ranges from 0.1 to 670 ms, so writes spread over it would
	// make a run's throughput depend on which experiments it drew.
	writeExp = "fig6"
	// serveSetups is how many times a run sets the daemon up; setup_s
	// is their median.
	serveSetups = 5
)

var formats = []string{"text", "json", "csv"}

// daemon is one serving stack on a loopback listener.
type daemon struct {
	eng  *engine.Engine
	disk *engine.DiskCache
	led  *ledger.Ledger
	hs   *http.Server
	url  string
	done chan error
	dir  string
}

// startDaemon opens the tiers and the ledger under a fresh directory
// and serves on a loopback port.
func startDaemon() (*daemon, error) {
	dir, err := os.MkdirTemp(runDir, "serve-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, eng: engine.New(coldWorkers, serveLRU), done: make(chan error, 1)}
	if d.disk, err = engine.OpenDiskCache(filepath.Join(dir, "cache"), engine.DefaultDiskCacheBytes); err != nil {
		return nil, err
	}
	d.eng.AttachDiskCache(d.disk)
	// rowpressd's default bound; primeWarmSet fills the ledger to it.
	if d.led, err = ledger.Open(filepath.Join(dir, "ledger"), ledger.DefaultMaxBytes); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.led.Close()
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: serve.New(d.eng, serve.WithLedger(d.led))}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the server down, waits for it, and closes the ledger.
func (d *daemon) stop() error {
	err := d.hs.Shutdown(context.Background())
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if lerr := d.led.Close(); err == nil {
		err = lerr
	}
	if ferr := d.disk.Flush(); err == nil {
		err = ferr
	}
	return err
}

// request is one issued GET /v1/run and what came back.
type request struct {
	exp    string
	seed   uint64
	format string
	write  bool
	lat    time.Duration
	status int
	sum    [32]byte // fingerprint of the returned document
}

func runURL(base, exp string, seed uint64, format string) string {
	return fmt.Sprintf("%s/v1/run/%s?scale=0.05&seed=%d&modules=S0,S3,M3&format=%s", base, exp, seed, format)
}

// fingerprint reduces a response body to the document it carries: the
// body itself for text and csv, the document's canonical JSON plus its
// text rendering for json (whose stats vary from run to run).
func fingerprint(format string, body []byte) ([32]byte, error) {
	if format != "json" {
		return sha256.Sum256(body), nil
	}
	var resp serve.RunResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return [32]byte{}, err
	}
	b, err := report.JSON(resp.Doc)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(append(append(b, 0), resp.Report...)), nil
}

// expectFingerprint is fingerprint of the reference rendering of doc.
func expectFingerprint(format string, doc *report.Doc) ([32]byte, error) {
	switch format {
	case "text":
		return sha256.Sum256([]byte(report.Text(doc))), nil
	case "csv":
		return sha256.Sum256([]byte(report.CSV(doc))), nil
	}
	b, err := report.JSON(doc)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(append(append(b, 0), report.Text(doc)...)), nil
}

func get(client *http.Client, q *request, base string) error {
	t0 := now()
	resp, err := client.Get(runURL(base, q.exp, q.seed, q.format))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	q.lat = now().Sub(t0)
	q.status = resp.StatusCode
	if err != nil {
		return err
	}
	if q.status == http.StatusOK {
		q.sum, err = fingerprint(q.format, body)
	}
	return err
}

// clientLoop is one closed-loop client: it issues its seeded request
// sequence until the deadline. Every writeEvery-th request is a write.
func clientLoop(client *http.Client, base string, id int, seed uint64, ids []string, deadline time.Time) ([]request, error) {
	rng := stats.NewRNG(stats.Combine(seed, uint64(id)))
	var out []request
	for n := 1; now().Before(deadline); n++ {
		q := request{exp: ids[rng.Intn(len(ids))], seed: 1, format: formats[rng.Intn(len(formats))]}
		if n%writeEvery == 0 {
			// A fresh seed no earlier request used: the run executes.
			q.write = true
			q.exp = writeExp
			q.seed = 2 + uint64(serveClients*(n/writeEvery)+id)
		}
		if err := get(client, &q, base); err != nil {
			return out, err
		}
		out = append(out, q)
	}
	return out, nil
}

// primeWarmSet requests every experiment once at seed 1, filling the
// disk tier, then fills the ledger to its bound; it is part of set-up.
func primeWarmSet(client *http.Client, base string, led *ledger.Ledger, ids []string) error {
	for _, id := range ids {
		q := request{exp: id, seed: 1, format: "text"}
		if err := get(client, &q, base); err != nil {
			return err
		}
		if q.status != http.StatusOK {
			return fmt.Errorf("priming %s: status %d", id, q.status)
		}
	}
	return fillLedger(led)
}

// fillLedger re-appends the ledger's own records until its size bound
// makes it prune. From then on every append compacts the file: the
// steady state of a long-running daemon's ledger.
func fillLedger(led *ledger.Ledger) error {
	recs := led.Records(ledger.Query{})
	if len(recs) == 0 {
		return errors.New("ledger to fill is empty")
	}
	for i := 0; led.Stats().Pruned == 0; i++ {
		rec := recs[i%len(recs)]
		rec.ID = ""
		if _, err := led.Append(rec); err != nil {
			return err
		}
	}
	return nil
}

// referenceDocs computes the documents locally, on an engine of its own.
func referenceDocs(ids []string) (map[string]*report.Doc, error) {
	eng := engine.New(coldWorkers, 0)
	out := map[string]*report.Doc{}
	for _, id := range ids {
		doc, err := core.RunWith(eng, id, goldenOptions)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", id, err)
		}
		out[id] = doc
	}
	return out, nil
}

func runServe(c config) (result, error) {
	var r result
	ids := figureIDs()
	refs, err := referenceDocs(ids)
	if err != nil {
		return r, err
	}
	goldens, err := loadGoldens(ids)
	if err != nil {
		return r, err
	}
	for _, id := range ids {
		if report.Text(refs[id]) != goldens[id] {
			return r, fmt.Errorf("reference %s differs from its golden report", id)
		}
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()
	var setup []time.Duration
	var d *daemon
	for k := 0; k < serveSetups; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return r, err
			}
			os.RemoveAll(d.dir)
		}
		t0 := now()
		if d, err = startDaemon(); err != nil {
			return r, err
		}
		if err := primeWarmSet(client, d.url, d.led, ids); err != nil {
			d.stop()
			return r, err
		}
		setup = append(setup, now().Sub(t0))
	}
	prime := d.eng.Metrics()

	var rec *obs.Recorder
	if c.trace {
		rec = obs.NewRecorder(0)
		d.eng.SetRecorder(rec)
	}
	a0, c0 := totalAlloc(), cpuTime()
	t0 := now()
	deadline := t0.Add(c.window)
	reqs := make([][]request, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reqs[i], errs[i] = clientLoop(client, d.url, i, c.seed, ids, deadline)
		}(i)
	}
	wg.Wait()
	window := now().Sub(t0)
	cpu := cpuTime() - c0
	alloc := totalAlloc() - a0
	n := 0
	for _, rs := range reqs {
		n += len(rs)
	}
	var tiers ledger.TierCounts
	if c.trace {
		tiers = windowTiers(d.led, n)
	}
	if err := d.stop(); err != nil {
		return r, err
	}
	if err := errors.Join(errs...); err != nil {
		return r, err
	}

	var all, reads, writes samples
	for _, rs := range reqs {
		for _, q := range rs {
			all = append(all, q.lat)
			if q.write {
				writes = append(writes, q.lat)
			} else {
				reads = append(reads, q.lat)
			}
		}
	}
	if err := checkResponses(&r, reqs, refs); err != nil {
		return r, err
	}
	reportLatency("serve-mixed request", all)
	reportLatency("serve-mixed read", reads)
	reportLatency("serve-mixed write", writes)
	if !c.trace {
		endToEnd(&r, setup, all, window, cpu/time.Duration(len(all)), alloc)
		return r, nil
	}

	initLayers(&r)
	setServeLatency(&r, reads, writes)
	r.set("engine.shards", "count", float64(prime.ShardsPlanned))
	r.set("engine.sub_shards", "count", float64(prime.SubShardsPlanned))
	r.set("engine.executed", "count", float64(prime.ShardsExecuted))
	setTiers(&r, tiers)
	engineLayers(&r, rec.Snapshot(), window)
	r.set("core.plan_ms", "ms", planMillis(ids))

	tr := &tracer{rec: rec}
	docs := make([]*report.Doc, 0, len(ids))
	for _, id := range ids {
		docs = append(docs, refs[id])
	}
	if err := commonLayers(&r, tr, docs); err != nil {
		return r, err
	}
	checkCounts(&r, c)
	return r, tr.write(tracePath(c))
}

// windowTiers sums the per-run tier split the server stamped on the
// ledger records of the last n requests, one record per request.
func windowTiers(led *ledger.Ledger, n int) ledger.TierCounts {
	var t ledger.TierCounts
	for _, rec := range led.Records(ledger.Query{Limit: n}) {
		t.Mem += rec.Tiers.Mem
		t.Disk += rec.Tiers.Disk
		t.Join += rec.Tiers.Join
		t.Miss += rec.Tiers.Miss
	}
	return t
}

func setServeLatency(r *result, reads, writes samples) {
	r.set("serve.read_p50_ms", "ms", ms(reads.quantile(0.5)))
	r.set("serve.write_p50_ms", "ms", ms(writes.quantile(0.5)))
	if v, _, _, ok := reads.tail(); ok {
		r.set("serve.read_tail_ms", "ms", ms(v))
	}
	if v, _, _, ok := writes.tail(); ok {
		r.set("serve.write_tail_ms", "ms", ms(v))
	}
}

// checkResponses compares every response with the reference rendering
// of a locally computed document; fresh-seed references are computed
// here, after the measured window.
func checkResponses(r *result, reqs [][]request, refs map[string]*report.Doc) error {
	eng := engine.New(coldWorkers, 0)
	want := map[string][32]byte{}
	for _, rs := range reqs {
		for _, q := range rs {
			r.Attempted++
			key := fmt.Sprintf("%s/%d/%s", q.exp, q.seed, q.format)
			sum, ok := want[key]
			if !ok {
				doc := refs[q.exp]
				if q.write {
					var err error
					if doc, err = core.RunWith(eng, q.exp, optionsAt(q.seed)); err != nil {
						return fmt.Errorf("reference %s seed %d: %w", q.exp, q.seed, err)
					}
				}
				var err error
				if sum, err = expectFingerprint(q.format, doc); err != nil {
					return err
				}
				want[key] = sum
			}
			if q.status != http.StatusOK || q.sum != sum {
				r.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d %s: status %d, wrong or missing document\n",
					q.exp, q.seed, q.format, q.status)
			}
		}
	}
	return nil
}
