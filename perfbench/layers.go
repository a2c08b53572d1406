package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/characterize"
	"repro/internal/chipgen"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/mitigate"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sysarch"
)

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A metric a workload does not exercise reads 0.
var perLayer = [][2]string{
	{"disturb.hammer_inc_ns", "ns"}, {"disturb.press_inc_ns", "ns"}, {"disturb.wouldflip_ns", "ns"},
	{"dram.playtrace_ns_per_act", "ns"}, {"dram.hammerbatch_ns_per_act", "ns"},
	{"dram.probefetch_us", "us"}, {"dram.checkpoint_us", "us"}, {"dram.rollback_us", "us"},
	{"mitigate.observe_ns.para", "ns"}, {"mitigate.observe_ns.graphene", "ns"},
	{"mitigate.observe_ns.trr", "ns"}, {"mitigate.observe_ns.impress", "ns"},
	{"scenario.ns_per_act.none", "ns"}, {"scenario.ns_per_act.para", "ns"},
	{"scenario.ns_per_act.graphene", "ns"}, {"scenario.ns_per_act.trr", "ns"},
	{"scenario.ns_per_act.impress", "ns"}, {"scenario.search_share", "ratio"},
	{"attack.grid_s.alg1", "s"}, {"attack.grid_s.alg2", "s"},
	{"characterize.acmin_columns_ms", "ms"}, {"characterize.taggonmin_columns_ms", "ms"},
	{"core.plan_ms", "ms"}, {"core.merge_ms", "ms"},
	{"engine.queue_wait_ms_p50", "ms"}, {"engine.queue_wait_ms_p99", "ms"},
	{"engine.exec_busy_s", "s"}, {"engine.worker_util", "ratio"}, {"engine.critical_path_s", "s"},
	{"engine.mem_hits", "count"}, {"engine.disk_hits", "count"}, {"engine.joins", "count"},
	{"engine.misses", "count"}, {"engine.hit_ratio", "ratio"},
	{"engine.encode_us_per_kb", "us"}, {"engine.decode_us_per_kb", "us"}, {"engine.payload_kb", "KB"},
	{"engine.disk_get_us_p50", "us"}, {"engine.disk_put_us_p50", "us"},
	{"report.text_us", "us"}, {"report.json_us", "us"}, {"report.csv_us", "us"}, {"report.doc_kb", "KB"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.read_p50_ms", "ms"}, {"serve.read_tail_ms", "ms"},
	{"serve.write_p50_ms", "ms"}, {"serve.write_tail_ms", "ms"},
	{"ledger.append_us_p50", "us"}, {"obs.trace_overhead_frac", "ratio"},
	{"engine.shards", "count"}, {"engine.sub_shards", "count"}, {"engine.executed", "count"},
	{"scenario.agg_acts", "count"}, {"scenario.bitflips", "count"},
	{"scenario.preventive_refreshes", "count"},
	{"attack.bitflips", "count"}, {"characterize.rows", "count"},
}

// exactCounts are the model counts that must repeat exactly for a
// given workload: a speed-only change leaves them identical. None of
// them depends on the workload seed.
var exactCounts = []string{
	"engine.shards", "engine.sub_shards", "engine.executed",
	"scenario.agg_acts", "scenario.bitflips", "scenario.preventive_refreshes",
	"attack.bitflips", "characterize.rows",
}

// expectedJSON maps workload → exact count, recorded from traced runs
// of this benchmark.
//
//go:embed expected.json
var expectedJSON []byte

func initLayers(r *result) {
	for _, m := range perLayer {
		r.set(m[0], m[1], 0)
	}
}

// checkCounts compares the run's exact model counts with the recorded
// ones. A difference is a model change, never noise, so it fails the
// run, as does a count with no recorded value.
func checkCounts(r *result, c config) {
	var want map[string]map[string]float64
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: expected.json:", err)
		r.Failed++
		return
	}
	for _, name := range exactCounts {
		r.Attempted++
		wantN, ok := want[c.workload][name]
		if !ok {
			r.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: MODEL CHANGE: no recorded %s for %s\n", name, c.workload)
			continue
		}
		if got := r.Metrics[name].Value; got != wantN {
			r.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: MODEL CHANGE: %s = %v, recorded %v\n", name, got, wantN)
		}
	}
}

// tracer keeps the benchmark's own spans around layer calls, on the
// engine recorder's timeline.
type tracer struct {
	rec   *obs.Recorder
	spans []obs.Span
}

// span runs fn as one span named layer and returns its duration.
func (t *tracer) span(layer string, fn func()) time.Duration {
	t0 := now()
	fn()
	d := now().Sub(t0)
	t.spans = append(t.spans, obs.Span{
		Kind: obs.Execute, Worker: -1, Index: -1,
		Start: t.rec.Since(t0), Dur: d, Experiment: "perfbench", Shard: layer,
	})
	return d
}

// write saves the engine's and the benchmark's spans as a Chrome trace.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, append(t.rec.Snapshot(), t.spans...)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// engineLayers derives the orchestration metrics from the spans of a
// traced window of the given wall time.
func engineLayers(r *result, spans []obs.Span, wall time.Duration) {
	a := obs.Analyze(spans)
	r.set("core.merge_ms", "ms", ms(a.Merge))
	r.set("engine.exec_busy_s", "s", a.TotalExec.Seconds())
	r.set("engine.worker_util", "ratio", a.TotalExec.Seconds()/(coldWorkers*wall.Seconds()))
	r.set("engine.critical_path_s", "s", a.CriticalPath.Seconds())
	var queue samples
	for _, s := range spans {
		if s.Kind == obs.QueueWait {
			queue = append(queue, s.Dur)
		}
	}
	r.set("engine.queue_wait_ms_p50", "ms", ms(queue.quantile(0.5)))
	r.set("engine.queue_wait_ms_p99", "ms", ms(queue.quantile(0.99)))
}

func setTiers(r *result, t ledger.TierCounts) {
	r.set("engine.mem_hits", "count", float64(t.Mem))
	r.set("engine.disk_hits", "count", float64(t.Disk))
	r.set("engine.joins", "count", float64(t.Join))
	r.set("engine.misses", "count", float64(t.Miss))
	if total := t.Total(); total > 0 {
		r.set("engine.hit_ratio", "ratio", float64(total-t.Miss)/float64(total))
	}
}

// scenarioLayers runs every site sub-shard of the scenario plans
// serially, timing each Run and dividing by its played activations.
// scenario-grid's sub-shards carry the minimum-exposure search, so
// their share of the total is the search share.
func scenarioLayers(r *result, tr *tracer, ids []string) error {
	perKind := map[string]time.Duration{}
	actsPerKind := map[string]int{}
	var acts, flips int
	var refreshes uint64
	var total time.Duration
	for _, id := range ids {
		p, err := core.PlanFor(id, goldenOptions)
		if err != nil {
			return err
		}
		for _, sh := range p.Shards {
			kind := "search"
			if i := strings.LastIndex(sh.Key, "/mit/"); i >= 0 {
				kind = sh.Key[i+len("/mit/"):]
			}
			for _, sub := range sh.Subs {
				var v any
				d := tr.span("scenario/"+sh.Key+"/"+sub.Key, func() { v, err = sub.Run() })
				if err != nil {
					return err
				}
				sr, ok := v.(scenario.SiteResult)
				if !ok {
					return fmt.Errorf("scenario sub-shard %s: payload %T", sub.Key, v)
				}
				perKind[kind] += d
				actsPerKind[kind] += sr.AggActs
				total += d
				acts += sr.AggActs
				flips += sr.BitFlips
				refreshes += sr.PreventiveRefreshes
			}
		}
	}
	for _, k := range scenario.AllMitigations() {
		if n := actsPerKind[string(k)]; n > 0 {
			r.set("scenario.ns_per_act."+string(k), "ns", float64(perKind[string(k)].Nanoseconds())/float64(n))
		}
	}
	if total > 0 {
		r.set("scenario.search_share", "ratio", perKind["search"].Seconds()/total.Seconds())
	}
	r.set("scenario.agg_acts", "count", float64(acts))
	r.set("scenario.bitflips", "count", float64(flips))
	r.set("scenario.preventive_refreshes", "count", float64(refreshes))
	return nil
}

// attackLayers times attack.RunGrid for both algorithm variants on the
// demo system fig23 and fig49 use, at their scale-0.05 victim count
// (max(8, 0.05 × 128)).
func attackLayers(r *result, tr *tracer) error {
	flips := 0
	for _, v := range []struct {
		name    string
		variant attack.Variant
	}{{"alg1", attack.Algorithm1}, {"alg2", attack.Algorithm2}} {
		sys, err := sysarch.NewDemoSystem(dram.Geometry{Banks: 4, RowsPerBank: 4096, RowBytes: 8192}, 0xDE40^goldenOptions.Seed)
		if err != nil {
			return err
		}
		cfg := attack.DefaultConfig()
		cfg.Victims = 8
		cfg.Variant = v.variant
		var grid attack.GridResult
		d := tr.span("attack.RunGrid/"+v.name, func() { grid, err = attack.RunGrid(sys, cfg) })
		if err != nil {
			return err
		}
		r.set("attack.grid_s."+v.name, "s", d.Seconds())
		for _, cell := range grid.Cells {
			flips += cell.Bitflips
		}
	}
	r.set("attack.bitflips", "count", float64(flips))
	return nil
}

// perCall times reps batches of n calls of fn and returns the median
// batch time divided by n, in nanoseconds.
func perCall(tr *tracer, layer string, reps, n int, fn func(i int)) float64 {
	var d []time.Duration
	for k := 0; k < reps; k++ {
		d = append(d, tr.span(layer, func() {
			for i := 0; i < n; i++ {
				fn(i)
			}
		}))
	}
	return float64(median(d).Nanoseconds()) / float64(n)
}

var sink float64

// commonLayers times the layers every traced run measures on fixed
// synthetic inputs, plus rendering of the workload's own documents.
func commonLayers(r *result, tr *tracer, docs []*report.Doc) error {
	spec, ok := chipgen.ByID("S0")
	if !ok {
		return fmt.Errorf("module S0 missing from the catalog")
	}
	geo := dram.DefaultGeometry()
	disturbLayers(r, tr, spec, geo)
	if err := dramLayers(r, tr, spec, geo); err != nil {
		return err
	}
	if err := mitigateLayers(r, tr); err != nil {
		return err
	}
	if err := characterizeLayers(r, tr, spec); err != nil {
		return err
	}
	if err := payloadLayers(r, tr); err != nil {
		return err
	}
	if err := reportLayers(r, tr, docs); err != nil {
		return err
	}
	if err := handlerLayer(r, tr); err != nil {
		return err
	}
	return ledgerLayer(r, tr)
}

func disturbLayers(r *result, tr *tracer, spec chipgen.ModuleSpec, geo dram.Geometry) {
	_, model := spec.NewModule(geo, 50)
	const n = 200_000
	on, off := 36*dram.Nanosecond, 15*dram.Nanosecond
	r.set("disturb.hammer_inc_ns", "ns", perCall(tr, "disturb.HammerIncrement", 5, n, func(i int) {
		sink += model.HammerIncrement(on, off, 50, 1+i&1)
	}))
	r.set("disturb.press_inc_ns", "ns", perCall(tr, "disturb.PressIncrement", 5, n, func(i int) {
		sink += model.PressIncrement(7800*dram.Nanosecond, off, 50, 1+i&1)
	}))
	data := bytes.Repeat([]byte{0x55}, geo.RowBytes)
	nb := bytes.Repeat([]byte{0xAA}, geo.RowBytes)
	h := model.HammerIncrement(on, off, 50, 1)
	p := model.PressIncrement(7800*dram.Nanosecond, off, 50, 1)
	exp := dram.Exposure{HammerAbove: 2000 * h, HammerBelow: 2000 * h, PressAbove: 20 * p, PressBelow: 20 * p}
	r.set("disturb.wouldflip_ns", "ns", perCall(tr, "disturb.WouldFlip", 5, 2000, func(i int) {
		if model.WouldFlip(1, 100+2*(i%64), data, dram.NeighborData{Above: nb, Below: nb}, exp) {
			sink++
		}
	}))
}

func dramLayers(r *result, tr *tracer, spec chipgen.ModuleSpec, geo dram.Geometry) error {
	const acts = 20_000
	var d []time.Duration
	for k := 0; k < 5; k++ {
		mod, _ := spec.NewModule(geo, 50)
		slot := func(i int) dram.Slot { return dram.Slot{Row: 100 + 2*(i&1), OnTime: mod.Timing.TRAS} }
		var err error
		d = append(d, tr.span("dram.PlayTrace", func() { _, err = mod.PlayTrace(0, 1, acts, slot, nil) }))
		if err != nil {
			return err
		}
	}
	r.set("dram.playtrace_ns_per_act", "ns", float64(median(d).Nanoseconds())/acts)

	mod, _ := spec.NewModule(geo, 50)
	var at dram.TimePS
	for row := 96; row <= 106; row++ {
		if err := mod.InitRow(at, 1, row, 0x55); err != nil {
			return err
		}
	}
	at = mod.Now()
	hammer := dram.HammerSpec{Bank: 1, Rows: []int{100, 102}, Count: 10_000, OnTime: mod.Timing.TRAS}
	var err error
	perBatch := perCall(tr, "dram.HammerBatch", 5, 50, func(int) {
		if err == nil {
			at, err = mod.HammerBatch(at, hammer)
		}
	})
	if err != nil {
		return err
	}
	r.set("dram.hammerbatch_ns_per_act", "ns", perBatch/float64(hammer.Count))

	rows := []int{99, 101, 103}
	r.set("dram.probefetch_us", "us", perCall(tr, "dram.ProbeFetch", 5, 200, func(int) {
		if err == nil {
			_, _, err = mod.ProbeFetch(at, 1, rows)
		}
	})/1e3)
	if err != nil {
		return err
	}
	r.set("dram.checkpoint_us", "us", perCall(tr, "dram.Checkpoint", 5, 200, func(int) {
		mod.Checkpoint()
		mod.ReleaseCheckpoint()
	})/1e3)

	var roll samples
	mod.Checkpoint()
	for k := 0; k < 200 && err == nil; k++ {
		_, err = mod.HammerBatch(at, hammer)
		roll = append(roll, tr.span("dram.Rollback", mod.Rollback))
	}
	mod.ReleaseCheckpoint()
	if err != nil {
		return err
	}
	r.set("dram.rollback_us", "us", roll.quantile(0.5).Seconds()*1e6)
	return nil
}

func mitigateLayers(r *result, tr *tracer) error {
	cfg := scenario.DefaultConfig()
	for _, kind := range []scenario.MitigationKind{scenario.MitPARA, scenario.MitGraphene, scenario.MitTRR, scenario.MitImPress} {
		m, err := cfg.NewMitigation(kind, 1)
		if err != nil {
			return err
		}
		d := perCall(tr, "mitigate.Observe/"+string(kind), 5, 100_000, func(i int) {
			sink += float64(len(mitigate.Observe(m, 100+2*(i%8), 36*dram.Nanosecond)))
		})
		r.set("mitigate.observe_ns."+string(kind), "ns", d)
	}
	return nil
}

// characterizeLayers times the closed-form prober searches on a few
// tested locations of one module.
func characterizeLayers(r *result, tr *tracer, spec chipgen.ModuleSpec) error {
	cfg := characterize.DefaultConfig()
	cfg.Trials = 1
	locs := characterize.TestedLocations(cfg.Geometry, cfg.RowsToTest)[:4]
	var ac [][]characterize.RowResult
	var tm [][]characterize.TAggONminResult
	var err error
	var d []time.Duration
	for k := 0; k < 3 && err == nil; k++ {
		d = append(d, tr.span("characterize.ACminColumns", func() {
			ac, err = characterize.ACminColumns(spec, cfg, 50, []dram.TimePS{36 * dram.Nanosecond, 7800 * dram.Nanosecond}, locs, false)
		}))
	}
	if err != nil {
		return err
	}
	r.set("characterize.acmin_columns_ms", "ms", ms(median(d)))
	d = d[:0]
	for k := 0; k < 3 && err == nil; k++ {
		d = append(d, tr.span("characterize.TAggONminColumns", func() {
			tm, err = characterize.TAggONminColumns(spec, cfg, 50, []int{1, 10}, locs, false)
		}))
	}
	if err != nil {
		return err
	}
	r.set("characterize.taggonmin_columns_ms", "ms", ms(median(d)))
	rows := 0
	for _, col := range ac {
		rows += len(col)
	}
	for _, col := range tm {
		rows += len(col)
	}
	r.set("characterize.rows", "count", float64(rows))
	return nil
}

// shardPayloads executes fig6's plan shard by shard and returns the
// payloads keyed by shard key, the values the cache tiers store.
func shardPayloads() (keys []string, vals []any, err error) {
	p, err := core.PlanFor("fig6", goldenOptions)
	if err != nil {
		return nil, nil, err
	}
	for _, sh := range p.Shards {
		var v any
		if len(sh.Subs) == 0 {
			v, err = sh.Run()
		} else {
			parts := make([]any, len(sh.Subs))
			for j, sub := range sh.Subs {
				if parts[j], err = sub.Run(); err != nil {
					return nil, nil, err
				}
			}
			v, err = sh.Gather(parts)
		}
		if err != nil {
			return nil, nil, err
		}
		keys = append(keys, sh.Key)
		vals = append(vals, v)
	}
	return keys, vals, nil
}

// payloadLayers times the payload codec and the disk tier on fig6's
// shard payloads.
func payloadLayers(r *result, tr *tracer) error {
	keys, vals, err := shardPayloads()
	if err != nil {
		return err
	}
	var enc, dec []time.Duration
	var kb float64
	for k := 0; k < 5; k++ {
		var bufs []*bytes.Buffer
		enc = append(enc, tr.span("engine.EncodePayload", func() {
			for _, v := range vals {
				var b bytes.Buffer
				if err == nil {
					err = engine.EncodePayload(&b, v)
				}
				bufs = append(bufs, &b)
			}
		}))
		kb = 0
		for _, b := range bufs {
			kb += float64(b.Len()) / 1024
		}
		dec = append(dec, tr.span("engine.DecodePayload", func() {
			for _, b := range bufs {
				if err == nil {
					_, err = engine.DecodePayload(bytes.NewReader(b.Bytes()))
				}
			}
		}))
	}
	if err != nil {
		return err
	}
	r.set("engine.payload_kb", "KB", kb)
	r.set("engine.encode_us_per_kb", "us", median(enc).Seconds()*1e6/kb)
	r.set("engine.decode_us_per_kb", "us", median(dec).Seconds()*1e6/kb)

	dir, err := os.MkdirTemp(runDir, "disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dc, err := engine.OpenDiskCache(dir, engine.DefaultDiskCacheBytes)
	if err != nil {
		return err
	}
	var put, get samples
	for k := 0; k < 20; k++ {
		for i, v := range vals {
			key := engine.Key(keys[i], fmt.Sprint(k))
			put = append(put, tr.span("engine.DiskCache.Put", func() { dc.Put(key, v) }))
			var hit bool
			get = append(get, tr.span("engine.DiskCache.Get", func() { _, hit = dc.Get(key) }))
			if !hit {
				return fmt.Errorf("disk tier lost %s", key)
			}
		}
	}
	r.set("engine.disk_put_us_p50", "us", put.quantile(0.5).Seconds()*1e6)
	r.set("engine.disk_get_us_p50", "us", get.quantile(0.5).Seconds()*1e6)
	return nil
}

// reportLayers times the three renderings of the workload's documents.
func reportLayers(r *result, tr *tracer, docs []*report.Doc) error {
	var text, js, csv []time.Duration
	var kb float64
	var err error
	for k := 0; k < 5; k++ {
		text = append(text, tr.span("report.Text", func() {
			for _, d := range docs {
				_ = report.Text(d)
			}
		}))
		kb = 0
		js = append(js, tr.span("report.JSON", func() {
			for _, d := range docs {
				b, jerr := report.JSON(d)
				if jerr != nil {
					err = jerr
				}
				kb += float64(len(b)) / 1024
			}
		}))
		csv = append(csv, tr.span("report.CSV", func() {
			for _, d := range docs {
				_ = report.CSV(d)
			}
		}))
	}
	if err != nil {
		return err
	}
	r.set("report.text_us", "us", median(text).Seconds()*1e6)
	r.set("report.json_us", "us", median(js).Seconds()*1e6)
	r.set("report.csv_us", "us", median(csv).Seconds()*1e6)
	r.set("report.doc_kb", "KB", kb)
	return nil
}

// handlerLayer times Server.ServeHTTP for a warm fig6 request, without
// a socket.
func handlerLayer(r *result, tr *tracer) error {
	srv := serve.New(engine.New(coldWorkers, 0))
	target := "/v1/run/fig6?scale=0.05&seed=1&modules=S0,S3,M3&format=json"
	var d samples
	for k := 0; k < 31; k++ {
		w := httptest.NewRecorder()
		dur := tr.span("serve.ServeHTTP", func() { srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil)) })
		if w.Code != http.StatusOK {
			return fmt.Errorf("handler: status %d", w.Code)
		}
		if k > 0 { // the first request fills the cache
			d = append(d, dur)
		}
	}
	r.set("serve.handler_ms_p50", "ms", ms(d.quantile(0.5)))
	return nil
}

// ledgerLayer times ledger.Append on a ledger at rowpressd's default
// bound, filled to it first, so every append compacts as on a
// long-running daemon.
func ledgerLayer(r *result, tr *tracer) error {
	dir, err := os.MkdirTemp(runDir, "ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	led, err := ledger.Open(dir, ledger.DefaultMaxBytes)
	if err != nil {
		return err
	}
	rec := ledger.Record{
		Kind: ledger.KindRun, Experiment: "fig6", OptionsHash: goldenOptions.Hash(),
		CompletedAt: time.Unix(0, 0).UTC(), WallMS: 1, Shards: 3, Workers: coldWorkers,
	}
	if _, err = led.Append(rec); err == nil {
		err = fillLedger(led)
	}
	var d samples
	for k := 0; k < 50 && err == nil; k++ {
		d = append(d, tr.span("ledger.Append", func() { _, err = led.Append(rec) }))
	}
	if cerr := led.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r.set("ledger.append_us_p50", "us", d.quantile(0.5).Seconds()*1e6)
	return nil
}
