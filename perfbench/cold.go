package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stats"
)

// scenarioIDs are the experiments scenario-cold regenerates.
var scenarioIDs = []string{"scenario-mitigation", "scenario-grid"}

// figureIDs are the registered experiments other than the scenario
// studies and the fig23/fig49 attack replays, in registry order. The
// attack replays are measured layer by layer in scenario-cold's traced
// run instead (attack.RunGrid).
func figureIDs() []string {
	skip := map[string]bool{"fig23": true, "fig49": true}
	for _, id := range scenarioIDs {
		skip[id] = true
	}
	var out []string
	for _, e := range core.List() {
		if !skip[e.ID] {
			out = append(out, e.ID)
		}
	}
	return out
}

// coldIDs is the workload's experiment set in an order drawn from the
// workload seed, the one input a cold workload takes from it: the
// options stay at the goldens'.
func coldIDs(workload string, seed uint64) []string {
	ids := figureIDs()
	if workload == "scenario-cold" {
		ids = append([]string(nil), scenarioIDs...)
	}
	rng := stats.NewRNG(seed)
	for i := len(ids) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids
}

func loadGoldens(ids []string) (map[string]string, error) {
	out := map[string]string{}
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join("internal", "core", "testdata", "golden", id+".golden"))
		if err != nil {
			return nil, fmt.Errorf("golden report: %w", err)
		}
		out[id] = string(b)
	}
	return out, nil
}

// coldRun is one regeneration of an experiment set on a fresh engine.
type coldRun struct {
	docs  []*report.Doc
	stats []engine.RunStats
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

// regenerate runs ids cold, in order, on a fresh engine at the golden
// options. rec may be nil.
func regenerate(ids []string, rec *obs.Recorder) (coldRun, error) {
	eng := engine.New(coldWorkers, 0)
	eng.SetRecorder(rec)
	var run coldRun
	a0, c0 := totalAlloc(), cpuTime()
	t0 := now()
	for _, id := range ids {
		doc, st, err := core.RunObserved(eng, id, goldenOptions, nil)
		if err != nil {
			return run, fmt.Errorf("%s: %w", id, err)
		}
		run.docs = append(run.docs, doc)
		run.stats = append(run.stats, st)
	}
	run.wall = now().Sub(t0)
	run.cpu = cpuTime() - c0
	run.alloc = totalAlloc() - a0
	return run, nil
}

// coldSetup times what a cold regeneration does before any shard runs:
// engine construction and planning every experiment of the set. Each
// of setupReps samples repeats that for at least setupBatch and is
// divided by the repetitions, so timer granularity does not show.
func coldSetup(ids []string) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := now()
		n := 0
		for ; n == 0 || now().Sub(t0) < setupBatch; n++ {
			_ = engine.New(coldWorkers, 0)
			for _, id := range ids {
				if _, err := core.PlanFor(id, goldenOptions); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, now().Sub(t0)/time.Duration(n))
	}
	return out, nil
}

func runCold(c config) (result, error) {
	ids := coldIDs(c.workload, c.seed)
	var r result
	goldens, err := loadGoldens(ids)
	if err != nil {
		return r, err
	}
	setup, err := coldSetup(ids)
	if err != nil {
		return r, err
	}
	check := func(run coldRun) {
		for i, id := range ids {
			r.Attempted++
			if doc := run.docs[i]; doc == nil || report.Text(doc) != goldens[id] {
				r.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: document differs from its golden report\n", id)
			}
		}
	}
	if c.trace {
		return r, tracedCold(c, ids, &r, check)
	}

	var ops, cpu samples
	var alloc uint64
	var measured time.Duration
	for measured < c.window {
		run, err := regenerate(ids, nil)
		if err != nil {
			return r, err
		}
		check(run)
		ops = append(ops, run.wall)
		cpu = append(cpu, run.cpu)
		alloc += run.alloc
		measured += run.wall
	}
	reportLatency(c.workload+" regeneration", ops)
	reportLatency(c.workload+" regeneration CPU", cpu)
	endToEnd(&r, setup, ops, measured, cpu.quantile(0.5), alloc)
	return r, nil
}

// tracedCold regenerates the set once untraced and once traced, derives
// the engine-level metrics from the trace and the run stats, times the
// layers the workload exercises, and writes the spans out.
func tracedCold(c config, ids []string, r *result, check func(coldRun)) error {
	base, err := regenerate(ids, nil)
	if err != nil {
		return err
	}
	check(base)

	rec := obs.NewRecorder(0)
	traced, err := regenerate(ids, rec)
	if err != nil {
		return err
	}
	check(traced)

	initLayers(r)
	r.set("obs.trace_overhead_frac", "ratio", traced.wall.Seconds()/base.wall.Seconds()-1)
	engineLayers(r, rec.Snapshot(), traced.wall)
	var shards, subs, executed, hits int
	for _, st := range traced.stats {
		shards += st.Shards
		subs += st.SubShards
		executed += st.Executed
		hits += st.CacheHits
	}
	r.set("engine.shards", "count", float64(shards))
	r.set("engine.sub_shards", "count", float64(subs))
	r.set("engine.executed", "count", float64(executed))
	// A cold engine has no disk tier, and RunStats does not split memory
	// hits from in-flight joins, so both count as memory hits here.
	setTiers(r, ledger.TierCounts{Mem: hits, Miss: executed})
	r.set("core.plan_ms", "ms", planMillis(ids))

	tr := &tracer{rec: rec}
	if c.workload == "scenario-cold" {
		if err := scenarioLayers(r, tr, ids); err != nil {
			return err
		}
		if err := attackLayers(r, tr); err != nil {
			return err
		}
	}
	if err := commonLayers(r, tr, traced.docs); err != nil {
		return err
	}
	checkCounts(r, c)
	return tr.write(tracePath(c))
}

// planMillis is the median time to plan every experiment of the set.
func planMillis(ids []string) float64 {
	var d []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := now()
		for _, id := range ids {
			_, _ = core.PlanFor(id, goldenOptions)
		}
		d = append(d, now().Sub(t0))
	}
	return ms(median(d))
}
