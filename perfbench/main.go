// Command perfbench is the repository benchmark. It runs one named
// workload against the public APIs of internal/core, internal/engine and
// internal/serve, checks every document it gets back, and prints the
// workload's metrics as one JSON object on the last line of stdout:
//
//	perfbench -workload scenario-cold -seed 1 -seconds 20 -trace 0
//
// Workloads (why each was chosen, and the layers it exercises or
// bypasses):
//
//   - scenario-cold regenerates scenario-mitigation and scenario-grid on
//     a fresh 2-worker engine. Nearly all of its time is per-activation
//     dram.PlayTrace with the disturb kernels and mitigate.Observe, plus
//     the checkpoint/bisection search, spread over hundreds of site
//     sub-shards.
//   - figures-cold regenerates the other 33 experiments (all but the
//     scenario studies and the fig23/fig49 attack replays). The closed-form
//     characterize prober, simperf and ecc paths are cheap, so engine
//     planning, queueing and merging are a visible share; playback and
//     HammerBatch are bypassed.
//   - serve-mixed drives an in-process serve.Server on a loopback
//     listener (disk tier, run ledger, in-memory LRU smaller than the
//     working set) with two closed-loop keep-alive clients issuing
//     GET /v1/run/{exp} over the figures-cold experiments in
//     text/json/csv. Most requests are warm reads; every 100th is a
//     write: fig6 at a fresh seed, which executes and fills the disk
//     tier. The ledger has rowpressd's default bound and is filled to it
//     during set-up, so every request appends to a full ledger, as on a
//     long-running daemon, and that append's compaction dominates each
//     request. Almost no simulation runs, so it isolates the ledger,
//     cache tiers, payload codec, rendering and HTTP. The
//     traffic mix is an assumption, not a measurement: nothing records
//     real traffic, so experiments and formats are drawn uniformly, and
//     the write share and the single write experiment are chosen in
//     serve.go for the reasons given there.
//
// fig23 and fig49 (about 16 s per cold regeneration on a 2-core host)
// are not a workload of their own: a run could hold only one or two
// samples. scenario-cold's traced run times their attack.RunGrid grids.
//
// End-to-end metrics (-trace 0) are the same for every workload. An
// operation is one cold regeneration of the workload's experiment set,
// or one request for serve-mixed: setup_s, op_p50_ms, ops_per_s,
// cpu_ms_per_op and alloc_mb_per_op. Every run also prints, above the
// JSON line, each latency distribution with its sample count and the
// highest percentile that has at least ten samples beyond it.
//
// The cold workloads run at the golden options (scale 0.05, seed 1,
// modules S0,S3,M3); the workload seed sets only the order of the
// experiments. Every document must equal
// internal/core/testdata/golden/<id>.golden. Every serve-mixed response
// must equal the rendering of a locally computed document. A mismatch
// counts as failed and makes the command exit 1.
//
// With -trace 1 the run attaches an obs.Recorder to the engine, collects
// engine.ShardEvents, times calls into each layer's public functions,
// prints the per-layer metrics and writes all spans as a Chrome trace
// under -out. The exact model counts of a traced run are compared with
// the workload's entry in expected.json; a difference, or a missing
// entry, is reported as a model change and fails the run. A per-layer metric a workload does not exercise reads 0.
// Which end-to-end number each per-layer metric should move:
//
//   - disturb.*, dram.playtrace_ns_per_act, mitigate.observe_ns.* and
//     scenario.ns_per_act.*: op_p50_ms on scenario-cold.
//   - dram.hammerbatch_ns_per_act and attack.grid_s.*: fig23/fig49.
//   - dram.probefetch_us, dram.checkpoint_us, dram.rollback_us,
//     characterize.* and scenario.search_share: figures-cold and the
//     search half of scenario-cold.
//   - core.*, engine.queue_wait_*, engine.exec_busy_s,
//     engine.worker_util, engine.critical_path_s: scenario-cold and
//     figures-cold.
//   - engine tier counts, codec and disk timings, report.*, serve.* and
//     ledger.append_us_p50: serve-mixed only.
//   - obs.trace_overhead_frac is traced over untraced operation time,
//     minus 1.
//   - engine.shards, engine.sub_shards, engine.executed, scenario.agg_acts,
//     scenario.bitflips, scenario.preventive_refreshes, attack.bitflips
//     and characterize.rows are exact; a speed-only change leaves them
//     identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
)

const (
	coldWorkers = 2
	setupReps   = 9
	setupBatch  = 50 * time.Millisecond
)

// optionsAt are the options internal/core pins its golden reports at,
// with the given model seed. The goldens are at seed 1.
func optionsAt(seed uint64) core.Options {
	return core.Options{Scale: 0.05, Seed: seed, Modules: []string{"S0", "S3", "M3"}}
}

// goldenOptions are the options of every cold regeneration and of every
// serve-mixed read, so each document can be checked byte for byte.
var goldenOptions = optionsAt(1)

// now is the benchmark's wall clock: measuring wall time is its purpose.
func now() time.Time {
	return time.Now() //lint:ignore rowpressvet/wallclock the benchmark times layer calls; no reading reaches a report document
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object the command prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	out      string
}

func main() {
	var c config
	var seconds, trace int
	flag.StringVar(&c.workload, "workload", "", "scenario-cold | figures-cold | serve-mixed")
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&c.out, "out", ".bench_build", "directory for scratch state and traces")
	flag.Parse()
	c.window = time.Duration(seconds) * time.Second
	c.trace = trace == 1
	if seconds < 1 || c.seed == 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds >= 1, -seed >= 1 and -trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cleanup, err := makeRunDir(c.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var r result
	switch c.workload {
	case "scenario-cold", "figures-cold":
		r, err = runCold(c)
	case "serve-mixed":
		r, err = runServe(c)
	default:
		err = fmt.Errorf("unknown workload %q", c.workload)
	}
	cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// endToEnd fills the end-to-end metrics every workload reports. An
// operation is one cold regeneration of the workload's experiment set,
// or one HTTP request for serve-mixed; cpuPerOp is the CPU time one
// operation costs.
func endToEnd(r *result, setup []time.Duration, ops samples, window, cpuPerOp time.Duration, alloc uint64) {
	n := float64(len(ops))
	r.set("setup_s", "s", median(setup).Seconds())
	r.set("op_p50_ms", "ms", ms(ops.quantile(0.5)))
	r.set("ops_per_s", "1/s", n/window.Seconds())
	r.set("cpu_ms_per_op", "ms", ms(cpuPerOp))
	r.set("alloc_mb_per_op", "MB", float64(alloc)/(1<<20)/n)
}

// samples holds exact latencies, so percentiles are not quantised to
// histogram bucket bounds.
type samples []time.Duration

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the nearest-rank q-quantile (0 for no samples).
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	o := s.sorted()
	i := int(q*float64(len(o))+0.5) - 1
	return o[min(max(i, 0), len(o)-1)]
}

// tail is the highest percentile of the ladder that still has at least
// ten samples beyond it, with that percentile and the number of samples
// beyond it. ok is false when there are too few samples for any.
func (s samples) tail() (v time.Duration, pct float64, beyond int, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		k := int(float64(len(s)) * (1 - p/100))
		if k >= 10 {
			return s.quantile(p / 100), p, k, true
		}
	}
	return 0, 0, 0, false
}

func median(d []time.Duration) time.Duration { return samples(d).quantile(0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reportLatency prints a human-readable latency line with its sample
// counts.
func reportLatency(name string, s samples) {
	line := fmt.Sprintf("%s: n=%d min=%.3fms p50=%.3fms max=%.3fms", name, len(s),
		ms(s.quantile(0)), ms(s.quantile(0.5)), ms(s.quantile(1)))
	if v, p, k, ok := s.tail(); ok {
		line += fmt.Sprintf(" p%g=%.3fms (%d samples beyond)", p, ms(v), k)
	}
	fmt.Println(line)
}

// tracePath names the Chrome trace a traced run writes.
func tracePath(c config) string {
	return filepath.Join(c.out, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed))
}

// runDir is the per-process scratch directory under -out.
var runDir string

func makeRunDir(out string) (func(), error) {
	d, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	runDir = d
	return func() { os.RemoveAll(d) }, nil
}
