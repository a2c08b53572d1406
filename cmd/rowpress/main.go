// Command rowpress lists and runs the reproduction's experiments — one
// regenerator per table and figure of "RowPress: Amplifying Read
// Disturbance in Modern DRAM Chips" (ISCA 2023).
//
// Runs execute on the sharded experiment engine: -workers picks the
// concurrency (0 = GOMAXPROCS), and within one invocation completed
// shards are cached per (experiment, options, shard), so repeated or
// overlapping runs of the same experiment are served from memory.
// Serving over HTTP is cmd/rowpressd's job; point it at the same
// -cache-dir to warm-start from what a CLI run computed.
//
// Runs produce typed result documents (internal/report): -format picks
// the rendering (text, the canonical JSON document, or CSV), -cache-dir
// layers a persistent shard cache under the in-memory one so a later
// invocation (or daemon) warm-starts from disk, and -stats prints a
// cache-tier summary line after the run.
//
// Observability: -trace FILE attaches a span recorder to the engine and
// writes the run's full shard lifecycle (queue wait, tiered cache
// lookups, execution, merge) as Chrome trace-event JSON loadable in
// chrome://tracing or Perfetto. `rowpress profile <id>` runs an
// experiment cold under the recorder and prints the critical-path /
// shard-dominance analysis instead of the experiment report.
//
// Cross-run analytics: -ledger-dir stamps every completed run and sweep
// into a persistent append-only ledger (internal/ledger) — identity
// hashes, wall time, and the run's own tier-split shard counts and
// latency aggregates.
// `rowpress history` lists it, `rowpress compare <a> <b>` prints a
// benchstat-style delta between two records (with -gate for CI), and
// `rowpress loadtest` drives a live daemon with concurrent clients and
// records client- and server-side latency quantiles for the same
// window.
//
// Usage: `rowpress` with no arguments lists the commands and the flags
// each one accepts (usageText); `rowpress <command> -h` details them. A
// subcommand rejects any flag its usage does not list.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// config holds every value a command line can set. Each subcommand's
// flag set binds only the fields that subcommand accepts.
type config struct {
	cmd  string
	args []string // positional arguments

	scale                     float64
	modules                   string
	seed                      uint64
	scales, seeds, moduleSets string
	workers                   int
	trace, cpuprofile         string
	cacheDir                  string
	stats                     bool
	ledgerDir                 string
	format                    string
	top                       int
	experiment, kind          string
	limit                     int
	threshold                 float64
	gate                      string
	clients, requests         int
	mix, target               string
}

// runFlags binds the options of one experiment run.
func (c *config) runFlags(fs *flag.FlagSet) {
	fs.Float64Var(&c.scale, "scale", 1.0, "scale factor in (0,1] for rows/victims/instructions")
	fs.StringVar(&c.modules, "modules", "", "comma-separated Table 5 module ids (default: one per die revision)")
	fs.Uint64Var(&c.seed, "seed", 1, "seed for randomized components")
}

// engineFlags binds the engine's width and the run's trace and CPU
// profile outputs.
func (c *config) engineFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.workers, "workers", 0, "concurrent shards per experiment (0 = GOMAXPROCS)")
	fs.StringVar(&c.trace, "trace", "", "write a Chrome trace-event JSON of the run to this file")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
}

// cacheFlags binds the persistent cache tier and the cache-tier
// summary line.
func (c *config) cacheFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.cacheDir, "cache-dir", "", "persistent shard-cache directory (warm-starts across invocations and daemons)")
	fs.BoolVar(&c.stats, "stats", false, "print a cache-tier summary line after the run")
}

// ledgerFlag binds the run-ledger directory.
func (c *config) ledgerFlag(fs *flag.FlagSet) {
	fs.StringVar(&c.ledgerDir, "ledger-dir", "", "persistent run-ledger directory (run/sweep/all/loadtest stamp it; history/compare read it)")
}

// formatFlag binds -format, limited to formats; the first is the
// default.
func (c *config) formatFlag(fs *flag.FlagSet, formats ...string) {
	c.format = formats[0]
	want := strings.Join(formats, "|")
	fs.Func("format", "output rendering: "+want+" (default "+formats[0]+")", func(s string) error {
		if !slices.Contains(formats, s) {
			return fmt.Errorf("want %s", want)
		}
		c.format = s
		return nil
	})
}

// command is one subcommand's grammar: its positional arguments, which
// lead the command line, and the flags that follow them.
type command struct {
	args  []string
	flags func(*config, *flag.FlagSet)
}

var commands = map[string]command{
	"list": {flags: func(*config, *flag.FlagSet) {}},
	"scenarios": {flags: func(c *config, fs *flag.FlagSet) {
		c.formatFlag(fs, "text", "csv")
	}},
	"run": {args: []string{"<id>"}, flags: func(c *config, fs *flag.FlagSet) {
		c.runFlags(fs)
		c.engineFlags(fs)
		c.cacheFlags(fs)
		c.ledgerFlag(fs)
		c.formatFlag(fs, "text", "json", "csv")
	}},
	"sweep": {args: []string{"<id>"}, flags: func(c *config, fs *flag.FlagSet) {
		fs.StringVar(&c.scales, "scales", "", "comma-separated scale list")
		fs.StringVar(&c.seeds, "seeds", "", "comma-separated seed list")
		fs.StringVar(&c.moduleSets, "modulesets", "", `semicolon-separated module sets, e.g. "S0,S3;H0,H4"`)
		c.engineFlags(fs)
		c.cacheFlags(fs)
		c.ledgerFlag(fs)
		c.formatFlag(fs, "text", "json", "csv")
	}},
	// Profiling measures a cold run: a warm-start cache would hide
	// exactly the execution being measured, so profile takes no cache
	// flags.
	"profile": {args: []string{"<id>"}, flags: func(c *config, fs *flag.FlagSet) {
		c.runFlags(fs)
		c.engineFlags(fs)
		fs.IntVar(&c.top, "top", 10, "rows in the shard-dominance table")
		c.formatFlag(fs, "text", "json", "csv")
	}},
	"all": {flags: func(c *config, fs *flag.FlagSet) {
		c.runFlags(fs)
		c.engineFlags(fs)
		c.cacheFlags(fs)
		c.ledgerFlag(fs)
	}},
	"history": {flags: func(c *config, fs *flag.FlagSet) {
		c.ledgerFlag(fs)
		fs.StringVar(&c.experiment, "experiment", "", "filter records by experiment id")
		fs.StringVar(&c.kind, "kind", "", "filter records by kind: run|sweep|loadtest")
		fs.IntVar(&c.limit, "limit", 0, "max records to list, newest first; 0 = all")
		c.formatFlag(fs, "text", "json", "csv")
	}},
	"compare": {args: []string{"<a>", "<b>"}, flags: func(c *config, fs *flag.FlagSet) {
		c.ledgerFlag(fs)
		fs.Float64Var(&c.threshold, "threshold", 0, "regression-flag threshold as a fraction; 0 = default")
		fs.StringVar(&c.gate, "gate", "", "comma-separated findings that fail the exit code: determinism,regression")
		c.formatFlag(fs, "text", "json", "csv")
	}},
	"loadtest": {flags: func(c *config, fs *flag.FlagSet) {
		fs.StringVar(&c.target, "target", "http://localhost:8271", "daemon base URL")
		fs.IntVar(&c.clients, "clients", 0, "concurrent clients; 0 = default")
		fs.IntVar(&c.requests, "requests", 0, "total requests across clients; 0 = default")
		fs.StringVar(&c.mix, "mix", "", "comma-separated experiment ids issued round-robin")
		fs.Float64Var(&c.scale, "scale", 0, "scale of every request; 0 = the load test's default")
		fs.Uint64Var(&c.seed, "seed", 1, "seed of every request")
		c.ledgerFlag(fs)
		c.formatFlag(fs, "text", "json", "csv")
	}},
}

// parse reads a command line (without the program name). It writes
// its diagnostics to out; any error is a usage error (see usageExit).
func parse(args []string, out io.Writer) (*config, error) {
	if len(args) == 0 {
		fmt.Fprint(out, usageText)
		return nil, errors.New("no command")
	}
	cmd, ok := commands[args[0]]
	if !ok {
		fmt.Fprint(out, usageText)
		return nil, fmt.Errorf("unknown command %q", args[0])
	}
	c := &config{cmd: args[0]}
	fs := flag.NewFlagSet(c.cmd, flag.ContinueOnError)
	fs.SetOutput(out)
	fs.Usage = func() {
		fmt.Fprintf(out, "usage: rowpress %s [flags]\n", strings.Join(append([]string{c.cmd}, cmd.args...), " "))
		fs.PrintDefaults()
	}
	cmd.flags(c, fs)
	rest := args[1:]
	for len(c.args) < len(cmd.args) && len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		c.args, rest = append(c.args, rest[0]), rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return nil, err
	}
	if len(c.args) != len(cmd.args) || fs.NArg() > 0 {
		fs.Usage()
		return nil, fmt.Errorf("%s takes %d leading argument(s)", c.cmd, len(cmd.args))
	}
	return c, nil
}

// usageExit is the exit status of a command line parse rejected: 0
// when it asked for help, 2 otherwise.
func usageExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// die reports a failure and exits with code.
func die(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rowpress: "+format+"\n", args...)
	os.Exit(code)
}

// options returns the run options the command line selects.
func (c *config) options() core.Options {
	o := core.DefaultOptions()
	o.Scale, o.Seed = c.scale, c.seed
	if c.modules != "" {
		o.Modules = strings.Split(c.modules, ",")
	}
	return o
}

// engine builds the engine of a run-executing command: -workers wide,
// over -cache-dir when set, recording spans when -trace is set.
func (c *config) engine() *engine.Engine {
	e := engine.New(c.workers, 0)
	if c.cacheDir != "" {
		dc, err := engine.OpenDiskCache(c.cacheDir, 0)
		if err != nil {
			die(1, "-cache-dir: %v", err)
		}
		e.AttachDiskCache(dc)
	}
	if c.trace != "" {
		e.SetRecorder(obs.NewRecorder(0))
	}
	return e
}

// openLedger opens -ledger-dir. Commands that only read the ledger
// (history, compare) require one; the others skip stamping when unset.
func (c *config) openLedger(required bool) *ledger.Ledger {
	if c.ledgerDir == "" {
		if required {
			die(2, "%s needs -ledger-dir", c.cmd)
		}
		return nil
	}
	l, err := ledger.Open(c.ledgerDir, 0)
	if err != nil {
		die(1, "-ledger-dir: %v", err)
	}
	return l
}

// finish writes the trace, flushes the disk-cache index, and prints the
// -stats summary; every run-executing command calls it before exiting.
func (c *config) finish(e *engine.Engine) {
	if c.trace != "" {
		if err := writeTrace(e.Recorder(), c.trace); err != nil {
			die(1, "-trace: %v", err)
		}
	}
	if d := e.Disk(); d != nil {
		if err := d.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "rowpress: cache flush: %v\n", err)
		}
	}
	if c.stats {
		// Diagnostics go to stderr so -format json/csv stdout stays
		// machine-parseable.
		fmt.Fprint(os.Stderr, statsLine(e))
	}
}

// render writes doc to stdout in format.
func render(doc *report.Doc, format string) {
	switch format {
	case "json":
		b, err := report.JSON(doc)
		if err != nil {
			die(1, "%v", err)
		}
		os.Stdout.Write(b)
	case "csv":
		fmt.Print(report.CSV(doc))
	default:
		fmt.Print(report.Text(doc))
	}
}

func main() {
	c, err := parse(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(usageExit(err))
	}
	var e *engine.Engine // the engine of a run-executing command
	stop := func() {}
	switch c.cmd {
	case "list":
		for _, exp := range core.List() {
			fmt.Printf("%-8s %s\n", exp.ID, exp.Title)
		}
	case "scenarios":
		if c.format == "csv" {
			fmt.Print(scenario.MatrixCSV())
		} else {
			fmt.Print(scenario.MatrixText())
		}
	case "run":
		e = c.engine()
		led := c.openLedger(false)
		stop = startProfile(c.cpuprofile)
		runOne(e, led, c.args[0], c.options(), c.format)
	case "sweep":
		spec, err := buildSpec(c.args[0], c.scales, c.seeds, c.moduleSets)
		if err != nil {
			die(2, "%v", err)
		}
		e = c.engine()
		led := c.openLedger(false)
		stop = startProfile(c.cpuprofile)
		runSweep(e, led, spec, c.format)
	case "profile":
		stop = startProfile(c.cpuprofile)
		runProfile(c.args[0], c.options(), c.workers, c.top, c.format, c.trace)
	case "all":
		e = c.engine()
		led := c.openLedger(false)
		stop = startProfile(c.cpuprofile)
		for _, exp := range core.List() {
			runOne(e, led, exp.ID, c.options(), "text")
		}
	case "history":
		led := c.openLedger(true)
		recs := led.Records(ledger.Query{Experiment: c.experiment, Kind: c.kind, Limit: c.limit})
		if c.format != "json" {
			render(ledger.HistoryDoc(recs, led.Stats()), c.format)
			break
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if recs == nil {
			recs = []ledger.Record{}
		}
		if err := enc.Encode(recs); err != nil {
			die(1, "%v", err)
		}
	case "compare":
		gates := splitList(c.gate, ",")
		for _, g := range gates {
			if g != "determinism" && g != "regression" {
				die(2, "bad -gate %q: want determinism|regression", g)
			}
		}
		a, b, err := c.openLedger(true).ResolvePair(c.args[0], c.args[1])
		if err != nil {
			die(1, "compare: %v", err)
		}
		d := ledger.Compare(a, b, ledger.CompareOptions{Threshold: c.threshold})
		render(d.Doc, c.format)
		failed := false
		for _, g := range gates {
			if (g == "determinism" && d.DeterminismViolation) || (g == "regression" && d.Regression) {
				fmt.Fprintf(os.Stderr, "rowpress: compare: %s gate failed\n", g)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
	case "loadtest":
		rec, doc, err := ledger.LoadTest(ledger.LoadTestConfig{
			BaseURL:  c.target,
			Clients:  c.clients,
			Requests: c.requests,
			Mix:      splitList(c.mix, ","),
			Scale:    c.scale,
			Seed:     c.seed,
		})
		if err != nil {
			die(1, "loadtest: %v", err)
		}
		if led := c.openLedger(false); led != nil {
			if _, aerr := led.Append(rec); aerr != nil {
				fmt.Fprintf(os.Stderr, "rowpress: ledger: %v\n", aerr)
			}
			led.Close()
		}
		render(doc, c.format)
	}
	stop()
	if e != nil {
		c.finish(e)
	}
}

// startProfile begins CPU profiling into path (no-op when empty) and
// returns the stop function.
func startProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		die(1, "-cpuprofile: %v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		die(1, "-cpuprofile: %v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rowpress: -cpuprofile: %v\n", err)
		}
	}
}

// runOne executes one experiment and renders its document. With a
// ledger attached it also stamps the durable run record: identity
// hashes, the run's own tier split and latency tally, and the profile
// summary when tracing is on. Failed runs are recorded too — a history
// that omits failures cannot explain a trend break.
func runOne(eng *engine.Engine, led *ledger.Ledger, id string, o core.Options, format string) {
	start := time.Now()
	var spanLo int
	if rec := eng.Recorder(); led != nil && rec != nil {
		spanLo = len(rec.Snapshot())
	}
	doc, st, err := core.RunObserved(eng, id, o, nil)
	if led != nil {
		lr := ledger.NewRecord(ledger.KindRun, id, o.Hash(), st.Shards, time.Since(start), st.Tally)
		lr.Workers = eng.Workers()
		if err != nil {
			lr.Error = err.Error()
		} else {
			lr.DocHash = ledger.DocHash(doc)
		}
		if rec := eng.Recorder(); rec != nil {
			spans := rec.Snapshot()
			if spanLo > len(spans) {
				spanLo = 0 // trace ring overflowed; analyze what remains
			}
			lr.Profile = ledger.ProfileFrom(obs.Analyze(spans[spanLo:]), eng.Workers())
		}
		if _, aerr := led.Append(lr); aerr != nil {
			fmt.Fprintf(os.Stderr, "rowpress: ledger: %v\n", aerr)
		}
	}
	if err != nil {
		die(1, "%s: %v", id, err)
	}
	if format != "text" {
		render(doc, format)
		return
	}
	fmt.Printf("# %s (%.1fs)\n%s\n", id, time.Since(start).Seconds(), report.Text(doc))
}

// runProfile executes one experiment cold under a span recorder and
// prints the critical-path / shard-dominance analysis instead of the
// experiment report. The engine is always fresh (no warm-start cache,
// no prior runs), so every shard actually executes and the profile
// measures real work.
func runProfile(id string, o core.Options, workers, top int, format, tracePath string) {
	e := engine.New(workers, 0)
	rec := obs.NewRecorder(0)
	e.SetRecorder(rec)
	start := time.Now()
	if _, err := core.RunWith(e, id, o); err != nil {
		die(1, "profile %s: %v", id, err)
	}
	wall := time.Since(start)
	spans := rec.Snapshot()
	doc := obs.Analyze(spans).Doc(top)
	doc.Experiment = id
	doc.Title = "Execution profile: " + id
	doc.Params = append(doc.Params,
		report.Param{Key: "scale", Value: fmt.Sprintf("%g", o.Scale)},
		report.Param{Key: "workers", Value: strconv.Itoa(e.Workers())},
	)
	if format == "text" {
		fmt.Printf("# profile %s (%.1fs wall, %d spans)\n%s\n", id, wall.Seconds(), len(spans), report.Text(doc))
	} else {
		render(doc, format)
	}
	if tracePath != "" {
		if err := writeTrace(rec, tracePath); err != nil {
			die(1, "-trace: %v", err)
		}
	}
}

// writeTrace dumps the recorder's spans as Chrome trace-event JSON.
func writeTrace(rec *obs.Recorder, path string) error {
	if rec == nil {
		return fmt.Errorf("engine has no span recorder attached")
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "rowpress: trace ring overflowed; oldest %d spans dropped\n", d)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rec.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statsLine summarizes both cache tiers — plus queue wait and
// tier-attributed lookup latency — after the measured runs: the
// operator-facing view of the /v1/metrics counters.
func statsLine(eng *engine.Engine) string {
	m := eng.Metrics()
	line := fmt.Sprintf("# stats: runs=%d shards=%d executed=%d cache_hits=%d | mem entries=%d hits=%d misses=%d evictions=%d",
		m.Runs, m.ShardsPlanned, m.ShardsExecuted, m.CacheHits,
		m.Mem.Entries, m.Mem.Hits, m.Mem.Misses, m.Mem.Evictions)
	if eng.Disk() != nil {
		line += fmt.Sprintf(" | disk entries=%d bytes=%d hits=%d misses=%d evictions=%d writes=%d write_errors=%d",
			m.Disk.Entries, m.Disk.Bytes, m.Disk.Hits, m.Disk.Misses, m.Disk.Evictions,
			m.Disk.Writes, m.Disk.WriteErrors)
	}
	line += fmt.Sprintf(" | queue waits=%d avg=%s | lookup mem=%d/%s disk=%d/%s miss=%d/%s",
		m.QueueWait.Count, m.QueueWait.Avg().Round(time.Microsecond),
		m.MemLookup.Count, m.MemLookup.Avg().Round(time.Microsecond),
		m.DiskLookup.Count, m.DiskLookup.Avg().Round(time.Microsecond),
		m.MissLookup.Count, m.MissLookup.Avg().Round(time.Microsecond))
	return line + "\n"
}

// buildSpec parses the sweep flag grammar: comma-separated scales and
// seeds, semicolon-separated module sets (each itself comma-separated;
// an empty set selects the representative modules).
func buildSpec(id, scales, seeds, moduleSets string) (sweep.Spec, error) {
	spec := sweep.Spec{Experiment: id}
	for _, v := range splitList(scales, ",") {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return spec, fmt.Errorf("bad scale %q: %v", v, err)
		}
		spec.Scales = append(spec.Scales, f)
	}
	for _, v := range splitList(seeds, ",") {
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return spec, fmt.Errorf("bad seed %q: %v", v, err)
		}
		spec.Seeds = append(spec.Seeds, u)
	}
	for _, set := range splitList(moduleSets, ";") {
		spec.ModuleSets = append(spec.ModuleSets, strings.Split(set, ","))
	}
	return spec, nil
}

// splitList splits on sep, trimming whitespace and dropping empties.
func splitList(s, sep string) []string {
	var out []string
	for _, v := range strings.Split(s, sep) {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func runSweep(eng *engine.Engine, led *ledger.Ledger, spec sweep.Spec, format string) {
	start := time.Now()
	res, err := sweep.Run(eng, spec)
	if err != nil {
		die(1, "sweep %s: %v", spec.Experiment, err)
	}
	if led != nil {
		a := res.Aggregate
		docs := make([]*report.Doc, len(res.Points))
		for i := range res.Points {
			docs[i] = res.Points[i].Doc
		}
		b := res.Batch
		lr := ledger.NewRecord(ledger.KindSweep, res.Experiment, ledger.HashJSON("sweep", spec), b.ShardRefs, b.Wall, b.Tally)
		lr.DocHash, lr.Workers = ledger.DocsHash(docs), eng.Workers()
		if a.Failed > 0 {
			lr.Error = fmt.Sprintf("%d/%d points failed", a.Failed, a.Points)
		}
		if _, aerr := led.Append(lr); aerr != nil {
			fmt.Fprintf(os.Stderr, "rowpress: ledger: %v\n", aerr)
		}
	}
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			die(1, "%v", err)
		}
	case "csv":
		fmt.Print(res.CSV())
	default: // "text"; format is validated before the sweep runs
		fmt.Printf("# sweep %s (%d points, %.1fs)\n%s", spec.Experiment,
			res.Aggregate.Points, time.Since(start).Seconds(), res.Text())
	}
	if res.Aggregate.Failed > 0 {
		fmt.Fprintf(os.Stderr, "rowpress: sweep %s: %d/%d points failed\n",
			spec.Experiment, res.Aggregate.Failed, res.Aggregate.Points)
		os.Exit(1)
	}
}

// usageText is the top-level help. Each command lists every flag it
// accepts, directly or through a flag group; cmd/rowpress's tests hold
// the flag sets to it.
const usageText = `rowpress — RowPress (ISCA 2023) reproduction harness

usage: rowpress <command> [arguments] [flags]    (rowpress <command> -h: flag details)

commands:
  list                 list all experiment ids (figures and tables)
  scenarios            list the attack-scenario matrix
      -format text|csv
  run <id>             run one experiment and print its report
      RUN  ENGINE  CACHE  -ledger-dir DIR  -format text|json|csv
  sweep <id>           run a batched parameter grid over one experiment
      -scales F,F,...  -seeds N,N,...  -modulesets "S0,S3;H0,H4"
      ENGINE  CACHE  -ledger-dir DIR  -format text|json|csv
  profile <id>         run one experiment cold and print the critical-path /
                       shard-dominance analysis
      RUN  ENGINE  -top N  -format text|json|csv
  all                  run every experiment
      RUN  ENGINE  CACHE  -ledger-dir DIR
  history              list the persistent run ledger
      -ledger-dir DIR (required)  -experiment ID  -kind run|sweep|loadtest  -limit N
      -format text|json|csv
  compare <a> <b>      benchstat-style delta between two ledger records;
                       selectors are a record id or experiment[~N] (N-th newest)
      -ledger-dir DIR (required)  -threshold F  -gate determinism,regression (exit 1 on a hit)
      -format text|json|csv
  loadtest             drive a live daemon with concurrent clients and record
                       client+server latency quantiles into the ledger
      -target URL  -clients N  -requests N  -mix id,id,...  -scale F  -seed N
      -ledger-dir DIR  -format text|json|csv

flag groups:
  RUN     -scale F  -modules S0,S3,...  -seed N
  ENGINE  -workers N  -trace FILE (Chrome trace-event JSON; chrome://tracing, Perfetto)  -cpuprofile FILE
  CACHE   -cache-dir DIR (persistent warm-start cache)  -stats (cache-tier summary)

serving over HTTP: rowpressd (same -cache-dir and -ledger-dir warm-start it)
`
