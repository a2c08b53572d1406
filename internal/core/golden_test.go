package core

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/report"
)

// -update regenerates the golden reports. Only use it for deliberate,
// reviewed output changes: the goldens pin every experiment report to the
// byte-exact output of the original per-command simulation path, so the
// batched/closed-form fast paths cannot drift without failing here.
var updateGolden = flag.Bool("update", false, "rewrite golden experiment reports")

// goldenOptions is the configuration every golden-fixture run uses.
func goldenOptions() Options {
	return Options{Scale: 0.05, Seed: 1, Modules: []string{"S0", "S3", "M3"}}
}

// goldenWorkers are the engine widths the fixture runs every
// experiment at: serial, the CI host's core count, and oversubscribed.
var goldenWorkers = []int{1, 2, 8}

// goldenRun is one experiment's cold run on one fixture engine.
type goldenRun struct {
	doc   *report.Doc
	stats engine.RunStats
	err   error
}

// goldenFixture holds, per worker count, the engine the cold runs used
// (its caches now hold every golden shard) and each experiment's run.
type goldenFixture struct {
	engines map[int]*engine.Engine
	runs    map[int]map[string]goldenRun
}

var (
	fixtureOnce sync.Once
	fixture     goldenFixture
)

// goldenRuns computes every registered experiment cold at the golden
// options once per worker count, each width on its own fresh engine,
// and shares the result with every test that checks those reports.
// The widths run concurrently, each goroutine filling only its own
// width's map.
func goldenRuns() *goldenFixture {
	fixtureOnce.Do(func() {
		fixture = goldenFixture{engines: map[int]*engine.Engine{}, runs: map[int]map[string]goldenRun{}}
		var wg sync.WaitGroup
		for _, w := range goldenWorkers {
			eng := engine.New(w, 0)
			runs := map[string]goldenRun{}
			fixture.engines[w], fixture.runs[w] = eng, runs
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, e := range List() {
					var r goldenRun
					r.doc, r.stats, r.err = RunObserved(eng, e.ID, goldenOptions(), nil)
					runs[e.ID] = r
				}
			}()
		}
		wg.Wait()
	})
	return &fixture
}

// goldenRunAt returns experiment id's fixture run at w workers, failing
// the test when that run failed.
func goldenRunAt(t *testing.T, w int, id string) goldenRun {
	t.Helper()
	r := goldenRuns().runs[w][id]
	if r.err != nil {
		t.Fatalf("run (%d workers): %v", w, r.err)
	}
	return r
}

// TestGoldenReports asserts that every registered experiment reproduces
// its checked-in pre-refactor report byte-for-byte at one, two, and
// eight workers. This is the acceptance gate for the closed-form accrual
// and replay-free search rework, and — since the dominant shards now
// declare sub-shard splits — for the two-level merge: any numerical or
// ordering drift in the fast paths, and any completion-order dependence
// in a Gather, shows up as a diff here.
func TestGoldenReports(t *testing.T) {
	for _, e := range List() {
		t.Run(e.ID, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", e.ID+".golden")
			got := report.Text(goldenRunAt(t, 1, e.ID).doc)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("report differs from golden %s\n--- want ---\n%s\n--- got ---\n%s",
					path, want, got)
			}
			for _, w := range goldenWorkers[1:] {
				if report.Text(goldenRunAt(t, w, e.ID).doc) != got {
					t.Errorf("%d-worker report differs from serial report", w)
				}
			}
		})
	}
}
