package engine

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// collectEvents runs the plan with a synchronized OnShard observer and
// returns the events in arrival order.
func collectEvents(t *testing.T, e *Engine, p Plan) ([]ShardEvent, RunStats) {
	t.Helper()
	var mu sync.Mutex
	var events []ShardEvent
	p.OnShard = func(ev ShardEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	_, stats, err := e.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	return events, stats
}

// Every shard must produce exactly one event, and the event's
// cached/tier/worker fields must be consistent with what actually
// happened: a cold run executes everything on real worker slots, a
// repeat is served entirely from the memory tier with no worker.
func TestShardEventsExactlyOncePerShard(t *testing.T) {
	const workers, shards = 4, 12
	var n atomic.Int64
	e := New(workers, 0)

	cold, stats := collectEvents(t, e, countingPlan("exp", "fp", shards, &n))
	if len(cold) != shards {
		t.Fatalf("cold run: %d events for %d shards", len(cold), shards)
	}
	seen := map[int]bool{}
	for _, ev := range cold {
		if seen[ev.Index] {
			t.Fatalf("shard %d reported twice", ev.Index)
		}
		seen[ev.Index] = true
		if ev.Cached || ev.Tier != "" {
			t.Fatalf("cold shard %d marked cached (tier %q)", ev.Index, ev.Tier)
		}
		if ev.Worker < 0 || ev.Worker >= workers {
			t.Fatalf("cold shard %d on worker %d, want [0,%d)", ev.Index, ev.Worker, workers)
		}
		if ev.Queue < 0 || ev.Wall <= 0 || ev.Err != nil {
			t.Fatalf("cold shard %d: queue=%v wall=%v err=%v", ev.Index, ev.Queue, ev.Wall, ev.Err)
		}
	}
	if stats.Executed != shards || stats.QueueWait.Count != shards || stats.QueueWait.Total < 0 {
		t.Fatalf("cold stats: %+v", stats)
	}

	warm, stats := collectEvents(t, e, countingPlan("exp", "fp", shards, &n))
	if len(warm) != shards {
		t.Fatalf("warm run: %d events for %d shards", len(warm), shards)
	}
	for _, ev := range warm {
		if !ev.Cached || ev.Tier != TierMem {
			t.Fatalf("warm shard %d: cached=%v tier=%q, want mem hit", ev.Index, ev.Cached, ev.Tier)
		}
		if ev.Worker != -1 {
			t.Fatalf("warm shard %d claims worker %d, want -1", ev.Index, ev.Worker)
		}
	}
	if stats.CacheHits != shards || stats.Executed != 0 || stats.QueueWait.Count != 0 {
		t.Fatalf("warm stats: %+v", stats)
	}
	if n.Load() != shards {
		t.Fatalf("shards executed %d times total, want %d", n.Load(), shards)
	}
}

// A recorded cold run must carry the whole lifecycle: one plan-scoped
// barrier and merge, and per shard one lookup (a miss), one queue
// wait, and one execute span whose worker matches its queue wait's.
func TestRecorderSpansCoverLifecycle(t *testing.T) {
	const workers, shards = 2, 6
	var n atomic.Int64
	e := New(workers, 0)
	rec := obs.NewRecorder(0)
	e.SetRecorder(rec)
	if _, _, err := e.Execute(countingPlan("exp", "fp", shards, &n)); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	for kind, want := range map[string]uint64{
		"cache_miss": shards, "queue_wait": shards, "execute": shards,
		"barrier": 1, "merge": 1, "cache_mem": 0, "cache_disk": 0,
	} {
		if got := st[kind].Count; got != want {
			t.Fatalf("%s spans = %d, want %d (stats %+v)", kind, got, want, st)
		}
	}
	byShard := map[string][]obs.Span{}
	for _, s := range rec.Snapshot() {
		if s.Kind == obs.QueueWait || s.Kind == obs.Execute {
			if s.Worker < 0 || int(s.Worker) >= workers {
				t.Fatalf("span %+v has out-of-range worker", s)
			}
			byShard[s.Shard] = append(byShard[s.Shard], s)
		}
	}
	if len(byShard) != shards {
		t.Fatalf("spans cover %d shards, want %d", len(byShard), shards)
	}
	for key, ss := range byShard {
		if len(ss) != 2 || ss[0].Worker != ss[1].Worker {
			t.Fatalf("shard %s spans inconsistent: %+v", key, ss)
		}
		for _, s := range ss {
			if s.Kind == obs.Execute && s.Bytes <= 0 {
				t.Fatalf("executed shard %s has no payload size: %+v", key, s)
			}
		}
	}

	// A warm re-run records mem-tier lookups and nothing pool-side.
	if _, _, err := e.Execute(countingPlan("exp", "fp", shards, &n)); err != nil {
		t.Fatal(err)
	}
	st = rec.Stats()
	if st["cache_mem"].Count != shards || st["execute"].Count != shards {
		t.Fatalf("warm rerun stats wrong: %+v", st)
	}
}

// One worker slot is serial: its execute spans must not overlap. The
// engine releases the slot only after the execution interval is
// measured, so this holds exactly, not just statistically.
func TestExecuteSpansNonOverlappingPerWorker(t *testing.T) {
	const workers, shards = 2, 10
	e := New(workers, 0)
	rec := obs.NewRecorder(0)
	e.SetRecorder(rec)
	p := countingPlan("exp", "fp", shards, new(atomic.Int64))
	for i := range p.Shards {
		run := p.Shards[i].Run
		p.Shards[i].Run = func() (any, error) {
			time.Sleep(time.Millisecond)
			return run()
		}
	}
	if _, _, err := e.Execute(p); err != nil {
		t.Fatal(err)
	}
	byWorker := map[int32][]obs.Span{}
	for _, s := range rec.Snapshot() {
		if s.Kind == obs.Execute {
			byWorker[s.Worker] = append(byWorker[s.Worker], s)
		}
	}
	var total int
	for w, ss := range byWorker {
		total += len(ss)
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		for i := 1; i < len(ss); i++ {
			if ss[i].Start < ss[i-1].End() {
				t.Fatalf("worker %d spans overlap: %s [%v,%v) then %s [%v,%v)",
					w, ss[i-1].Shard, ss[i-1].Start, ss[i-1].End(),
					ss[i].Shard, ss[i].Start, ss[i].End())
			}
		}
	}
	if total != shards {
		t.Fatalf("execute spans = %d, want %d", total, shards)
	}
}

// The always-on latency aggregates (queue wait, per-tier lookups) must
// fill without any recorder attached — they feed /v1/metrics and
// -stats, which cannot require tracing.
func TestLatencyAggregatesWithoutRecorder(t *testing.T) {
	const shards = 5
	var n atomic.Int64
	e := New(2, 0)
	if _, _, err := e.Execute(countingPlan("exp", "fp", shards, &n)); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.QueueWait.Count != shards || m.MissLookup.Count != shards || m.MemLookup.Count != 0 {
		t.Fatalf("cold aggregates: %+v", m)
	}
	if _, _, err := e.Execute(countingPlan("exp", "fp", shards, &n)); err != nil {
		t.Fatal(err)
	}
	m = e.Metrics()
	if m.MemLookup.Count != shards || m.QueueWait.Count != shards {
		t.Fatalf("warm aggregates: %+v", m)
	}
	if m.QueueWait.Avg() < 0 || m.MemLookup.Avg() < 0 {
		t.Fatal("negative average latency")
	}
}

// TestPerCallAccountingSumsToMetrics runs a mixed sequence of calls on
// one engine — cold and warm Execute, a batch with duplicate keys, a
// split unit retried after a sub-shard failure, and fabric-side
// ResolveLocal — and pins the single accounting path: every call's
// tier split totals its shard count, and the lifetime Metrics are
// exactly the sum of the calls' own stats, latency totals included.
func TestPerCallAccountingSumsToMetrics(t *testing.T) {
	var n atomic.Int64
	e := New(2, 0)
	e.AttachRemote(&fakeRemote{answers: map[string]any{Key("exp", "fp", "shard-00"): "shard-00"}})

	var sum Tally
	var runs, planned, subsPlanned uint64
	add := func(name string, shards int, tl Tally) {
		t.Helper()
		if got := tl.Tiers.Total(); got != shards {
			t.Fatalf("%s: tier split %+v totals %d, want %d shards", name, tl.Tiers, got, shards)
		}
		sum.add(&tl)
	}
	execute := func(name string, p Plan, wantErr bool) RunStats {
		t.Helper()
		_, st, err := e.Execute(p)
		if (err != nil) != wantErr {
			t.Fatalf("%s: err=%v", name, err)
		}
		if st.Executed != st.Tiers.Miss || st.CacheHits != st.Shards-st.Executed {
			t.Fatalf("%s: stats %+v disagree with their tier split", name, st)
		}
		add(name, st.Shards, st.Tally)
		runs, planned, subsPlanned = runs+1, planned+uint64(st.Shards), subsPlanned+uint64(st.SubShards)
		return st
	}
	batch := func(name string, plans ...Plan) BatchStats {
		t.Helper()
		_, stats, errs, bs := e.ExecuteBatch(plans)
		var perPlan Tally
		for pi, st := range stats {
			if errs[pi] != nil {
				t.Fatalf("%s: plan %d: %v", name, pi, errs[pi])
			}
			if st.Tiers.Total() != st.Shards || st.Executed != st.Tiers.Miss {
				t.Fatalf("%s: plan %d stats %+v disagree with their tier split", name, pi, st)
			}
			perPlan.add(&st.Tally)
			subsPlanned += uint64(st.SubShards)
		}
		if perPlan != bs.Tally {
			t.Fatalf("%s: batch tally %+v is not the sum of its plans' %+v", name, bs.Tally, perPlan)
		}
		add(name, bs.ShardRefs, bs.Tally)
		runs, planned = runs+uint64(len(plans)), planned+uint64(bs.ShardRefs)
		return bs
	}

	cold := countingPlan("exp", "fp", 4, &n)
	cold.Remote = "meta" // shard-00 is answered by the fake peer
	if st := execute("cold", cold, false); st.Tiers != (TierCounts{Remote: 1, Miss: 3}) ||
		st.QueueWait.Count != 3 || st.RemoteLookup.Count != 1 || st.MissLookup.Count != 4 {
		t.Fatalf("cold: %+v", st)
	}
	if st := execute("warm", countingPlan("exp", "fp", 4, &n), false); st.Tiers != (TierCounts{Mem: 4}) ||
		st.QueueWait.Count != 0 || st.MemLookup.Count != 4 {
		t.Fatalf("warm: %+v", st)
	}

	// Fresh keys referenced by two plans plus one warm plan: the second
	// reference to each fresh key is a join.
	bs := batch("dedup", countingPlan("exp", "fp2", 3, &n), countingPlan("exp", "fp2", 3, &n), countingPlan("exp", "fp", 4, &n))
	if bs.Tiers != (TierCounts{Mem: 4, Join: 3, Miss: 3}) || bs.Executed != 3 || bs.CacheHits != 4 || bs.Deduplicated != 3 {
		t.Fatalf("dedup batch: %+v", bs)
	}

	// A split unit whose first attempt fails on one sub-shard: the retry
	// misses at the unit level while the sub-shard that succeeded hits.
	var fail atomic.Bool
	fail.Store(true)
	split := func() Plan {
		return splitPlan("split", "retry", 2, nil, func(j int, run func() (any, error)) func() (any, error) {
			if j == 0 {
				return run
			}
			return func() (any, error) {
				if fail.Load() {
					return nil, errors.New("boom")
				}
				return run()
			}
		})
	}
	if st := execute("split-fail", split(), true); st.Tiers != (TierCounts{Miss: 1}) ||
		st.SubExecuted != 2 || st.QueueWait.Count != 2 {
		t.Fatalf("failed split: %+v", st)
	}
	fail.Store(false)
	bs = batch("split-retry", split())
	if bs.Tiers != (TierCounts{Miss: 1}) || bs.SubExecuted != 1 || bs.QueueWait.Count != 1 ||
		bs.MemLookup.Count != 1 || bs.MissLookup.Count != 2 {
		t.Fatalf("retried split: %+v", bs)
	}

	// A fabric dispatch served by this engine: executed, then warm.
	leaf := Shard{Key: "peer", Run: func() (any, error) { return "peer", nil }}
	for _, want := range []string{"", TierMem} {
		_, tier, tl, err := e.ResolveLocal(Key("exp", "fp", "peer"), leaf, "exp")
		if err != nil || tier != want {
			t.Fatalf("ResolveLocal: tier=%q err=%v, want tier %q", tier, err, want)
		}
		add("resolve", 1, tl)
	}

	m := e.Metrics()
	hits := uint64(sum.Tiers.Total() - sum.Tiers.Miss)
	if m.Runs != runs || m.ShardsPlanned != planned || m.SubShardsPlanned != subsPlanned || m.Errors != 1 ||
		m.ShardsExecuted != uint64(sum.Tiers.Miss) || m.CacheMisses != uint64(sum.Tiers.Miss) || m.CacheHits != hits ||
		m.SubShardsExecuted != uint64(sum.SubExecuted) || m.TotalShardTime != sum.ExecTime || m.RemoteErrors != sum.RemoteErrors {
		t.Fatalf("metrics %+v are not the sum of the calls' stats %+v", m, sum)
	}
	for name, got := range map[string][2]LatencyStats{
		"queue_wait":    {m.QueueWait, sum.QueueWait},
		"mem_lookup":    {m.MemLookup, sum.MemLookup},
		"disk_lookup":   {m.DiskLookup, sum.DiskLookup},
		"miss_lookup":   {m.MissLookup, sum.MissLookup},
		"remote_lookup": {m.RemoteLookup, sum.RemoteLookup},
	} {
		if got[0] != got[1] {
			t.Fatalf("%s: metrics %+v, calls sum to %+v", name, got[0], got[1])
		}
	}
}
