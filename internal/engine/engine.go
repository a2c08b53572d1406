// Package engine executes experiment plans concurrently. A Plan
// decomposes one experiment run into deterministic Shards (per-module or
// per-configuration slices of a sweep); the Engine runs the shards on a
// bounded worker pool, memoizes every completed shard in a
// content-addressed cache — an in-memory LRU, optionally layered over a
// persistent DiskCache so a restarted process warm-starts — and hands
// the ordered shard payloads to the plan's Merge to build the exact
// result document the serial path would have produced.
//
// The engine is generic: it knows nothing about DRAM or the paper. The
// core package builds plans; cmd/rowpress, cmd/rowpressd, and the bench
// harness pick the worker count and share engines (and therefore caches)
// across requests.
package engine

import (
	"encoding/gob"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
)

// Shard is one deterministic unit of work within a plan. Key must be
// unique within the plan and stable across runs with equal inputs: it is
// the final component of the shard's cache address. Run must be pure —
// equal (experiment, fingerprint, key) must produce an equal payload —
// and the returned payload must never be mutated afterwards, because the
// cache hands the same value to later runs.
//
// A shard may declare a second-level split instead of a Run: Subs lists
// independently cache-keyed sub-shards and Gather folds their payloads
// (index j holds the result of Subs[j], regardless of completion order)
// into the shard's own payload, which is cached under the shard's key
// exactly as if Run had produced it — warm runs hit at the unit level
// and never touch the subs. Run is ignored when Subs is non-empty. The
// split is one level deep: sub-shards cannot split further.
type Shard struct {
	Key string
	Run func() (any, error)

	Subs   []SubShard
	Gather func(subs []any) (any, error)
}

// SubShard is one unit of a shard's declared split. Key must be unique
// within the parent shard and stable across runs; the sub-shard's cache
// address is derived from the parent's, so equal (experiment,
// fingerprint, shard key, sub key) means an equal payload. Run carries
// the same purity and immutability contract as Shard.Run.
type SubShard struct {
	Key string
	Run func() (any, error)
}

// Cache tiers as they appear in ShardEvent.Tier and the serving
// layer's metrics. TierJoin marks a shard adopted from a concurrent
// in-flight execution — cached from this call's point of view, though
// no cache tier answered it. TierRemote marks a shard answered by a
// fabric peer's tiers or pool over the wire (see RemoteTier).
const (
	TierMem    = "mem"
	TierDisk   = "disk"
	TierJoin   = "join"
	TierRemote = "remote"
)

// ShardEvent describes one resolved shard of a plan run by Execute or
// ExecuteBatch: either a cache hit (Cached, Wall 0, Tier naming the
// tier that answered) or a completed execution (Worker is the pool
// slot that ran it, Queue the dispatch→execution wait). In a batch, a
// reference to a key an earlier shard of the batch already resolved
// is a join (Cached, Tier "join", Worker -1). Err is non-nil when the
// shard failed. A split shard is executed by many pool slots at once,
// so its Worker is -1; Subs and SubsRun break out how much of its
// split ran.
type ShardEvent struct {
	Index   int           // shard index within the plan
	Key     string        // the shard's plan-level key
	Cached  bool          // served from a cache tier or a joined in-flight run
	Tier    string        // "mem", "disk", "join", or "remote" when Cached; "" when executed
	Peer    string        // answering peer's URL when Tier is "remote"
	Worker  int           // worker slot that executed the shard; -1 when cached or split
	Queue   time.Duration // time between dispatch and execution start (summed over subs)
	Wall    time.Duration // execution time when this call ran the shard (summed over subs)
	Subs    int           // sub-shards the shard declares (0 for a leaf shard)
	SubsRun int           // sub-shards this call actually ran
	Err     error
}

// Plan is a decomposed experiment run. Merge receives the shard payloads
// in shard order (index i holds the result of Shards[i]) and assembles
// the final typed result document. OnShard, when set, is invoked once
// per shard as it resolves — possibly concurrently from worker
// goroutines, so observers must synchronize — before Merge runs, in
// Execute and ExecuteBatch alike; the serving layer uses it to stream
// per-shard completion events.
type Plan struct {
	Experiment  string // experiment id, e.g. "fig6"
	Fingerprint string // canonical encoding of the run options
	Shards      []Shard
	Merge       func(parts []any) (*report.Doc, error)
	OnShard     func(ShardEvent)

	// Remote is opaque plan metadata handed to an attached RemoteTier so
	// a fabric peer can rebuild the same plan from first principles (the
	// core package stamps the normalized run options here). A nil Remote
	// keeps every shard local — ResolveLocal relies on this to guarantee
	// a peer serving a dispatched shard can never re-dispatch it.
	Remote any
}

// RunStats describes one plan's run in an Execute or ExecuteBatch
// call. Shard counts are unit-level: a split shard counts once in
// Shards/Executed/CacheHits; its declared and actually-run sub-shards
// are broken out in SubShards/SubExecuted. The embedded Tally is the
// plan's own accounting, exact however many other calls the engine
// serves at the same time.
type RunStats struct {
	Shards    int           // shards in the plan
	CacheHits int           // shards served from a cache tier, a peer, or a concurrent in-flight execution
	Executed  int           // shards this call actually ran (Tiers.Miss)
	SubShards int           // sub-shards declared across the plan's split shards
	Wall      time.Duration // Execute: the whole call's wall clock; ExecuteBatch: the plan's owned shard time plus its merge
	Tally
}

// TierCounts splits a call's unit-level shard resolutions by answering
// tier: the in-memory LRU, the persistent disk tier, a fabric peer, a
// joined concurrent execution (or, in a batch, an earlier reference to
// the same key), or a miss (the call executed the shard). Total equals
// the call's shard count. The JSON tags are the run ledger's wire form.
type TierCounts struct {
	Mem    int `json:"mem"`
	Disk   int `json:"disk"`
	Remote int `json:"remote,omitempty"`
	Join   int `json:"join,omitempty"`
	Miss   int `json:"miss"`
}

// Total returns the shard count the split accounts for.
func (t TierCounts) Total() int { return t.Mem + t.Disk + t.Remote + t.Join + t.Miss }

// count adds one resolution answered by tier ("" for an execution).
func (t *TierCounts) count(tier string) {
	switch tier {
	case TierMem:
		t.Mem++
	case TierDisk:
		t.Disk++
	case TierRemote:
		t.Remote++
	case TierJoin:
		t.Join++
	default:
		t.Miss++
	}
}

// LatencyStats is a (count, total) latency aggregate: one call's own
// queue waits or tier lookups in a Tally, or their engine-lifetime sum
// in Metrics.
type LatencyStats struct {
	Count uint64
	Total time.Duration
}

// Avg returns Total/Count, or 0 before any observation.
func (s LatencyStats) Avg() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

func (s *LatencyStats) observe(d time.Duration) {
	s.Count++
	s.Total += d
}

func (s *LatencyStats) add(o LatencyStats) {
	s.Count += o.Count
	s.Total += o.Total
}

// Tally is the accounting of one Execute, ExecuteBatch or ResolveLocal
// call: every lookup, execution, join, remote answer and remote error
// the call makes, sub-shard work included, lands in it. Tiers is
// unit-level (a split shard resolves once); the latency aggregates
// count every lookup and execution, so a split shard's sub-shard
// lookups and runs show up there.
type Tally struct {
	Tiers        TierCounts
	SubExecuted  int           // sub-shards this call ran
	ExecTime     time.Duration // execution time of this call's leaf runs, sub-shard runs and gathers
	QueueWait    LatencyStats  // dispatch→execution wait per execution (leaf or sub-shard)
	MemLookup    LatencyStats  // lookups answered by the in-memory tier
	DiskLookup   LatencyStats  // lookups answered by the persistent tier
	MissLookup   LatencyStats  // lookups answered by neither tier
	RemoteLookup LatencyStats  // shards answered by a fabric peer (count = remote hits)
	RemoteErrors uint64        // dispatches the remote tier failed; the shard ran locally
}

func (t *Tally) add(o *Tally) {
	t.Tiers.Mem += o.Tiers.Mem
	t.Tiers.Disk += o.Tiers.Disk
	t.Tiers.Remote += o.Tiers.Remote
	t.Tiers.Join += o.Tiers.Join
	t.Tiers.Miss += o.Tiers.Miss
	t.SubExecuted += o.SubExecuted
	t.ExecTime += o.ExecTime
	t.QueueWait.add(o.QueueWait)
	t.MemLookup.add(o.MemLookup)
	t.DiskLookup.add(o.DiskLookup)
	t.MissLookup.add(o.MissLookup)
	t.RemoteLookup.add(o.RemoteLookup)
	t.RemoteErrors += o.RemoteErrors
}

// Metrics are cumulative engine-lifetime counters plus a snapshot of
// both cache tiers. The execution, hit and latency counters are the
// sum of the Tallies of every completed Execute, ExecuteBatch and
// ResolveLocal call; Runs, ShardsPlanned, SubShardsPlanned and
// TotalWall count Execute and ExecuteBatch plans only. CacheHits and
// CacheMisses are the unit-level view (a hit from any tier, a peer
// answer or a join counts once); Mem and Disk break the local tiers
// out with their own entries/hits/misses/evictions.
type Metrics struct {
	Runs              uint64
	ShardsPlanned     uint64
	ShardsExecuted    uint64
	SubShardsPlanned  uint64 // sub-shards declared by split shards across all runs
	SubShardsExecuted uint64 // sub-shards actually run (cached subs and warm units excluded)
	CacheHits         uint64
	CacheMisses       uint64
	Errors            uint64
	TotalWall         time.Duration
	TotalShardTime    time.Duration
	Mem               CacheStats     // in-memory tier snapshot
	Disk              DiskCacheStats // disk tier snapshot (zero when none attached)

	// Queue dynamics and tier-attributed lookup latency (see Tally).
	QueueWait    LatencyStats
	MemLookup    LatencyStats
	DiskLookup   LatencyStats
	MissLookup   LatencyStats
	RemoteLookup LatencyStats

	// RemoteErrors counts dispatches the remote tier failed; each fell
	// back to local execution.
	RemoteErrors uint64
}

// fold adds one completed call's tally to the lifetime counters. The
// caller holds e.mu.
func (m *Metrics) fold(t *Tally) {
	m.ShardsExecuted += uint64(t.Tiers.Miss)
	m.CacheMisses += uint64(t.Tiers.Miss)
	m.CacheHits += uint64(t.Tiers.Total() - t.Tiers.Miss)
	m.SubShardsExecuted += uint64(t.SubExecuted)
	m.TotalShardTime += t.ExecTime
	m.QueueWait.add(t.QueueWait)
	m.MemLookup.add(t.MemLookup)
	m.DiskLookup.add(t.DiskLookup)
	m.MissLookup.add(t.MissLookup)
	m.RemoteLookup.add(t.RemoteLookup)
	m.RemoteErrors += t.RemoteErrors
}

// RemoteRequest carries everything a remote tier needs to address one
// shard on a peer: the experiment id and the plan's Remote metadata
// (enough to rebuild the plan), plus the plan-level shard key and —
// when dispatching one unit of a declared split — the sub-shard key.
type RemoteRequest struct {
	Experiment string
	Meta       any    // Plan.Remote, opaque to the engine
	Shard      string // plan-level shard key
	Sub        string // sub-shard key; "" for a leaf or unit dispatch
}

// RemoteTier answers shard addresses from a peer fleet. Resolve is
// consulted in runOrJoin after the in-flight and cache re-checks and
// before a worker slot is taken, so remote resolutions never occupy
// the local pool. ok=false with a nil error means "execute locally"
// (the key hashes to this process, or the owning peer's circuit is
// open); a non-nil error means the dispatch failed — the engine
// counts it and executes locally, so a degraded fleet is
// slower, never wrong. peer names the answering peer on success.
type RemoteTier interface {
	Resolve(key string, req RemoteRequest) (v any, peer string, ok bool, err error)
}

// Engine is a worker-pool scheduler with a shared result cache. Safe for
// concurrent use: the worker bound holds across concurrent Execute
// calls, and identical shards requested concurrently are computed once
// (the later request joins the in-flight execution).
type Engine struct {
	workers int
	cache   *Cache
	disk    *DiskCache // optional persistent tier under the LRU
	remote  RemoteTier // optional fabric tier between disk and execute
	sem     chan int   // engine-wide worker slots; the value is the slot id
	rec     *obs.Recorder

	ifmu     sync.Mutex
	inflight map[string]*inflightShard

	mu      sync.Mutex
	metrics Metrics
}

// inflightShard is one shard execution in progress; concurrent requests
// for the same key wait on done instead of recomputing.
type inflightShard struct {
	done chan struct{}
	val  any
	err  error
}

// DefaultCacheEntries bounds the shared shard cache when callers have no
// stronger opinion. A full `rowpress all` at one option set plans well
// under a thousand shards, so this holds several distinct sweeps.
const DefaultCacheEntries = 4096

// New returns an engine running at most workers shards concurrently with
// a cache of at most cacheEntries completed shards. workers <= 0 selects
// GOMAXPROCS; cacheEntries <= 0 selects DefaultCacheEntries.
func New(workers, cacheEntries int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cacheEntries <= 0 {
		cacheEntries = DefaultCacheEntries
	}
	e := &Engine{
		workers:  workers,
		cache:    NewCache(cacheEntries),
		sem:      make(chan int, workers),
		inflight: map[string]*inflightShard{},
	}
	for i := 0; i < workers; i++ {
		e.sem <- i
	}
	return e
}

// Workers returns the concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Cache exposes the engine's in-memory shard cache (for stats and
// purging).
func (e *Engine) Cache() *Cache { return e.cache }

// AttachDiskCache layers a persistent content-addressed store under the
// in-memory LRU: lookups fall through to it on a memory miss (promoting
// hits back into memory), and completed shards are written through to
// it. Attach before serving; the engine does not synchronize the swap
// against in-flight Executes.
func (e *Engine) AttachDiskCache(dc *DiskCache) { e.disk = dc }

// Disk returns the attached persistent tier, or nil.
func (e *Engine) Disk() *DiskCache { return e.disk }

// AttachRemote slots a fabric remote tier beneath the local cache
// tiers and above local execution: a shard that misses mem and disk is
// offered to the remote tier before it takes a worker slot. Only plans
// carrying Remote metadata are dispatched. Attach before serving; the
// engine does not synchronize the swap against in-flight Executes.
func (e *Engine) AttachRemote(r RemoteTier) { e.remote = r }

// Remote returns the attached remote tier, or nil.
func (e *Engine) Remote() RemoteTier { return e.remote }

// SetRecorder attaches a span recorder: every subsequent shard
// lifecycle (queue wait, cache lookup, execute, merge, barrier) is
// recorded into it. nil detaches — the engine then pays only a
// pointer check per potential span. Attach before executing; the
// engine does not synchronize the swap against in-flight runs.
func (e *Engine) SetRecorder(r *obs.Recorder) { e.rec = r }

// Recorder returns the attached span recorder, or nil.
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// Metrics returns a snapshot of the cumulative counters and both cache
// tiers.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	m := e.metrics
	e.mu.Unlock()
	m.Mem = e.cache.Stats()
	if e.disk != nil {
		m.Disk = e.disk.Stats()
	}
	return m
}

// tierGet looks key up in the memory tier and then the disk tier,
// promoting disk hits into memory so subsequent lookups stay hot. tier
// names the tier that answered ("" on a miss). The lookup latency lands
// in t and, with a recorder attached, in a lookup span labelled with
// the plan index, experiment and shard label.
func (e *Engine) tierGet(key string, t *Tally, idx int, exp, label string) (v any, tier string, ok bool) {
	t0 := time.Now()
	if v, ok = e.cache.Get(key); ok {
		tier = TierMem
	} else if e.disk != nil {
		if v, ok = e.disk.Get(key); ok {
			e.cache.Put(key, v)
			tier = TierDisk
		}
	}
	lat := time.Since(t0)
	switch tier {
	case TierMem:
		t.MemLookup.observe(lat)
	case TierDisk:
		t.DiskLookup.observe(lat)
	default:
		t.MissLookup.observe(lat)
	}
	if e.rec != nil {
		e.rec.Record(lookupKind(tier), -1, idx, exp, label, t0, lat, 0)
	}
	return v, tier, ok
}

// tierPut writes a completed shard payload to both tiers.
func (e *Engine) tierPut(key string, v any) {
	e.cache.Put(key, v)
	if e.disk != nil {
		e.disk.Put(key, v)
	}
}

// Execute runs one plan: it is ExecuteBatch of that plan alone, so
// cached shards are served from the memory tier (falling back to the
// disk tier when one is attached), the rest run on the worker pool, and
// Merge assembles the payloads in shard order into the result document.
// The first shard error (by shard index) aborts the run. RunStats.Wall
// is the wall clock of the whole call, merge included.
func (e *Engine) Execute(p Plan) (*report.Doc, RunStats, error) {
	outs, stats, errs, bs := e.ExecuteBatch([]Plan{p})
	stats[0].Wall = bs.Wall
	return outs[0], stats[0], errs[0]
}

// BatchStats describes one ExecuteBatch call. Shard references are
// counted twice: ShardRefs is the plan-side view (every shard of every
// plan), while UniqueShards is the engine-side view after key
// deduplication — the most work the batch could possibly run. The
// embedded Tally is the sum of the per-plan RunStats tallies, so its
// tier split totals ShardRefs: a reference beyond the first occurrence
// of its key counts as a join.
type BatchStats struct {
	Plans        int
	ShardRefs    int // shards across all plans, duplicates included
	UniqueShards int // distinct shard keys in the batch
	Deduplicated int // refs beyond the first occurrence of their key
	CacheHits    int // unique shards served from a cache tier, a peer, or a concurrent in-flight run
	Executed     int // unique shards this call actually ran (Tiers.Miss)
	Wall         time.Duration
	Tally
}

// batchShard is the shared execution slot for one unique key in a batch.
type batchShard struct {
	key   string
	shard Shard // the first-seen Shard for this key (all are equivalent)
	owner int   // index of the first plan referencing this key
	idx   int   // the shard's index in the owner plan
	val   any
	err   error
	t     Tally // the key's lookup, resolution and execution, charged to the owner
}

// event reports the slot's resolution to its owner plan. tier is the
// answering tier ("" when this call executed the shard); wid and peer
// are resolveShard's.
func (sl *batchShard) event(tier string, wid int, peer string) ShardEvent {
	return ShardEvent{Index: sl.idx, Key: sl.shard.Key, Cached: tier != "", Tier: tier, Peer: peer,
		Worker: wid, Queue: sl.t.QueueWait.Total, Wall: sl.t.ExecTime, Subs: len(sl.shard.Subs),
		SubsRun: sl.t.SubExecuted, Err: sl.err}
}

// ExecuteBatch runs many plans as one deduplicated unit of work: the
// union of all shard keys is computed up front, each unique shard is
// fetched from the cache or executed exactly once on the worker pool,
// and every plan's Merge then assembles its report from the shared
// payloads. Plans are independent: a shard or merge failure poisons only
// the plans that reference it, reported per-plan in errs.
//
// Each plan's OnShard fires once per shard of that plan, before its
// Merge: for the first reference to a key when the key resolves (at
// lookup for a cache hit, from the resolving goroutine otherwise), and
// for every later reference after the barrier, as a join.
//
// Per-plan RunStats follow first-owner accounting: the first plan
// referencing a shard records its lookup and resolution, and every
// later plan records a join — so summing Executed over stats equals
// BatchStats.Executed, and each plan's CacheHits+Executed equals its
// shard count, exactly as if the plans had run sequentially through
// Execute. Per-plan Wall is the compute attributed to that plan (its
// owned shard time plus its merge), not batch wall clock.
func (e *Engine) ExecuteBatch(plans []Plan) (outs []*report.Doc, stats []RunStats, errs []error, bs BatchStats) {
	start := time.Now()
	bs.Plans = len(plans)
	outs = make([]*report.Doc, len(plans))
	stats = make([]RunStats, len(plans))
	errs = make([]error, len(plans))

	refs := make([][]*batchShard, len(plans)) // refs[pi][si] is the slot of plans[pi].Shards[si]
	slots := map[string]*batchShard{}
	var order []*batchShard // unique slots in first-occurrence order
	for pi, p := range plans {
		refs[pi] = make([]*batchShard, len(p.Shards))
		stats[pi].Shards = len(p.Shards)
		bs.ShardRefs += len(p.Shards)
		for si, s := range p.Shards {
			k := Key(p.Experiment, p.Fingerprint, s.Key)
			stats[pi].SubShards += len(s.Subs)
			sl, ok := slots[k]
			if ok {
				bs.Deduplicated++
			} else {
				sl = &batchShard{key: k, shard: s, owner: pi, idx: si}
				slots[k] = sl
				order = append(order, sl)
			}
			refs[pi][si] = sl
		}
	}
	bs.UniqueShards = len(order)

	var missing []*batchShard
	for _, sl := range order {
		p := &plans[sl.owner]
		v, tier, ok := e.tierGet(sl.key, &sl.t, sl.idx, p.Experiment, sl.shard.Key)
		if !ok {
			missing = append(missing, sl)
			continue
		}
		sl.val = v
		sl.t.Tiers.count(tier)
		if p.OnShard != nil {
			p.OnShard(sl.event(tier, -1, ""))
		}
	}

	if len(missing) > 0 {
		barrierStart := time.Now()
		var wg sync.WaitGroup
		for _, sl := range missing {
			wg.Add(1)
			enq := time.Now()
			go func(sl *batchShard) {
				defer wg.Done()
				p := &plans[sl.owner]
				v, tier, wid, peer, err := e.resolveShard(sl.key, sl.shard, p.Experiment, p.Remote, sl.idx, enq, &sl.t)
				sl.t.Tiers.count(tier)
				sl.val, sl.err = v, err
				if p.OnShard != nil {
					p.OnShard(sl.event(tier, wid, peer))
				}
			}(sl)
		}
		wg.Wait()
		if e.rec != nil {
			e.rec.Record(obs.Barrier, -1, -1, batchLabel(plans), "", barrierStart, time.Since(barrierStart), 0)
		}
	}

	for pi, p := range plans {
		parts := make([]any, len(p.Shards))
		for si, sl := range refs[pi] {
			if sl.err != nil && errs[pi] == nil {
				errs[pi] = fmt.Errorf("engine: %s shard %q: %w", p.Experiment, p.Shards[si].Key, sl.err)
			}
			parts[si] = sl.val
			if sl.owner == pi && sl.idx == si {
				stats[pi].Tally.add(&sl.t)
				stats[pi].Wall += sl.t.ExecTime
				continue
			}
			stats[pi].Tiers.Join++
			if p.OnShard != nil {
				p.OnShard(ShardEvent{Index: si, Key: p.Shards[si].Key, Cached: true, Tier: TierJoin,
					Worker: -1, Subs: len(p.Shards[si].Subs), Err: sl.err})
			}
		}
		stats[pi].Executed = stats[pi].Tiers.Miss
		stats[pi].CacheHits = stats[pi].Shards - stats[pi].Executed
		bs.Tally.add(&stats[pi].Tally)
		if errs[pi] != nil {
			continue
		}
		t0 := time.Now()
		out, err := p.Merge(parts)
		if e.rec != nil {
			e.rec.Record(obs.Merge, -1, -1, p.Experiment, "", t0, time.Since(t0), 0)
		}
		stats[pi].Wall += time.Since(t0)
		if err != nil {
			errs[pi] = fmt.Errorf("engine: %s merge: %w", p.Experiment, err)
			continue
		}
		outs[pi] = out
	}
	bs.Executed = bs.Tiers.Miss
	bs.CacheHits = bs.UniqueShards - bs.Executed
	bs.Wall = time.Since(start)

	e.mu.Lock()
	e.metrics.Runs += uint64(len(plans))
	e.metrics.ShardsPlanned += uint64(bs.ShardRefs)
	e.metrics.TotalWall += bs.Wall
	e.metrics.fold(&bs.Tally)
	for pi := range plans {
		e.metrics.SubShardsPlanned += uint64(stats[pi].SubShards)
		if errs[pi] != nil {
			e.metrics.Errors++
		}
	}
	e.mu.Unlock()
	return outs, stats, errs, bs
}

// batchLabel names a batch's barrier span: the plans' experiment when
// they all share one, else "batch".
func batchLabel(plans []Plan) string {
	for _, p := range plans[1:] {
		if p.Experiment != plans[0].Experiment {
			return "batch"
		}
	}
	return plans[0].Experiment
}

// lookupKind maps a tierGet result onto its span kind.
func lookupKind(tier string) obs.Kind {
	switch tier {
	case TierMem:
		return obs.CacheMem
	case TierDisk:
		return obs.CacheDisk
	default:
		return obs.CacheMiss
	}
}

// resolveShard serves one missing plan shard: a leaf shard goes through
// runOrJoin directly; a shard with a declared split fans its sub-shards
// out on the pool and gathers. tier is "" when this call ran the shard
// and TierJoin or TierRemote when it did not; wid is the worker slot
// that ran a leaf (-1 otherwise); peer names the fabric peer that
// answered a remotely resolved leaf. meta is the plan's Remote
// metadata. Every lookup, execution and dispatch the resolution makes
// lands in t.
func (e *Engine) resolveShard(key string, s Shard, exp string, meta any, idx int, enq time.Time, t *Tally) (v any, tier string, wid int, peer string, err error) {
	if len(s.Subs) == 0 {
		return e.runOrJoin(key, s, exp, meta, s.Key, "", idx, enq, t)
	}
	v, tier, err = e.runSplit(key, s, exp, meta, idx, enq, t)
	return v, tier, -1, "", err
}

// SubKey derives a sub-shard's cache address from its parent shard's
// address and the sub key — content-addressed like Key, so the disk
// tier stores sub payloads under the same fixed-length names.
func SubKey(shardKey, subKey string) string {
	return Key(shardKey, "sub", subKey)
}

// runSplit resolves a split shard: concurrent requests for the unit key
// join the in-flight gather exactly as runOrJoin joins a leaf, missing
// sub-shards run through runOrJoin — so they deduplicate, cache, and
// record spans individually — and Gather folds the payloads into the
// unit payload, cached under the unit key. The calling goroutine holds
// no worker slot while its sub-shards queue, so a split never deadlocks
// the pool, even at one worker; only sub-shard executions occupy slots.
// The sub-shards' lookups, queue waits and runs, and the gather time,
// land in t. Sub-shards dispatch to the remote tier individually —
// each carries its own sub key — while the gather always runs locally.
func (e *Engine) runSplit(key string, s Shard, exp string, meta any, idx int, enq time.Time, t *Tally) (v any, tier string, err error) {
	c, v, err := e.claim(key)
	if c == nil {
		return v, TierJoin, err
	}

	parts := make([]any, len(s.Subs))
	serrs := make([]error, len(s.Subs))
	// One tally per sub-shard, owned by its goroutine until the barrier.
	subs := make([]Tally, len(s.Subs))
	var wg sync.WaitGroup
	for si, sub := range s.Subs {
		skey := SubKey(key, sub.Key)
		label := s.Key + "/" + sub.Key
		sv, _, ok := e.tierGet(skey, &subs[si], idx, exp, label)
		if ok {
			parts[si] = sv
			continue
		}
		wg.Add(1)
		go func(si int, sub SubShard, skey, label string) {
			defer wg.Done()
			var stier string
			parts[si], stier, _, _, serrs[si] = e.runOrJoin(skey, Shard{Key: label, Run: sub.Run}, exp, meta, s.Key, sub.Key, idx, enq, &subs[si])
			if stier == "" {
				subs[si].SubExecuted++
			}
		}(si, sub, skey, label)
	}
	wg.Wait()
	for si := range subs {
		t.add(&subs[si])
	}
	for si, serr := range serrs {
		if serr != nil {
			err = fmt.Errorf("sub-shard %q: %w", s.Subs[si].Key, serr)
			break
		}
	}
	if err == nil {
		t0 := time.Now()
		v, err = gatherShard(s, parts)
		t.ExecTime += time.Since(t0)
	}
	e.release(key, c, v, err)
	return v, "", err
}

// gatherShard isolates Gather panics the way runShard isolates Run's.
func gatherShard(s Shard, parts []any) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gather panic: %v", r)
		}
	}()
	if s.Gather == nil {
		return nil, fmt.Errorf("shard declares %d sub-shards but no Gather", len(s.Subs))
	}
	return s.Gather(parts)
}

// runOrJoin executes the shard under the engine-wide worker bound,
// deduplicating against concurrent executions of the same key: the first
// caller runs (and caches the result), later callers wait for it. tier
// is "" when this caller did the work and TierJoin when it waited; wid
// is the worker slot that carried the work (-1 otherwise). The queue
// wait (enq→execution) and execution time land in t; exp and idx label
// the recorded spans.
//
// When a remote tier is attached and the plan carries Remote metadata,
// the shard is offered to the fabric after the in-flight registration
// and before a worker slot is taken: a remote answer (tier TierRemote,
// peer set) fills the in-flight slot and both local cache tiers exactly
// as a local execution would, so concurrent requesters join it and
// warm runs stay local. Remote resolutions never hold a pool slot — a
// coordinator at one worker still fans a whole plan out to its peers.
func (e *Engine) runOrJoin(key string, s Shard, exp string, meta any, shardKey, subKey string, idx int, enq time.Time, t *Tally) (v any, tier string, wid int, peer string, err error) {
	c, v, err := e.claim(key)
	if c == nil {
		return v, TierJoin, -1, "", err
	}

	if e.remote != nil && meta != nil {
		t0 := time.Now()
		rv, rpeer, ok, rerr := e.remote.Resolve(key, RemoteRequest{Experiment: exp, Meta: meta, Shard: shardKey, Sub: subKey})
		if ok && rerr == nil {
			rlat := time.Since(t0)
			t.RemoteLookup.observe(rlat)
			e.release(key, c, rv, nil)
			if e.rec != nil {
				e.rec.Record(obs.RemoteDispatch, -1, idx, exp, s.Key, t0, rlat, payloadBytes(rv))
			}
			return rv, TierRemote, -1, rpeer, nil
		}
		if rerr != nil {
			// The dispatch failed: count it and execute locally —
			// a degraded fleet is slower, never wrong.
			t.RemoteErrors++
		}
	}

	wid = <-e.sem
	queue := time.Since(enq)
	t.QueueWait.observe(queue)
	if e.rec != nil {
		e.rec.Record(obs.QueueWait, wid, idx, exp, s.Key, enq, queue, 0)
	}
	t0 := time.Now()
	v, err = runShard(s)
	d := time.Since(t0)
	t.ExecTime += d
	e.sem <- wid
	e.release(key, c, v, err)
	if e.rec != nil {
		var size int64
		if err == nil {
			size = payloadBytes(v)
		}
		e.rec.Record(obs.Execute, wid, idx, exp, s.Key, t0, d, size)
	}
	return v, "", wid, "", err
}

// claim makes the caller the single executor of key, or joins the
// execution that already owns it. A nil c means the caller joined: v
// and err are the result of the concurrent execution it waited on, or
// the cached payload of one that finished after the caller's tier miss
// — an executor puts its result before it releases the key, so absent
// from inflight and present in the cache is authoritative and must not
// be recomputed. peek keeps the hit/miss counters honest: the caller
// already recorded this lookup as a miss. A non-nil c must be handed
// to release.
func (e *Engine) claim(key string) (c *inflightShard, v any, err error) {
	e.ifmu.Lock()
	if j, ok := e.inflight[key]; ok {
		e.ifmu.Unlock()
		<-j.done
		return nil, j.val, j.err
	}
	if v, ok := e.cache.peek(key); ok {
		e.ifmu.Unlock()
		return nil, v, nil
	}
	c = &inflightShard{done: make(chan struct{})}
	e.inflight[key] = c
	e.ifmu.Unlock()
	return c, nil, nil
}

// release publishes a claimed key's result: a success is put in both
// cache tiers, then the key leaves the in-flight set and its joiners
// wake with v and err.
func (e *Engine) release(key string, c *inflightShard, v any, err error) {
	if err == nil {
		e.tierPut(key, v)
	}
	c.val, c.err = v, err
	e.ifmu.Lock()
	delete(e.inflight, key)
	e.ifmu.Unlock()
	close(c.done)
}

// ResolveLocal serves one shard address on behalf of a fabric
// coordinator: local cache tiers first, then execution on this
// engine's pool, with full single-flight dedup against concurrent
// local runs and other dispatches of the same key. The plan metadata
// is never consulted — a peer answers purely from its own tiers and
// workers and never re-dispatches, so fabric topologies cannot form
// forwarding loops. tier names the answering tier ("" when this call
// executed the shard); t is the call's accounting, also folded into
// the engine's cumulative metrics so a warm fleet is checkable per
// daemon.
func (e *Engine) ResolveLocal(key string, s Shard, exp string) (v any, tier string, t Tally, err error) {
	enq := time.Now()
	v, tier, ok := e.tierGet(key, &t, -1, exp, s.Key)
	if !ok {
		v, tier, _, _, err = e.resolveShard(key, s, exp, nil, -1, enq, &t)
	}
	t.Tiers.count(tier)

	e.mu.Lock()
	e.metrics.fold(&t)
	if err != nil {
		e.metrics.Errors++
	}
	e.mu.Unlock()
	return v, tier, t, err
}

// countWriter counts bytes written through it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// payloadBytes sizes a shard payload by gob-encoding it into a
// counting writer — the same codec (and type registry) the disk tier
// uses, so the number matches what a distributed shard fabric would
// move. Unregistered payload types size as 0. Only called when a span
// recorder is attached, and after the execute interval is measured,
// so the encoding cost never distorts span timings.
func payloadBytes(v any) int64 {
	var cw countWriter
	if err := gob.NewEncoder(&cw).Encode(&diskPayload{V: v}); err != nil {
		return 0
	}
	return cw.n
}

// runShard isolates shard panics so a bad regenerator cannot take down a
// serving daemon.
func runShard(s Shard) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard panic: %v", r)
		}
	}()
	return s.Run()
}
