package ledger

// This file bridges the engine's in-process observability into durable
// Record fields: one engine call's own accounting (the tier split and
// latency Tally that ExecuteBatch returns per plan and per batch, and
// Execute — a one-plan batch — per run) and the obs.Analyze profile
// summary for traced runs.

import (
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// NewRecord builds the record of one engine call from that call's own
// stats: a run passes its engine.RunStats (Shards, Wall, Tally), a
// sweep its engine.BatchStats (ShardRefs, Wall, Tally). The tier split
// totals shards and every latency field counts this call's lookups and
// executions alone, so a record is exact even on a daemon serving
// concurrent requests. Callers stamp the rest: Workers, Peers, DocHash,
// Error, CompletedAt.
func NewRecord(kind, experiment, optionsHash string, shards int, wall time.Duration, t engine.Tally) Record {
	return Record{
		Kind:         kind,
		Experiment:   experiment,
		OptionsHash:  optionsHash,
		WallMS:       ms(wall),
		Shards:       shards,
		SubShards:    t.SubExecuted,
		Tiers:        t.Tiers,
		QueueWait:    toLatency(t.QueueWait),
		MemLookup:    toLatency(t.MemLookup),
		DiskLookup:   toLatency(t.DiskLookup),
		MissLookup:   toLatency(t.MissLookup),
		RemoteLookup: toLatency(t.RemoteLookup),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func toLatency(s engine.LatencyStats) Latency {
	return Latency{Count: s.Count, TotalMS: ms(s.Total)}
}

// ProfileFrom summarizes a traced run's obs.Analysis for the ledger.
func ProfileFrom(a obs.Analysis, workers int) *Profile {
	return &Profile{
		Workers:         workers,
		ExecutedShards:  len(a.Shards),
		TotalExecMS:     ms(a.TotalExec),
		CriticalPathMS:  ms(a.CriticalPath),
		SerialFraction:  a.SerialFraction,
		MaxSpeedup:      a.MaxSpeedup,
		MeanUtilization: a.MeanUtilization,
	}
}
