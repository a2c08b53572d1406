// Near-miss fixture for the wallclock analyzer: the "fabric"
// import-path element exempts this package wholesale — circuit-breaker
// cooldowns, HTTP timeouts and round-trip latency are real-time
// mechanisms, not shard compute — so the same calls that are findings
// in ../det produce none here.
package fabric

import "time"

func roundTrip(t0 time.Time) time.Duration { return time.Since(t0) }

func circuitDownUntil(cooldown time.Duration) time.Time { return time.Now().Add(cooldown) }
