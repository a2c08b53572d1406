package dram

import (
	"math"
	"sort"
)

// Closed-form exposure accrual.
//
// HammerIncrement and PressIncrement are pure in (onTime, offTime, tempC,
// distance), so a periodic loop's disturbance is Count × per-slot
// increment — there is no need to walk the loop slot by slot. This file
// is the single source of truth for that closed form and for the kernel
// values it multiplies: every accrual path — the per-command PRE path,
// the batched executor (HammerBatch), the replay-free pure probe
// (HammerExposures, and internal/characterize's search prober on top of
// it through AccrueOne) and the fetch probes — drives accrueSpec, so they
// perform bit-identical floating-point operations in bit-identical order.
// That shared order is what lets the golden-report tests demand byte
// equality between the per-command path and the closed form.
//
// The kernel values themselves come from the module's increment table
// (incFor): a direct-mapped cache of the per-distance increments of one
// exact (onTime, offTime, tempC) key. A trace uses few distinct keys — a
// periodic pattern has one steady-state key per aggressor timing — so the
// Disturber runs once per key instead of once per activation, and a hit
// returns the very float64 values a fresh evaluation would.

// incTableBits sizes the increment table at 1<<incTableBits entries,
// from a count of keys on the golden-option runs: a scenario module sees
// 3–4 distinct keys (at most 10), a fig23/fig49 attack module 46–47 over
// the whole run but only a few at a time. With 32 entries the scenario
// and fig23 traces miss only on a key's first use (scenario-mitigation
// 1320 misses in 24.9M lookups, scenario-grid 502 in 7.7M, fig23 139 in
// 6.9M); in fig49 two hot keys share an entry and 1.9% of 13.5M lookups
// miss, which 64 entries would avoid at twice the per-module memory. At
// 16 entries 5–8% of the lookups of every trace miss.
const incTableBits = 5

// incEntry is one increment-table entry: the Disturber's per-distance
// increments for one exact key, indexed by distance−1.
type incEntry struct {
	onTime, offTime TimePS
	tempBits        uint64 // math.Float64bits(tempC): keys compare exactly
	valid           bool
	hammer, press   [BlastRadius]float64
}

// incSlot is a key's increment-table index: the key folded into one
// word, then the MurmurHash3 finalizer so every key bit reaches the top
// bits the index takes.
func incSlot(onTime, offTime TimePS, tempBits uint64) uint64 {
	h := (uint64(onTime)*0x9E3779B97F4A7C15^uint64(offTime))*0xBF58476D1CE4E5B9 ^ tempBits
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return h >> (64 - incTableBits)
}

// incFor returns the table entry for (onTime, offTime, tempC), filling it
// through the Disturber on a miss. The Disturber's increment methods are
// pure, so a hit is indistinguishable from a fresh evaluation.
func (m *Module) incFor(onTime, offTime TimePS, tempC float64) *incEntry {
	tb := math.Float64bits(tempC)
	e := &m.incs[incSlot(onTime, offTime, tb)]
	if e.valid && e.onTime == onTime && e.offTime == offTime && e.tempBits == tb {
		return e
	}
	e.onTime, e.offTime, e.tempBits, e.valid = onTime, offTime, tb, true
	for d := 1; d <= BlastRadius; d++ {
		e.hammer[d-1] = m.dist.HammerIncrement(onTime, offTime, tempC, d)
		e.press[d-1] = m.dist.PressIncrement(onTime, offTime, tempC, d)
	}
	return e
}

// AggSchedule describes one aggressor row's share of a HammerSpec loop:
// Count activations split round-robin across spec.Rows.
type AggSchedule struct {
	Row      int
	Acts     int // activations this row performs (0: listed row is a plain victim)
	LastSlot int // global slot index of this row's last activation
}

// Schedule returns the per-aggressor activation schedule of the loop.
func (s HammerSpec) Schedule() []AggSchedule {
	n := len(s.Rows)
	sched := make([]AggSchedule, n)
	for idx, r := range s.Rows {
		acts := s.Count / n
		if idx < s.Count%n {
			acts++
		}
		sched[idx] = AggSchedule{Row: r, Acts: acts, LastSlot: idx + (acts-1)*n}
	}
	return sched
}

// SteadyOff returns the steady-state off time of one aggressor between its
// own activations — the other aggressors' on-times plus every slot's gap —
// capped at the fully recovered bound.
func (s HammerSpec) SteadyOff(t Timing) TimePS {
	n := len(s.Rows)
	off := TimePS(n-1)*s.OnTime + TimePS(n)*(t.TRP+s.ExtraOff)
	if off > recoveredOff {
		off = recoveredOff
	}
	return off
}

// accrueSpec delivers n activation increments from aggRow to every
// non-skipped row inside the blast radius, folding the n slots into one
// multiply. Victims are visited in a fixed order — distance ascending,
// lower victim (whose aggressor sits above) before upper — which every
// accrual path shares for float-exact equivalence. The increments land in
// the exposure to(victim) returns, or in the module's own rows of bank
// when to is nil (the PRE path and HammerBatch).
func (m *Module) accrueSpec(bank, aggRow int, onTime, offTime TimePS, tempC float64,
	n int, skip map[int]bool, to func(victim int) *Exposure) {
	inc := m.incFor(onTime, offTime, tempC)
	fn := float64(n)
	for d := 1; d <= BlastRadius; d++ {
		h := inc.hammer[d-1] * fn
		p := inc.press[d-1] * fn
		if h == 0 && p == 0 {
			continue
		}
		if v := aggRow - d; v >= 0 && (skip == nil || !skip[v]) {
			e := m.victimExp(bank, v, to)
			e.HammerAbove += h
			e.PressAbove += p
		}
		if v := aggRow + d; v < m.Geo.RowsPerBank && (skip == nil || !skip[v]) {
			e := m.victimExp(bank, v, to)
			e.HammerBelow += h
			e.PressBelow += p
		}
	}
}

// victimExp resolves accrueSpec's target exposure for one victim.
func (m *Module) victimExp(bank, victim int, to func(int) *Exposure) *Exposure {
	if to == nil {
		return &m.row(bank, victim).exp
	}
	return to(victim)
}

// AccrueOne walks one activation's blast-radius increments (aggRow open
// for onTime after offTime) through the shared accrual order, adding each
// victim's increment to the exposure to(victim) returns (to must not be
// nil). External probe harnesses use it so their overlays perform the
// same float operations as the module's own PRE path.
func (m *Module) AccrueOne(aggRow int, onTime, offTime TimePS, tempC float64, to func(victim int) *Exposure) {
	m.accrueSpec(0, aggRow, onTime, offTime, tempC, 1, nil, to)
}

// VictimExposure is the closed-form exposure delta a hammer loop delivers
// to one victim row.
type VictimExposure struct {
	Row int
	Exp Exposure
}

// HammerExposures computes, without executing a single command, the
// exposure deltas spec would deliver to every non-aggressor row — the
// closed form of HammerBatch's bulk-accrual phase, accumulating per-victim
// float sums in the exact order the executor does. Aggressor-row mutual
// exposure is excluded: in the command path every aggressor activation
// wipes its own accumulated exposure, so only post-tail residue remains
// there (see HammerBatch), which no search observes.
//
// firstOff supplies the row-off time preceding each aggressor's first
// activation (the probe harness threads its own virtual precharge
// history); nil falls back to the module's recorded per-row PRE state.
// Results are sorted by row.
func (m *Module) HammerExposures(at TimePS, spec HammerSpec, firstOff func(row int, firstActAt TimePS) TimePS) []VictimExposure {
	if firstOff == nil {
		firstOff = func(row int, firstActAt TimePS) TimePS {
			return m.prevOff(spec.Bank, row, firstActAt)
		}
	}
	sched := spec.Schedule()
	isAggressor := make(map[int]bool, len(sched))
	for _, ag := range sched {
		if ag.Acts > 0 {
			isAggressor[ag.Row] = true
		}
	}
	slot := spec.SlotTime(m.Timing)
	steadyOff := spec.SteadyOff(m.Timing)
	tempC := m.TemperatureAt(at)

	deltas := make(map[int]*Exposure)
	to := func(victim int) *Exposure {
		e := deltas[victim]
		if e == nil {
			e = &Exposure{}
			deltas[victim] = e
		}
		return e
	}
	for idx, ag := range sched {
		if ag.Acts == 0 {
			continue
		}
		fOff := firstOff(ag.Row, at+TimePS(idx)*slot)
		m.accrueSpec(spec.Bank, ag.Row, spec.OnTime, fOff, tempC, 1, isAggressor, to)
		if ag.Acts > 1 {
			m.accrueSpec(spec.Bank, ag.Row, spec.OnTime, steadyOff, tempC, ag.Acts-1, isAggressor, to)
		}
	}

	out := make([]VictimExposure, 0, len(deltas))
	for row, e := range deltas {
		out = append(out, VictimExposure{Row: row, Exp: *e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Row < out[j].Row })
	return out
}
