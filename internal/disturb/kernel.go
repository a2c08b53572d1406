package disturb

import (
	"math"

	"repro/internal/dram"
)

// Reference conditions for hammer-threshold normalization: the conventional
// RowHammer access pattern (tAggON = tRAS, bank precharged for exactly tRP).
var (
	refOnS  = dram.Seconds(36 * dram.Nanosecond)
	refOffS = dram.Seconds(15 * dram.Nanosecond)
)

// hammerKernel returns the per-activation RowHammer damage at distance 1,
// normalized to 1.0 at reference conditions and 50 °C.
func (p *Params) hammerKernel(onS, offS, tempC float64) float64 {
	// Off-time dependence: injected charge needs off-time to act on the
	// victim (trap recombination, §5.4 footnote 19). Saturating in offS.
	off := offS / (offS + p.HammerOffTau)
	offRef := refOffS / (refOffS + p.HammerOffTau)
	k := off / offRef

	// Mild boost for slightly longer row-open times (the slow ACmin drop
	// between 36 ns and ~256 ns of Obsv. 3), saturating quickly …
	extraOn := onS - refOnS
	if extraOn > 0 {
		boost := extraOn
		if boost > p.HammerOnBoostCapS {
			boost = p.HammerOnBoostCapS
		}
		k *= 1 + p.HammerOnBoostPerS*boost
		// … followed by a slow decay for very long open times: pure hammer
		// fades in the press regime.
		if p.HammerOnDecayTau > 0 {
			k *= math.Exp(-extraOn / p.HammerOnDecayTau)
		}
	}

	// Temperature: RowHammer is only weakly temperature dependent
	// (very differently from RowPress, Takeaway 3).
	k *= math.Pow(p.HammerTempFactor30, (tempC-50)/30)
	return k
}

// pressKernel returns the per-activation RowPress damage (in effective
// on-seconds) at distance 1 and 50 °C reference, before recovery.
//
//	press(t) = (t−tRAS)² / ((t−tRAS) + θ)
//
// Sub-linear below the knee θ, asymptotically linear above it: in the
// linear regime AC × tAggON ≈ const gives the −1 log-log ACmin slope.
func (p *Params) pressKernel(onS float64) float64 {
	extra := onS - refOnS
	if extra <= 0 {
		return 0
	}
	return extra * extra / (extra + p.PressKneeS)
}

// pressTempFactor scales press damage with temperature (Obsv. 9/11).
func (p *Params) pressTempFactor(tempC float64) float64 {
	return math.Pow(p.PressTempFactor30, (tempC-50)/30)
}

// HammerIncrement implements dram.Disturber.
func (m *Model) HammerIncrement(onTime, offTime dram.TimePS, tempC float64, distance int) float64 {
	if distance < 1 || distance > dram.BlastRadius {
		return 0
	}
	return m.p.hammerKernel(dram.Seconds(onTime), dram.Seconds(offTime), tempC) *
		m.p.HammerDistDecay[distance]
}

// PressIncrement implements dram.Disturber. Press damage depends on the
// row-open time only — a single long activation presses exactly as hard as
// its on-time dictates, which is how ACmin = 1 arises (Obsv. 2). The
// off-time argument is accepted for interface symmetry but unused; the
// double-sided inefficiency is a cross-side interaction applied at flip
// evaluation.
func (m *Model) PressIncrement(onTime, _ dram.TimePS, tempC float64, distance int) float64 {
	if distance < 1 || distance > dram.BlastRadius {
		return 0
	}
	return m.p.pressKernel(dram.Seconds(onTime)) *
		m.p.pressTempFactor(tempC) *
		m.p.PressDistDecay[distance]
}

// RetentionAccel implements dram.Disturber: retention leakage roughly
// doubles every 10 °C.
func (m *Model) RetentionAccel(tempC float64) float64 {
	return math.Pow(2, (tempC-50)/10)
}
