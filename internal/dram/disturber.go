package dram

// BlastRadius is how many rows on each side of an aggressor accumulate
// disturbance. The paper checks three adjacent rows on each side (§4.1).
const BlastRadius = 3

// Exposure is the read-disturbance state a victim row has accumulated since
// its charge was last restored. Hammer and press contributions are kept per
// source side because the two phenomena interact with the double-sided
// access pattern differently (Obsv. 12/13): hammering from both sides is
// super-additive, pressing from both sides is sub-additive.
type Exposure struct {
	HammerAbove float64 // from aggressors at higher physical row indices
	HammerBelow float64
	PressAbove  float64
	PressBelow  float64
	Retention   float64 // temperature-weighted stress-seconds without refresh
}

// IsZero reports whether no disturbance has accumulated.
func (e Exposure) IsZero() bool {
	return e == Exposure{}
}

// NeighborData carries the current contents of the rows physically adjacent
// to a victim (nil when the neighbor has never been written). The disturb
// model uses it for the aggressor-bit coupling component of the
// data-pattern dependence (§5.3).
type NeighborData struct {
	Above []byte // row index victim+1
	Below []byte // row index victim-1
}

// Disturber computes read-disturbance physics for a module. Implementations
// must be pure with respect to the per-(bank,row) cell populations they
// sample, so that repeated evaluation is reproducible.
//
// HammerIncrement, PressIncrement and RetentionAccel must be pure
// functions of their arguments for the Disturber's whole lifetime: the
// module evaluates each (onTime, offTime, tempC) key once into its
// increment table (accrual.go) and each schedule temperature once into
// its temperature schedule, and reuses those values for every later
// activation and restore.
type Disturber interface {
	// HammerIncrement is the per-activation RowHammer damage delivered to a
	// victim `distance` rows away, given the aggressor's row-open time, the
	// preceding row-off time (both ps), and the chip temperature.
	HammerIncrement(onTime, offTime TimePS, tempC float64, distance int) float64
	// PressIncrement is the per-activation RowPress damage under the same
	// conditions.
	PressIncrement(onTime, offTime TimePS, tempC float64, distance int) float64
	// RetentionAccel scales wall-clock seconds into retention stress at the
	// given temperature (1.0 at the model's reference temperature).
	RetentionAccel(tempC float64) float64
	// ApplyFlips mutates data in place, flipping every cell of (bank,row)
	// whose accumulated damage under exp crosses its threshold. It returns
	// the number of bits flipped. data may be nil (uninitialized row), in
	// which case it must do nothing and return 0.
	ApplyFlips(bank, row int, data []byte, nb NeighborData, exp Exposure) int
}

// FlipProber is the optional Disturber extension for pure flip
// predicates: WouldFlip reports whether ApplyFlips on the same inputs
// would flip at least one cell, without mutating data. Models that
// implement it let Module.ProbeWouldFlip answer searches with an
// early-exit evaluation and no row copies.
type FlipProber interface {
	WouldFlip(bank, row int, data []byte, nb NeighborData, exp Exposure) bool
}

// NopDisturber ignores all disturbance. It stands in for a hypothetical
// disturbance-free DRAM and is useful for testing the command machinery in
// isolation.
type NopDisturber struct{}

// HammerIncrement always returns 0.
func (NopDisturber) HammerIncrement(_, _ TimePS, _ float64, _ int) float64 { return 0 }

// PressIncrement always returns 0.
func (NopDisturber) PressIncrement(_, _ TimePS, _ float64, _ int) float64 { return 0 }

// RetentionAccel always returns 0 (cells never leak).
func (NopDisturber) RetentionAccel(float64) float64 { return 0 }

// ApplyFlips never flips anything.
func (NopDisturber) ApplyFlips(_, _ int, _ []byte, _ NeighborData, _ Exposure) int { return 0 }
