package scenario

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/chipgen"
	"repro/internal/dram"
	"repro/internal/mitigate"
	"repro/internal/stats"
)

// MitigationKind names the mitigations the scenario harness can wire
// into the activation stream.
type MitigationKind string

// The evaluated mitigations.
const (
	MitNone     MitigationKind = "none"
	MitPARA     MitigationKind = "para"
	MitGraphene MitigationKind = "graphene"
	MitTRR      MitigationKind = "trr"
	MitImPress  MitigationKind = "impress"
)

// AllMitigations lists the evaluated mitigations in report order.
func AllMitigations() []MitigationKind {
	return []MitigationKind{MitNone, MitPARA, MitGraphene, MitTRR, MitImPress}
}

// Config fixes the playback methodology for one characterization: the
// module geometry, the tested-site count, the per-site activation and
// simulated-time budgets, and the mitigation sizing. Following §4.1 the
// harness keeps periodic victim refresh disabled — REF events still fire
// as mitigation hooks (TRR samples at REF; window-based trackers reset
// every tREFW), but victims accumulate disturbance for the whole play,
// so the measured minimum exposures are circuit-level properties.
type Config struct {
	Geometry dram.Geometry
	Bank     int
	Sites    int         // tested victim sites per (module, scenario)
	MaxActs  int         // aggressor-activation budget per play
	MaxTime  dram.TimePS // simulated-time budget per play
	Pattern  dram.DataPattern
	Accuracy float64 // min-exposure bisection termination, fraction
	TempC    float64
	Seed     uint64 // randomized mitigations (PARA)

	// Mitigation sizing: trackers trigger at TRH/3 (the Graphene sizing
	// rule the paper's Table 3 follows), PARA's probability is re-derived
	// from TRH, and ImPress charges ImPressQuantum of open time as one
	// extra tracked activation.
	TRH            int
	TableSize      int
	TRREntries     int
	ImPressQuantum dram.TimePS
}

// DefaultConfig returns the standard scenario methodology.
func DefaultConfig() Config {
	return Config{
		Geometry: dram.DefaultGeometry(),
		Bank:     1,
		Sites:    3,
		MaxActs:  1_000_000,
		MaxTime:  256 * dram.Millisecond,
		Pattern:  dram.CheckerBoard,
		Accuracy: 0.05,
		TempC:    50,
		Seed:     1,

		TRH:            32_000,
		TableSize:      64,
		TRREntries:     4,
		ImPressQuantum: mitigate.DefaultImPressQuantum,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	switch {
	case c.Bank < 0 || c.Bank >= c.Geometry.Banks:
		return fmt.Errorf("scenario: bank %d outside geometry with %d banks", c.Bank, c.Geometry.Banks)
	case c.Sites <= 0:
		return fmt.Errorf("scenario: Sites must be positive")
	case c.MaxActs <= 0 || c.MaxTime <= 0:
		return fmt.Errorf("scenario: MaxActs and MaxTime must be positive")
	case c.Accuracy <= 0 || c.Accuracy >= 1:
		return fmt.Errorf("scenario: Accuracy must be in (0,1)")
	case c.TRH <= 0 || c.TableSize <= 0 || c.TRREntries <= 0 || c.ImPressQuantum <= 0:
		return fmt.Errorf("scenario: mitigation sizing must be positive")
	}
	return nil
}

// NewMitigation instantiates one sized mitigation. seed only matters for
// randomized mechanisms.
func (c Config) NewMitigation(kind MitigationKind, seed uint64) (mitigate.Mitigation, error) {
	threshold := c.TRH / 3
	if threshold < 1 {
		threshold = 1
	}
	switch kind {
	case MitNone:
		return mitigate.None{}, nil
	case MitPARA:
		p := 34.0 / float64(c.TRH)
		if p > 1 {
			p = 1
		}
		return mitigate.NewPARA(p, seed), nil
	case MitGraphene:
		return mitigate.NewGraphene(threshold, c.TableSize), nil
	case MitTRR:
		return mitigate.NewTRR(c.TRREntries), nil
	case MitImPress:
		return mitigate.NewImPress(threshold, c.TableSize, c.ImPressQuantum), nil
	default:
		return nil, fmt.Errorf("scenario: unknown mitigation %q", kind)
	}
}

// sitePlan is the physical layout of one tested site: the aggressor ring,
// the victim rows inside the blast radius, and the shared decoy pool.
type sitePlan struct {
	loc        int
	aggressors []int
	victims    []int
	decoys     []int
}

// decoyBase is where the decoy pool starts; sites are placed beyond the
// pool so decoy disturbance can never reach a victim.
const decoyBase = 16

// siteFor lays out the aggressor ring around loc: single-sided hammers
// loc itself, double-sided loc±1, many-sided alternates outward
// (loc−1, loc+1, loc−2, loc+2, …). Victims are every non-aggressor row
// within the blast radius of any aggressor.
func siteFor(loc, sides int) sitePlan {
	s := sitePlan{loc: loc}
	if sides == 1 {
		s.aggressors = []int{loc}
	} else {
		for d := 1; len(s.aggressors) < sides; d++ {
			s.aggressors = append(s.aggressors, loc-d)
			if len(s.aggressors) < sides {
				s.aggressors = append(s.aggressors, loc+d)
			}
		}
	}
	isAgg := make(map[int]bool, len(s.aggressors))
	lo, hi := s.aggressors[0], s.aggressors[0]
	for _, a := range s.aggressors {
		isAgg[a] = true
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	for r := lo - dram.BlastRadius; r <= hi+dram.BlastRadius; r++ {
		if !isAgg[r] {
			s.victims = append(s.victims, r)
		}
	}
	return s
}

// sites spreads cfg.Sites tested locations across the bank, clear of the
// decoy pool and the array edges, spaced so neighboring sites' blast
// radii never interact.
func (c Config) sites(sides int) []sitePlan {
	margin := decoyBase + 8*maxDecoyRows + 32
	usable := c.Geometry.RowsPerBank - margin - 16
	n := c.Sites
	if n > usable/64 {
		n = usable / 64
	}
	if n < 1 {
		n = 1
	}
	step := usable / n
	if step < 64 {
		step = 64
	}
	out := make([]sitePlan, 0, n)
	for i := 0; i < n; i++ {
		loc := margin + i*step + step/2
		if loc+sides+dram.BlastRadius >= c.Geometry.RowsPerBank-8 {
			break
		}
		out = append(out, siteFor(loc, sides))
	}
	return out
}

// decoyPool returns the shared decoy rows, spaced so decoys never sit in
// each other's blast radius.
func decoyPool(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = decoyBase + 8*i
	}
	return out
}

// rowSet is a dense row-indexed membership set sized to its highest row.
// Slot observers test membership on every activation, where a slice
// index is far cheaper than a map lookup.
type rowSet []bool

func newRowSet(rows []int) rowSet {
	n := 0
	for _, r := range rows {
		n = max(n, r+1)
	}
	set := make(rowSet, n)
	for _, r := range rows {
		set[r] = true
	}
	return set
}

func (s rowSet) has(row int) bool { return row >= 0 && row < len(s) && s[row] }

// Outcome is one playback measurement.
type Outcome struct {
	AggActs             int         // aggressor activations played
	TotalActs           int         // including decoys
	BitFlips            int         // victim bitflips materialized at the final check
	PreventiveRefreshes uint64      // rows preventively refreshed by the mitigation
	Elapsed             dram.TimePS // simulated pattern time
	TimeCapped          bool        // playback stopped on MaxTime, not MaxActs
}

// errTimeBudget and errActBudget abort a playback cleanly when the
// simulated-time or aggressor-activation budget is reached.
var (
	errTimeBudget = errors.New("scenario: simulated-time budget reached")
	errActBudget  = errors.New("scenario: activation budget reached")
)

// refresher is the mid-window REF hook (TRR samples at REF).
type refresher interface{ OnRefresh() []int }

// playSite plays up to actBudget aggressor activations of spec against
// one site on a fresh module, with mit observing every activation (decoys
// included), and returns the measured outcome. The trace is a prefix
// family: playSite(n) plays exactly the first n aggressor slots of
// playSite(m) for n ≤ m, which makes the min-exposure bisection sound.
func (c Config) playSite(module chipgen.ModuleSpec, spec Spec, site sitePlan,
	mit mitigate.Mitigation, actBudget int) (Outcome, error) {
	mod, _ := module.NewModule(c.Geometry, c.TempC)
	t := mod.Timing
	decoys := decoyPool(spec.DecoyRows)

	// Data-pattern setup (outside the measured command stream, like the
	// real infrastructure's bulk writes). Decoy rows stay uninitialized:
	// they carry no data, so their neighborhoods cannot flip.
	for _, v := range site.victims {
		if err := mod.InitRow(0, c.Bank, v, c.Pattern.VictimByte()); err != nil {
			return Outcome{}, err
		}
	}
	for _, a := range site.aggressors {
		if err := mod.InitRow(0, c.Bank, a, c.Pattern.AggressorByte()); err != nil {
			return Outcome{}, err
		}
	}

	// Slot schedule, generated statefully (PlayTrace streams indices in
	// order): aggressor slots round-robin the ring; a decoy burst of
	// DecoyRows slots runs either after every DecoyEvery aggressor slots
	// (unsynchronized) or — with DecoyEvery == 0 — timed so the burst
	// lands against the next tREFI boundary, the U-TRR-style bypass that
	// leaves a REF-sampling defense tracking only decoys when REF fires.
	// Generation is a pure function of the emitted history, so a shorter
	// play is an exact prefix of a longer one.
	var (
		genNow        dram.TimePS // mirrors PlayTrace's clock
		aggSlot       int         // aggressor slots emitted
		decoyIdx      int         // next decoy row
		burstLeft     int         // decoy slots still to emit in this burst
		burstPad      dram.TimePS // extra off time on the burst's last slot
		sinceBurst    int         // aggressor slots since the last burst
		burstBoundary = t.TREFI   // next REF boundary to sync a burst against
	)
	burstDur := dram.TimePS(spec.DecoyRows) * (t.TRAS + t.TRP)
	slotAt := func(int) dram.Slot {
		if burstLeft == 0 && spec.DecoyRows > 0 {
			next := spec.aggressorOnTime(aggSlot, t) + t.TRP + spec.ExtraOff
			switch {
			case spec.DecoyEvery > 0:
				if sinceBurst >= spec.DecoyEvery {
					burstLeft = spec.DecoyRows
				}
			default:
				// REF-synchronized: start the burst when one more
				// aggressor slot would no longer fit before the boundary,
				// and pad its last slot so the burst ends exactly on it —
				// the REF then samples a table holding only decoys. At
				// least one aggressor slot must run between bursts so
				// dwell slots longer than the remaining window make
				// progress (their REF is postponed past the dwell, where
				// the sampler legitimately catches them).
				if sinceBurst > 0 && genNow+next+burstDur >= burstBoundary {
					burstLeft = spec.DecoyRows
					burstPad = burstBoundary - (genNow + burstDur)
					if burstPad < 0 {
						burstPad = 0
					}
					end := genNow + burstDur + burstPad
					for burstBoundary <= end {
						burstBoundary += t.TREFI
					}
				}
			}
			if burstLeft > 0 {
				sinceBurst = 0
			}
		}
		var s dram.Slot
		if burstLeft > 0 {
			burstLeft--
			s = dram.Slot{Row: decoys[decoyIdx%len(decoys)], OnTime: t.TRAS}
			if burstLeft == 0 {
				s.ExtraOff = burstPad
				burstPad = 0
			}
			decoyIdx++
		} else {
			s = dram.Slot{
				Row:      site.aggressors[aggSlot%len(site.aggressors)],
				OnTime:   spec.aggressorOnTime(aggSlot, t),
				ExtraOff: spec.ExtraOff,
			}
			aggSlot++
			sinceBurst++
		}
		genNow += s.Duration(t)
		return s
	}
	// Upper bound on total slots; playback stops on the activation or
	// time budget via the observer, never on this bound.
	slots := actBudget*(spec.DecoyRows+1) + spec.DecoyRows + 1

	out := Outcome{}
	rf, hasREF := mit.(refresher)
	nextRef := t.TREFI
	nextWin := t.TREFW
	isDecoy := newRowSet(decoys)
	refreshRows := func(rows []int, now dram.TimePS) error {
		for _, r := range rows {
			if r < 0 || r >= c.Geometry.RowsPerBank {
				continue
			}
			if err := mod.RestoreRow(now, c.Bank, r); err != nil {
				return err
			}
			out.PreventiveRefreshes++
		}
		return nil
	}
	var lastOff dram.TimePS // off phase of the most recent slot
	observe := func(i int, s dram.Slot, now dram.TimePS) error {
		out.TotalActs++
		if !isDecoy.has(s.Row) {
			out.AggActs++
		}
		if err := refreshRows(mitigate.Observe(mit, s.Row, s.OnTime), now); err != nil {
			return err
		}
		// Mitigation clock: REF fires every tREFI (the sampler's refresh
		// hook) and the tracking window resets every tREFW. REFs due in
		// this slot's off phase execute now — after this activation's
		// disturbance accrued, before the next ACT enters the sampler's
		// table — matching a controller that schedules REF while the
		// bank is precharged; REFs falling inside a long dwell are
		// postponed to the dwell's own off phase, as DDR4 allows.
		// Periodic victim refresh itself stays disabled per the §4.1
		// methodology.
		lastOff = t.TRP + s.ExtraOff
		for nextRef <= now+lastOff {
			if hasREF {
				if err := refreshRows(rf.OnRefresh(), nextRef); err != nil {
					return err
				}
			}
			if nextRef >= nextWin {
				mit.OnRefreshWindow()
				nextWin += t.TREFW
			}
			nextRef += t.TREFI
		}
		if out.AggActs >= actBudget {
			return errActBudget
		}
		if now >= c.MaxTime {
			out.TimeCapped = true
			return errTimeBudget
		}
		return nil
	}

	end, err := mod.PlayTrace(0, c.Bank, slots, slotAt, observe)
	switch {
	case errors.Is(err, errTimeBudget), errors.Is(err, errActBudget):
		// A budget abort stops at the last slot's PRE instant; let that
		// slot's own off phase elapse before the check stream issues ACTs.
		end += lastOff
	case err != nil:
		return Outcome{}, err
	}
	out.Elapsed = end

	// Materialize and count victim flips.
	now := end
	for _, v := range site.victims {
		data, fin, err := mod.FetchRow(now, c.Bank, v)
		if err != nil {
			return Outcome{}, err
		}
		now = fin
		expect := c.Pattern.VictimByte()
		for _, b := range data {
			out.BitFlips += bits.OnesCount8(b ^ expect)
		}
	}
	return out, nil
}

// siteSeed derives the deterministic per-(site, scenario) mitigation
// seed so repeated plays are reproducible and sites are independent.
func (c Config) siteSeed(spec Spec, siteIdx int) uint64 {
	h := c.Seed
	for _, ch := range spec.Name {
		h = stats.Combine(h, uint64(ch))
	}
	return stats.Combine(h, uint64(siteIdx))
}

// Result is the full characterization of one (module, scenario,
// mitigation) cell: the budget-play outcome summed over sites plus the
// minimum exposure to first flip across sites.
type Result struct {
	Module     string         `json:"module"`
	Scenario   string         `json:"scenario"`
	Mitigation MitigationKind `json:"mitigation"`

	Sites      int  `json:"sites"`
	BudgetActs int  `json:"budget_acts"` // per-site aggressor budget actually played (max over sites)
	TimeCapped bool `json:"time_capped"`

	BitFlips            int     `json:"bitflips"` // total at full budget, all sites
	SitesWithFlips      int     `json:"sites_with_flips"`
	PreventiveRefreshes uint64  `json:"preventive_refreshes"` // all sites
	RefreshOverhead     float64 `json:"refresh_overhead"`     // per 1000 aggressor acts

	// Minimum exposure to first flip, across sites: the smallest
	// aggressor-activation count at which the scenario produces a bitflip,
	// and the simulated pattern time that exposure takes. Zero/false when
	// no tested site flips within the budgets.
	MinActs   int         `json:"min_acts,omitempty"`
	MinTime   dram.TimePS `json:"min_time_ps,omitempty"`
	FlipFound bool        `json:"flip_found"`
}

// Characterize measures one (module, scenario, mitigation) cell: a full
// budget play per site, plus a doubling + bisection search for the
// minimum exposure to first flip (played fresh each probe — mitigation
// state, module state, and randomized decisions all restart, so probes
// are true prefixes of each other).
func Characterize(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, cfg Config) (Result, error) {
	return measure(module, spec, kind, cfg, true)
}

// Evaluate is Characterize without the min-exposure search: one full
// budget play per site. The mitigation-comparison grid uses it, since
// flip counts and refresh overhead at a fixed budget are what the
// comparison needs.
func Evaluate(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, cfg Config) (Result, error) {
	return measure(module, spec, kind, cfg, false)
}

func measure(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, cfg Config, search bool) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := spec.Validate(dram.DDR4()); err != nil {
		return Result{}, err
	}
	sites := cfg.sites(spec.Sides)
	if len(sites) == 0 {
		return Result{}, fmt.Errorf("scenario: geometry with %d rows/bank cannot host a %d-sided site",
			cfg.Geometry.RowsPerBank, spec.Sides)
	}
	res := Result{Module: module.ID, Scenario: spec.Name, Mitigation: kind}
	totalAggActs := 0
	for si, site := range sites {
		res.Sites++
		seed := cfg.siteSeed(spec, si)
		// Full-budget play on the incremental player; the final victim
		// check runs through the module's pure probe, which reports the
		// same flips an executed check stream would.
		mit, err := cfg.NewMitigation(kind, seed)
		if err != nil {
			return Result{}, err
		}
		pl, err := cfg.newPlayer(module, spec, site, mit)
		if err != nil {
			return Result{}, err
		}
		if err := pl.playTo(cfg.MaxActs); err != nil {
			return Result{}, err
		}
		full := pl.outcome()
		if full.BitFlips, err = pl.flips(); err != nil {
			return Result{}, err
		}
		res.BitFlips += full.BitFlips
		res.PreventiveRefreshes += full.PreventiveRefreshes
		res.TimeCapped = res.TimeCapped || full.TimeCapped
		totalAggActs += full.AggActs
		if full.AggActs > res.BudgetActs {
			res.BudgetActs = full.AggActs
		}
		if full.BitFlips == 0 {
			continue
		}
		res.SitesWithFlips++
		if !search {
			res.FlipFound = true
			continue
		}
		minActs, minTime, err := cfg.searchMinActs(module, spec, site, kind, seed, full)
		if err != nil {
			return Result{}, err
		}
		if !res.FlipFound || minActs < res.MinActs {
			res.MinActs, res.MinTime, res.FlipFound = minActs, minTime, true
		}
	}
	if totalAggActs > 0 {
		res.RefreshOverhead = 1000 * float64(res.PreventiveRefreshes) / float64(totalAggActs)
	}
	return res, nil
}

// SiteCount returns the number of victim sites measure tests for this
// spec under cfg — the sub-shard count of the split scenario
// experiments.
func SiteCount(spec Spec, cfg Config) int { return len(cfg.sites(spec.Sides)) }

// SiteResult is one site's share of a cell's Result — the sub-shard
// payload of the split scenario experiments. FoldSites folds a full set
// back into the cell Result.
type SiteResult struct {
	AggActs             int         `json:"agg_acts"`
	BitFlips            int         `json:"bitflips"`
	PreventiveRefreshes uint64      `json:"preventive_refreshes"`
	TimeCapped          bool        `json:"time_capped"`
	MinActs             int         `json:"min_acts,omitempty"`
	MinTime             dram.TimePS `json:"min_time_ps,omitempty"`
}

// CharacterizeSite measures site siteIdx of the (module, scenario,
// mitigation) cell, minimum-exposure search included. Sites are fully
// independent — each plays on a fresh module with its own deterministic
// per-site seed — so the per-site measurements compose through
// FoldSites into exactly the Result Characterize returns, whatever
// order they executed in.
func CharacterizeSite(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, cfg Config, siteIdx int) (SiteResult, error) {
	return measureSite(module, spec, kind, cfg, siteIdx, true)
}

// EvaluateSite is CharacterizeSite without the minimum-exposure search.
func EvaluateSite(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, cfg Config, siteIdx int) (SiteResult, error) {
	return measureSite(module, spec, kind, cfg, siteIdx, false)
}

// measureSite is one iteration of measure's site loop, addressable by
// site index.
func measureSite(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, cfg Config, siteIdx int, search bool) (SiteResult, error) {
	if err := cfg.Validate(); err != nil {
		return SiteResult{}, err
	}
	if err := spec.Validate(dram.DDR4()); err != nil {
		return SiteResult{}, err
	}
	sites := cfg.sites(spec.Sides)
	if siteIdx < 0 || siteIdx >= len(sites) {
		return SiteResult{}, fmt.Errorf("scenario: site %d outside the %d tested sites", siteIdx, len(sites))
	}
	site := sites[siteIdx]
	seed := cfg.siteSeed(spec, siteIdx)
	mit, err := cfg.NewMitigation(kind, seed)
	if err != nil {
		return SiteResult{}, err
	}
	pl, err := cfg.newPlayer(module, spec, site, mit)
	if err != nil {
		return SiteResult{}, err
	}
	if err := pl.playTo(cfg.MaxActs); err != nil {
		return SiteResult{}, err
	}
	full := pl.outcome()
	if full.BitFlips, err = pl.flips(); err != nil {
		return SiteResult{}, err
	}
	sr := SiteResult{
		AggActs:             full.AggActs,
		BitFlips:            full.BitFlips,
		PreventiveRefreshes: full.PreventiveRefreshes,
		TimeCapped:          full.TimeCapped,
	}
	if full.BitFlips == 0 || !search {
		return sr, nil
	}
	if sr.MinActs, sr.MinTime, err = cfg.searchMinActs(module, spec, site, kind, seed, full); err != nil {
		return SiteResult{}, err
	}
	return sr, nil
}

// FoldSites folds per-site results — indexed by site, covering every
// site of SiteCount in order — into the cell Result, reproducing the
// aggregation of Characterize (search true) or Evaluate (search false)
// bit for bit: sums, the max per-site budget, the OR of time caps, and
// the first-site-wins strict minimum of the exposure search.
func FoldSites(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, parts []SiteResult, search bool) Result {
	res := Result{Module: module.ID, Scenario: spec.Name, Mitigation: kind}
	totalAggActs := 0
	for _, sr := range parts {
		res.Sites++
		res.BitFlips += sr.BitFlips
		res.PreventiveRefreshes += sr.PreventiveRefreshes
		res.TimeCapped = res.TimeCapped || sr.TimeCapped
		totalAggActs += sr.AggActs
		if sr.AggActs > res.BudgetActs {
			res.BudgetActs = sr.AggActs
		}
		if sr.BitFlips == 0 {
			continue
		}
		res.SitesWithFlips++
		if !search {
			res.FlipFound = true
			continue
		}
		if !res.FlipFound || sr.MinActs < res.MinActs {
			res.MinActs, res.MinTime, res.FlipFound = sr.MinActs, sr.MinTime, true
		}
	}
	if totalAggActs > 0 {
		res.RefreshOverhead = 1000 * float64(res.PreventiveRefreshes) / float64(totalAggActs)
	}
	return res
}

// searchMinActs finds the smallest aggressor-activation count at which
// the play produces a bitflip, knowing the full-budget play (full) does.
// Doubling bounds the bracket from below, bisection narrows it to the
// accuracy fraction — probing replay-free: one player walks forward,
// pauses at each probe point for a pure flip check, and checkpoints at
// the bracket's lower bound so a failed probe rolls back instead of
// replaying the prefix. Probe outcomes are identical to the replayed
// reference (prefix determinism), so the search returns the same bracket.
func (c Config) searchMinActs(module chipgen.ModuleSpec, spec Spec, site sitePlan,
	kind MitigationKind, seed uint64, full Outcome) (int, dram.TimePS, error) {
	hi, hiElapsed := full.AggActs, full.Elapsed
	mit, err := c.NewMitigation(kind, seed)
	if err != nil {
		return 0, 0, err
	}
	p, err := c.newPlayer(module, spec, site, mit)
	if err != nil {
		return 0, 0, err
	}
	if !p.checkpointable() {
		return c.searchMinActsReplay(module, spec, site, kind, seed, hi, hiElapsed)
	}
	lo := 0
	bestActs, bestTime := hi, hiElapsed
	p.checkpoint()
	// The search only branches on "did anything flip?", so probes go
	// through the early-exit WouldFlip predicate — no row copies.
	probeHit := func(target int) (bool, error) {
		if err := p.playTo(target); err != nil {
			return false, err
		}
		return p.wouldFlip()
	}
	for probe := 256; probe < hi; probe *= 2 {
		hit, err := probeHit(probe)
		if err != nil {
			return 0, 0, err
		}
		if hit {
			bestActs, bestTime = p.out.AggActs, p.stopAt
			hi = p.out.AggActs
			p.rollback()
			break
		}
		lo = p.out.AggActs
		p.advanceCheckpoint()
	}
	for hi-lo > 1 && float64(hi-lo) > c.Accuracy*float64(hi) {
		mid := lo + (hi-lo)/2
		hit, err := probeHit(mid)
		if err != nil {
			return 0, 0, err
		}
		if hit {
			hi, bestActs, bestTime = p.out.AggActs, p.out.AggActs, p.stopAt
			p.rollback()
		} else {
			lo = p.out.AggActs
			p.advanceCheckpoint()
		}
	}
	p.release()
	return bestActs, bestTime, nil
}

// searchMinActsReplay is the reference search for mitigations without
// checkpoint support: every probe replays the pattern from scratch
// through playSite.
func (c Config) searchMinActsReplay(module chipgen.ModuleSpec, spec Spec, site sitePlan,
	kind MitigationKind, seed uint64, hi int, hiElapsed dram.TimePS) (int, dram.TimePS, error) {
	play := func(acts int) (Outcome, error) {
		mit, err := c.NewMitigation(kind, seed)
		if err != nil {
			return Outcome{}, err
		}
		return c.playSite(module, spec, site, mit, acts)
	}
	lo := 0
	bestActs, bestTime := hi, hiElapsed
	for probe := 256; probe < hi; probe *= 2 {
		out, err := play(probe)
		if err != nil {
			return 0, 0, err
		}
		if out.BitFlips > 0 {
			bestActs, bestTime = out.AggActs, out.Elapsed
			hi = out.AggActs
			break
		}
		lo = out.AggActs
	}
	for hi-lo > 1 && float64(hi-lo) > c.Accuracy*float64(hi) {
		mid := lo + (hi-lo)/2
		out, err := play(mid)
		if err != nil {
			return 0, 0, err
		}
		if out.BitFlips > 0 {
			hi, bestActs, bestTime = out.AggActs, out.AggActs, out.Elapsed
		} else {
			lo = out.AggActs
		}
	}
	return bestActs, bestTime, nil
}
