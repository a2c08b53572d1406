package scenario

import (
	"errors"
	"math/bits"

	"repro/internal/chipgen"
	"repro/internal/dram"
	"repro/internal/mitigate"
)

// This file is the replay-free playback engine. playSite (play.go)
// remains the reference implementation — one shot, replayed from scratch
// per probe; the player below produces the identical trajectory but can
// pause at any aggressor-activation count, answer "would stopping here
// flip a bit?" through the module's pure probe, and checkpoint/roll back
// so the min-exposure bisection walks forward from the bracket's lower
// bound instead of replaying millions of slots per probe. Prefix
// determinism (playSite(n) is exactly the first n aggressor slots of
// playSite(m), n ≤ m) is what makes pausing equivalent to replaying; the
// scenario test suite holds the two engines against each other.

// slotGen generates the deterministic slot schedule of one (spec, site)
// play: aggressor slots round-robin the ring; decoy bursts run either
// after every DecoyEvery aggressor slots or timed against the next tREFI
// boundary (the U-TRR-style sampler bypass). Generation is a pure
// function of the emitted history, held in plain fields so a checkpoint
// is a struct copy. The logic is a field-for-field port of playSite's
// generator closure.
type slotGen struct {
	spec     Spec
	site     sitePlan
	decoys   []int
	t        dram.Timing
	burstDur dram.TimePS

	genNow        dram.TimePS // mirrors PlayTrace's clock
	aggSlot       int         // aggressor slots emitted
	decoyIdx      int         // next decoy row
	burstLeft     int         // decoy slots still to emit in this burst
	burstPad      dram.TimePS // extra off time on the burst's last slot
	sinceBurst    int         // aggressor slots since the last burst
	burstBoundary dram.TimePS // next REF boundary to sync a burst against
}

func newSlotGen(spec Spec, site sitePlan, t dram.Timing) slotGen {
	decoys := decoyPool(spec.DecoyRows)
	return slotGen{
		spec:          spec,
		site:          site,
		decoys:        decoys,
		t:             t,
		burstDur:      dram.TimePS(spec.DecoyRows) * (t.TRAS + t.TRP),
		burstBoundary: t.TREFI,
	}
}

func (g *slotGen) next() dram.Slot {
	t, spec := g.t, g.spec
	if g.burstLeft == 0 && spec.DecoyRows > 0 {
		next := spec.aggressorOnTime(g.aggSlot, t) + t.TRP + spec.ExtraOff
		switch {
		case spec.DecoyEvery > 0:
			if g.sinceBurst >= spec.DecoyEvery {
				g.burstLeft = spec.DecoyRows
			}
		default:
			// REF-synchronized: start the burst when one more aggressor
			// slot would no longer fit before the boundary, and pad its
			// last slot so the burst ends exactly on it (see playSite).
			if g.sinceBurst > 0 && g.genNow+next+g.burstDur >= g.burstBoundary {
				g.burstLeft = spec.DecoyRows
				g.burstPad = g.burstBoundary - (g.genNow + g.burstDur)
				if g.burstPad < 0 {
					g.burstPad = 0
				}
				end := g.genNow + g.burstDur + g.burstPad
				for g.burstBoundary <= end {
					g.burstBoundary += t.TREFI
				}
			}
		}
		if g.burstLeft > 0 {
			g.sinceBurst = 0
		}
	}
	var s dram.Slot
	if g.burstLeft > 0 {
		g.burstLeft--
		s = dram.Slot{Row: g.decoys[g.decoyIdx%len(g.decoys)], OnTime: t.TRAS}
		if g.burstLeft == 0 {
			s.ExtraOff = g.burstPad
			g.burstPad = 0
		}
		g.decoyIdx++
	} else {
		s = dram.Slot{
			Row:      g.site.aggressors[g.aggSlot%len(g.site.aggressors)],
			OnTime:   spec.aggressorOnTime(g.aggSlot, t),
			ExtraOff: spec.ExtraOff,
		}
		g.aggSlot++
		g.sinceBurst++
	}
	g.genNow += s.Duration(t)
	return s
}

// player drives one (module, spec, site, mitigation) play incrementally.
type player struct {
	cfg  Config
	spec Spec
	site sitePlan
	mod  *dram.Module
	mit  mitigate.Mitigation
	gen  slotGen

	out         Outcome
	nextRef     dram.TimePS
	nextWin     dram.TimePS
	lastOff     dram.TimePS
	resumeAt    dram.TimePS // where the next slot starts
	stopAt      dram.TimePS // pattern time if the play stopped here (Outcome.Elapsed)
	victimFlips int         // bitflips preventive refreshes materialized into victims mid-play
	isDecoy     rowSet
	isVictim    rowSet
	rf          refresher
	hasREF      bool

	cp playerCheckpoint
}

// playerCheckpoint captures the player's scalar state alongside the
// module's journal and the mitigation's snapshot.
type playerCheckpoint struct {
	armed       bool
	gen         slotGen
	out         Outcome
	nextRef     dram.TimePS
	nextWin     dram.TimePS
	lastOff     dram.TimePS
	resumeAt    dram.TimePS
	stopAt      dram.TimePS
	victimFlips int
	mitState    any
}

// newPlayer builds a fresh play: module instantiated, site rows
// initialized with the data pattern, schedule generator at slot zero —
// exactly the state playSite starts from.
func (c Config) newPlayer(module chipgen.ModuleSpec, spec Spec, site sitePlan, mit mitigate.Mitigation) (*player, error) {
	mod, _ := module.NewModule(c.Geometry, c.TempC)
	t := mod.Timing
	for _, v := range site.victims {
		if err := mod.InitRow(0, c.Bank, v, c.Pattern.VictimByte()); err != nil {
			return nil, err
		}
	}
	for _, a := range site.aggressors {
		if err := mod.InitRow(0, c.Bank, a, c.Pattern.AggressorByte()); err != nil {
			return nil, err
		}
	}
	p := &player{
		cfg:      c,
		spec:     spec,
		site:     site,
		mod:      mod,
		mit:      mit,
		gen:      newSlotGen(spec, site, t),
		nextRef:  t.TREFI,
		nextWin:  t.TREFW,
		isDecoy:  newRowSet(decoyPool(spec.DecoyRows)),
		isVictim: newRowSet(site.victims),
	}
	p.rf, p.hasREF = mit.(refresher)
	return p, nil
}

func (p *player) refreshRows(rows []int, now dram.TimePS) error {
	for _, r := range rows {
		if r < 0 || r >= p.cfg.Geometry.RowsPerBank {
			continue
		}
		flips, err := p.mod.RestoreRowCounted(now, p.cfg.Bank, r)
		if err != nil {
			return err
		}
		if p.isVictim.has(r) {
			p.victimFlips += flips
		}
		p.out.PreventiveRefreshes++
	}
	return nil
}

// playTo advances the play until targetAgg aggressor activations have
// retired (or the simulated-time budget caps it). Pausing and resuming is
// trajectory-identical to an uninterrupted play: the generator, the
// mitigation clock, and the module all continue from where they stopped.
func (p *player) playTo(targetAgg int) error {
	if p.out.TimeCapped || p.out.AggActs >= targetAgg {
		return nil
	}
	t := p.mod.Timing
	observe := func(i int, s dram.Slot, now dram.TimePS) error {
		p.out.TotalActs++
		if !p.isDecoy.has(s.Row) {
			p.out.AggActs++
		}
		if err := p.refreshRows(mitigate.Observe(p.mit, s.Row, s.OnTime), now); err != nil {
			return err
		}
		// Mitigation clock: REF fires every tREFI and the tracking window
		// resets every tREFW; REFs due in this slot's off phase execute
		// now (see playSite for the full methodology note).
		p.lastOff = t.TRP + s.ExtraOff
		for p.nextRef <= now+p.lastOff {
			if p.hasREF {
				if err := p.refreshRows(p.rf.OnRefresh(), p.nextRef); err != nil {
					return err
				}
			}
			if p.nextRef >= p.nextWin {
				p.mit.OnRefreshWindow()
				p.nextWin += t.TREFW
			}
			p.nextRef += t.TREFI
		}
		if p.out.AggActs >= targetAgg {
			return errActBudget
		}
		if now >= p.cfg.MaxTime {
			p.out.TimeCapped = true
			return errTimeBudget
		}
		return nil
	}
	// Upper bound on slots to the target; the observer aborts first.
	slots := (targetAgg-p.out.AggActs)*(p.spec.DecoyRows+1) + p.spec.DecoyRows + 1
	end, err := p.mod.PlayTrace(p.resumeAt, p.cfg.Bank, slots, func(int) dram.Slot { return p.gen.next() }, observe)
	switch {
	case errors.Is(err, errTimeBudget), errors.Is(err, errActBudget):
		// A budget abort stops at the last slot's PRE instant; let that
		// slot's own off phase elapse before any check stream issues ACTs.
		p.stopAt = end + p.lastOff
	case err != nil:
		return err
	default:
		p.stopAt = end
	}
	p.resumeAt = p.gen.genNow
	p.out.Elapsed = p.stopAt
	return nil
}

// flips counts the victim bitflips a check stream issued right now would
// materialize — through the module's pure probe, so the play can continue
// (or roll back) afterwards as if no check had happened.
func (p *player) flips() (int, error) {
	probes, _, err := p.mod.ProbeFetch(p.stopAt, p.cfg.Bank, p.site.victims)
	if err != nil {
		return 0, err
	}
	expect := p.cfg.Pattern.VictimByte()
	n := 0
	for _, pr := range probes {
		for _, b := range pr.Data {
			n += bits.OnesCount8(b ^ expect)
		}
	}
	return n, nil
}

// wouldFlip is the any-flip predicate of flips(). While no preventive
// refresh has materialized a flip into a victim, every victim still holds
// its exact fill byte, so the copy-free early-exit probe is exact: the
// check stream flips something iff pending exposure crosses a threshold.
// Once mid-play flips exist, the stored data itself diffs (and a later
// flip could even cancel one), so only the counting probe answers
// exactly.
func (p *player) wouldFlip() (bool, error) {
	if p.victimFlips > 0 {
		n, err := p.flips()
		return n > 0, err
	}
	return p.mod.ProbeWouldFlip(p.stopAt, p.cfg.Bank, p.site.victims)
}

// outcome returns the Outcome of stopping the play here.
func (p *player) outcome() Outcome {
	o := p.out
	o.Elapsed = p.stopAt
	return o
}

// checkpointable reports whether the play's mitigation supports state
// snapshots; without it a search must fall back to replaying.
func (p *player) checkpointable() bool {
	_, ok := p.mit.(mitigate.Checkpointer)
	return ok
}

// checkpoint arms a snapshot of the whole play (module, mitigation,
// generator, budget accounting).
func (p *player) checkpoint() {
	p.mod.Checkpoint()
	p.cp = playerCheckpoint{
		armed: true, gen: p.gen, out: p.out,
		nextRef: p.nextRef, nextWin: p.nextWin, lastOff: p.lastOff,
		resumeAt: p.resumeAt, stopAt: p.stopAt, victimFlips: p.victimFlips,
		mitState: p.mit.(mitigate.Checkpointer).CheckpointState(),
	}
}

// rollback returns the play to the armed checkpoint, which stays armed.
func (p *player) rollback() {
	p.mod.Rollback()
	cp := p.cp
	p.gen, p.out = cp.gen, cp.out
	p.nextRef, p.nextWin, p.lastOff = cp.nextRef, cp.nextWin, cp.lastOff
	p.resumeAt, p.stopAt, p.victimFlips = cp.resumeAt, cp.stopAt, cp.victimFlips
	p.mit.(mitigate.Checkpointer).RestoreState(cp.mitState)
}

// advanceCheckpoint re-arms the checkpoint at the current position (the
// search's new lower bound).
func (p *player) advanceCheckpoint() {
	p.mod.ReleaseCheckpoint()
	p.checkpoint()
}

// release discards the checkpoint, keeping the current position.
func (p *player) release() {
	p.mod.ReleaseCheckpoint()
	p.cp = playerCheckpoint{}
}
