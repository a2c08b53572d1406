package characterize

import (
	"repro/internal/bender"
	"repro/internal/dram"
)

// prober evaluates one characterization probe — prepare the site's data
// pattern, run the hammer loop, check the victims — analytically instead
// of through the module's command path.
//
// The old probe cost was dominated not by the hammer loop (already
// batched) but by re-initializing every site row (8 KiB fills) and
// fetching every victim (8 KiB copies plus exposure bookkeeping) for each
// of the O(log N) bisection probes. The prober keeps the handful of site
// rows as scratch buffers and tracks the only cross-probe state the
// command path threads between probes — the bench clock, each row's last
// precharge instant (the off time preceding its next first activation),
// and each row's last charge restore (its retention window). Victim
// exposure comes from the closed form (dram.HammerExposures) plus the
// check stream's own self-disturbance, and flips materialize through the
// very same Disturber evaluation the module would run — so a probe's
// outcome is bit-identical to executing the commands, at O(site) cost
// independent of the activation count. The golden-report suite and
// TestProberMatchesCommandPath enforce that equivalence.
//
// A prober owns its site rows' virtual state for the lifetime of a sweep:
// interleaving command-path operations on the same rows of the same bench
// would fork history. Sweeps create one prober and route every search
// through it; independent flows (BER, repeatability, retention) use their
// own benches as before.
type prober struct {
	b   *bender.Bench
	cfg Config

	lastPre     map[int]dram.TimePS    // row → last PRE instant
	lastRestore map[int]dram.TimePS    // row → last charge restore
	scratch     map[int][]byte         // row → current contents
	fill        map[int]int            // row → fill byte in scratch, -1 once flipped
	exp         map[int]*dram.Exposure // row → pending exposure within the current probe
}

func newProber(b *bender.Bench, cfg Config) *prober {
	return &prober{
		b:           b,
		cfg:         cfg,
		lastPre:     make(map[int]dram.TimePS),
		lastRestore: make(map[int]dram.TimePS),
		scratch:     make(map[int][]byte),
		fill:        make(map[int]int),
	}
}

// prevOff mirrors the module's per-row off-time rule on the virtual PRE
// history: time since the row's last precharge, capped at the fully
// recovered bound; a row never precharged starts fully recovered.
func (p *prober) prevOff(row int, actAt dram.TimePS) dram.TimePS {
	pre, ok := p.lastPre[row]
	if !ok {
		return dram.RecoveredOff
	}
	off := actAt - pre
	if off > dram.RecoveredOff {
		off = dram.RecoveredOff
	}
	return off
}

// initRow is the virtual InitRow: contents reset to the fill byte, pending
// exposure cleared, retention window restarted. The buffer is refilled
// only when its current contents differ — the common no-flip probe leaves
// it untouched, which is where the prepare phase's 8 KiB-per-row cost
// goes away.
func (p *prober) initRow(row int, fillByte byte) {
	buf := p.scratch[row]
	if buf == nil {
		buf = make([]byte, p.b.Mod.Geo.RowBytes)
		p.scratch[row] = buf
	}
	if p.fill[row] != int(fillByte) {
		dram.Fill(buf, fillByte)
		p.fill[row] = int(fillByte)
	}
	p.lastRestore[row] = p.b.Now()
	p.b.Advance(dram.Microsecond) // WriteRow's per-row setup time
}

// prepare resets the site's rows to the data pattern, victims first, like
// site.prepare.
func (p *prober) prepare(s site) {
	p.exp = make(map[int]*dram.Exposure, len(s.victims)+len(s.aggressors))
	for _, v := range s.victims {
		p.initRow(v, p.cfg.Pattern.VictimByte())
	}
	for _, a := range s.aggressors {
		p.initRow(a, p.cfg.Pattern.AggressorByte())
	}
}

// expOf returns the row's pending-exposure slot, creating it at zero.
func (p *prober) expOf(row int) *dram.Exposure {
	e := p.exp[row]
	if e == nil {
		e = &dram.Exposure{}
		p.exp[row] = e
	}
	return e
}

// restore is the virtual charge restore (the module's restoreRow): pending
// exposure plus the retention accumulated since the last restore
// materializes into the scratch contents through the model's own flip
// evaluation, then resets.
func (p *prober) restore(row int, at dram.TimePS) {
	e := dram.Exposure{}
	if pe := p.exp[row]; pe != nil {
		e = *pe
	}
	e.Retention = p.b.Mod.RetentionStress(p.lastRestore[row], at)
	buf := p.scratch[row]
	if buf != nil && (!e.IsZero() || e.Retention > 0) {
		nb := dram.NeighborData{Above: p.scratch[row+1], Below: p.scratch[row-1]}
		if p.b.Model.ApplyFlips(p.b.Bank(), row, buf, nb, e) > 0 {
			p.fill[row] = -1
		}
	}
	if pe := p.exp[row]; pe != nil {
		*pe = dram.Exposure{}
	}
	p.lastRestore[row] = at
}

// hammer applies the loop's effect in closed form: aggressor first-ACT
// restores (phase 1 of HammerBatch), per-victim exposure deltas via the
// shared calculator (phase 2), and the aggressors' final restore/PRE
// bookkeeping (phases 3–4). Aggressor-mutual tail exposure is not
// tracked: the next prepare clears it before anything can observe it.
func (p *prober) hammer(s site, count int, onTime, extraOff dram.TimePS) error {
	spec := dram.HammerSpec{
		Bank: p.b.Bank(), Rows: s.aggressors, Count: count, OnTime: onTime, ExtraOff: extraOff,
	}
	if err := spec.Validate(p.b.Mod); err != nil {
		return err
	}
	at := p.b.Now()
	slot := spec.SlotTime(p.b.Mod.Timing)
	sched := spec.Schedule()

	for idx, ag := range sched {
		if ag.Acts > 0 {
			p.restore(ag.Row, at+dram.TimePS(idx)*slot)
		}
	}
	for _, ve := range p.b.Mod.HammerExposures(at, spec, p.prevOff) {
		// Victim exposure is zero after prepare, so the closed-form delta —
		// accumulated inside HammerExposures in executor order — is the
		// row's exposure, bit for bit.
		cp := ve.Exp
		p.exp[ve.Row] = &cp
	}
	for _, ag := range sched {
		if ag.Acts == 0 {
			continue
		}
		lastAct := at + dram.TimePS(ag.LastSlot)*slot
		if pe := p.exp[ag.Row]; pe != nil {
			*pe = dram.Exposure{}
		}
		p.lastRestore[ag.Row] = lastAct
		p.lastPre[ag.Row] = lastAct + onTime
	}
	p.b.Advance(dram.TimePS(count) * slot)
	return nil
}

// check fetches every victim virtually, in order: materialize pending
// disturbance, diff against the expected fill, and deliver the fetch's own
// activation disturbance to the neighborhood — the self-disturbance the
// real check stream's ACT/PRE pairs cause, which later-checked victims
// observe.
func (p *prober) check(s site) []bender.Flip {
	t := p.b.Mod.Timing
	expect := p.cfg.Pattern.VictimByte()
	var all []bender.Flip
	for _, v := range s.victims {
		now := p.b.Now()
		p.restore(v, now)
		// A row still holding its expected fill byte cannot diff; only rows
		// whose scratch was dirtied by materialized flips need the scan.
		if p.fill[v] != int(expect) {
			for i, got := range p.scratch[v] {
				diff := got ^ expect
				if diff == 0 {
					continue
				}
				for bit := uint8(0); bit < 8; bit++ {
					if diff&(1<<bit) != 0 {
						all = append(all, bender.Flip{
							LogicalRow: v, // physical coordinates, as site.check reports
							Byte:       i,
							Bit:        bit,
							From:       expect&(1<<bit) != 0,
						})
					}
				}
			}
		}
		// The fetch's PRE delivers one tRAS activation's disturbance,
		// through the shared accrual walk (dram/accrual.go).
		preAt := now + t.TRAS
		off := p.prevOff(v, now)
		p.b.Mod.AccrueOne(v, t.TRAS, off, p.b.Mod.TemperatureAt(preAt), p.expOf)
		p.lastPre[v] = preAt
		p.b.Advance(t.TRAS + t.TRP)
	}
	return all
}

// probe runs one full prepare → hammer → check measurement.
func (p *prober) probe(s site, count int, onTime, extraOff dram.TimePS) ([]bender.Flip, error) {
	p.prepare(s)
	if err := p.hammer(s, count, onTime, extraOff); err != nil {
		return nil, err
	}
	return p.check(s), nil
}
