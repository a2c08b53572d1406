package dram

import (
	"math"
	"testing"
	"testing/quick"
)

// The module's increment table (accrual.go) replaces one Disturber call
// per activation and distance with one per distinct (onTime, offTime,
// tempC) key. These tests hold every accrual path against a reference
// that calls the Disturber per distance directly, bit for bit, and count
// the kernel evaluations the table saves.

// refModule is the table-free reference: exposures and per-row PRE
// history of one module, accrued through direct Disturber calls in the
// shared victim order.
type refModule struct {
	dist    Disturber
	timing  Timing
	rows    int
	exp     map[[2]int]*Exposure
	lastPre map[[2]int]TimePS
	temps   []tempPoint
}

func newRefModule(m *Module) *refModule {
	return &refModule{
		dist: m.dist, timing: m.Timing, rows: m.Geo.RowsPerBank,
		exp:     map[[2]int]*Exposure{},
		lastPre: map[[2]int]TimePS{},
		temps:   []tempPoint{{at: 0, tempC: m.TemperatureAt(0)}},
	}
}

func (r *refModule) setTemp(at TimePS, tempC float64) {
	r.temps = append(r.temps, tempPoint{at: at, tempC: tempC})
}

func (r *refModule) tempAt(at TimePS) float64 {
	t := r.temps[0].tempC
	for _, p := range r.temps {
		if p.at <= at {
			t = p.tempC
		}
	}
	return t
}

func (r *refModule) expOf(bank, row int) *Exposure {
	k := [2]int{bank, row}
	if r.exp[k] == nil {
		r.exp[k] = &Exposure{}
	}
	return r.exp[k]
}

func (r *refModule) offBefore(bank, row int, actAt TimePS) TimePS {
	pre, ok := r.lastPre[[2]int{bank, row}]
	if !ok || actAt-pre > RecoveredOff {
		return RecoveredOff
	}
	return actAt - pre
}

// accrue is the reference accrual walk: n activations of aggRow, every
// increment fetched from the Disturber itself.
func (r *refModule) accrue(aggRow int, on, off TimePS, tempC float64, n int, skip map[int]bool, to func(int) *Exposure) {
	for d := 1; d <= BlastRadius; d++ {
		h := r.dist.HammerIncrement(on, off, tempC, d) * float64(n)
		p := r.dist.PressIncrement(on, off, tempC, d) * float64(n)
		if h == 0 && p == 0 {
			continue
		}
		if v := aggRow - d; v >= 0 && !skip[v] {
			e := to(v)
			e.HammerAbove += h
			e.PressAbove += p
		}
		if v := aggRow + d; v < r.rows && !skip[v] {
			e := to(v)
			e.HammerBelow += h
			e.PressBelow += p
		}
	}
}

func (r *refModule) rowsOf(bank int) func(int) *Exposure {
	return func(v int) *Exposure { return r.expOf(bank, v) }
}

// playTrace mirrors PlayTrace: each ACT restores (clears) its row, each
// PRE accrues one activation.
func (r *refModule) playTrace(at TimePS, bank int, slots []Slot) TimePS {
	now := at
	for _, s := range slots {
		*r.expOf(bank, s.Row) = Exposure{}
		preAt := now + s.OnTime
		r.accrue(s.Row, s.OnTime, r.offBefore(bank, s.Row, now), r.tempAt(preAt), 1, nil, r.rowsOf(bank))
		r.lastPre[[2]int{bank, s.Row}] = preAt
		now += s.Duration(r.timing)
	}
	return now
}

// hammerBatch mirrors HammerBatch phase by phase.
func (r *refModule) hammerBatch(at TimePS, spec HammerSpec) TimePS {
	sched := spec.Schedule()
	isAgg := map[int]bool{}
	for _, ag := range sched {
		if ag.Acts > 0 {
			isAgg[ag.Row] = true
			*r.expOf(spec.Bank, ag.Row) = Exposure{}
		}
	}
	slot, steady, tempC := spec.SlotTime(r.timing), spec.SteadyOff(r.timing), r.tempAt(at)
	for idx, ag := range sched {
		if ag.Acts == 0 {
			continue
		}
		first := r.offBefore(spec.Bank, ag.Row, at+TimePS(idx)*slot)
		r.accrue(ag.Row, spec.OnTime, first, tempC, 1, isAgg, r.rowsOf(spec.Bank))
		if ag.Acts > 1 {
			r.accrue(ag.Row, spec.OnTime, steady, tempC, ag.Acts-1, isAgg, r.rowsOf(spec.Bank))
		}
	}
	for row := range isAgg {
		*r.expOf(spec.Bank, row) = Exposure{}
	}
	n := len(spec.Rows)
	for s := max(spec.Count-n, 0); s < spec.Count; s++ {
		actIdx := s % n
		actRow := spec.Rows[actIdx]
		off := steady
		if s == actIdx {
			off = r.offBefore(spec.Bank, actRow, at+TimePS(s)*slot)
		}
		for j, victim := range spec.Rows {
			d := victim - actRow
			if d < 0 {
				d = -d
			}
			if j == actIdx || sched[j].LastSlot >= s || sched[j].Acts == 0 || d == 0 || d > BlastRadius {
				continue
			}
			e := r.expOf(spec.Bank, victim)
			h := r.dist.HammerIncrement(spec.OnTime, off, tempC, d)
			p := r.dist.PressIncrement(spec.OnTime, off, tempC, d)
			if actRow > victim {
				e.HammerAbove += h
				e.PressAbove += p
			} else {
				e.HammerBelow += h
				e.PressBelow += p
			}
		}
	}
	for _, ag := range sched {
		if ag.Acts > 0 {
			r.lastPre[[2]int{spec.Bank, ag.Row}] = at + TimePS(ag.LastSlot)*slot + spec.OnTime
		}
	}
	return at + TimePS(spec.Count)*slot
}

// hammerExposures mirrors HammerExposures with the module's PRE history.
func (r *refModule) hammerExposures(at TimePS, spec HammerSpec) map[int]Exposure {
	sched := spec.Schedule()
	isAgg := map[int]bool{}
	for _, ag := range sched {
		if ag.Acts > 0 {
			isAgg[ag.Row] = true
		}
	}
	deltas := map[int]*Exposure{}
	to := func(v int) *Exposure {
		if deltas[v] == nil {
			deltas[v] = &Exposure{}
		}
		return deltas[v]
	}
	slot, steady, tempC := spec.SlotTime(r.timing), spec.SteadyOff(r.timing), r.tempAt(at)
	for idx, ag := range sched {
		if ag.Acts == 0 {
			continue
		}
		r.accrue(ag.Row, spec.OnTime, r.offBefore(spec.Bank, ag.Row, at+TimePS(idx)*slot), tempC, 1, isAgg, to)
		if ag.Acts > 1 {
			r.accrue(ag.Row, spec.OnTime, steady, tempC, ag.Acts-1, isAgg, to)
		}
	}
	out := map[int]Exposure{}
	for v, e := range deltas {
		out[v] = *e
	}
	return out
}

// sameBits reports whether two exposures are equal bit for bit.
func sameBits(a, b Exposure) bool {
	return math.Float64bits(a.HammerAbove) == math.Float64bits(b.HammerAbove) &&
		math.Float64bits(a.HammerBelow) == math.Float64bits(b.HammerBelow) &&
		math.Float64bits(a.PressAbove) == math.Float64bits(b.PressAbove) &&
		math.Float64bits(a.PressBelow) == math.Float64bits(b.PressBelow) &&
		math.Float64bits(a.Retention) == math.Float64bits(b.Retention)
}

// collidingOnTimes returns two row-open times whose keys (with the given
// off time and temperature) share an increment-table entry, so
// alternating them evicts on every lookup.
func collidingOnTimes(off TimePS, tempC float64) (TimePS, TimePS) {
	tb := math.Float64bits(tempC)
	first := map[uint64]TimePS{}
	for on := 36 * Nanosecond; ; on += Nanosecond {
		slot := incSlot(on, off, tb)
		if prev, ok := first[slot]; ok {
			return prev, on
		}
		first[slot] = on
	}
}

// TestIncrementTableMatchesDirectKernels plays random mixes of traces,
// hammer loops and temperature steps through a module and the table-free
// reference, and demands every row's exposure agree bit for bit after
// each step; HammerExposures and AccrueOne are checked against the
// reference at every step too. Slot open times include a pair of keys
// that collide in the table.
func TestIncrementTableMatchesDirectKernels(t *testing.T) {
	onA, onB := collidingOnTimes(RecoveredOff, 50)
	f := func(seed uint64) bool {
		m := testModule(probeDisturber{})
		ref := newRefModule(m)
		tm := m.Timing
		rng := seed | 1
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		onTimes := []TimePS{tm.TRAS, onA, onB, tm.TRAS + 700*Nanosecond, 2 * Microsecond}
		now := TimePS(0)
		for step := 0; step < 12; step++ {
			bank := next(2)
			switch next(3) {
			case 0: // random trace on a handful of rows
				slots := make([]Slot, 1+next(40))
				for i := range slots {
					slots[i] = Slot{
						Row:      20 + next(12),
						OnTime:   onTimes[next(len(onTimes))],
						ExtraOff: TimePS(next(3)) * 250 * Nanosecond,
					}
				}
				end, err := m.PlayTrace(now, bank, len(slots), func(i int) Slot { return slots[i] }, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.playTrace(now, bank, slots); end != want {
					t.Fatalf("trace end %d, reference %d", end, want)
				}
				now = end
			case 1: // hammer loop, preceded by the pure evaluation of it
				spec := HammerSpec{
					Bank:     bank,
					Rows:     []int{20 + next(12)},
					Count:    1 + next(500),
					OnTime:   onTimes[next(len(onTimes))],
					ExtraOff: TimePS(next(3)) * 100 * Nanosecond,
				}
				if next(2) == 0 {
					spec.Rows = append(spec.Rows, spec.Rows[0]+2)
				}
				want := ref.hammerExposures(now, spec)
				got := m.HammerExposures(now, spec, nil)
				if len(got) != len(want) {
					t.Logf("seed %d: HammerExposures %d victims, reference %d", seed, len(got), len(want))
					return false
				}
				for _, ve := range got {
					if !sameBits(ve.Exp, want[ve.Row]) {
						t.Logf("seed %d: HammerExposures row %d = %+v, reference %+v", seed, ve.Row, ve.Exp, want[ve.Row])
						return false
					}
				}
				end, err := m.HammerBatch(now, spec)
				if err != nil {
					t.Fatal(err)
				}
				ref.hammerBatch(now, spec)
				now = end
			case 2: // mid-trace temperature step
				tempC := 40 + float64(next(5))*10
				m.SetTemperature(now, tempC)
				ref.setTemp(now, tempC)
			}
			// AccrueOne into an overlay, alternating the colliding keys.
			for i, on := range []TimePS{onA, onB, onA, tm.TRAS} {
				got, want := map[int]*Exposure{}, map[int]*Exposure{}
				overlay := func(into map[int]*Exposure) func(int) *Exposure {
					return func(v int) *Exposure {
						if into[v] == nil {
							into[v] = &Exposure{}
						}
						return into[v]
					}
				}
				tempC := m.TemperatureAt(now)
				m.AccrueOne(30+i, on, RecoveredOff, tempC, overlay(got))
				ref.accrue(30+i, on, RecoveredOff, tempC, 1, nil, overlay(want))
				if len(got) != len(want) {
					t.Logf("seed %d: AccrueOne reached %d victims, reference %d", seed, len(got), len(want))
					return false
				}
				for v, e := range want {
					if got[v] == nil || !sameBits(*got[v], *e) {
						t.Logf("seed %d: AccrueOne victim %d differs", seed, v)
						return false
					}
				}
			}
			for b := 0; b < m.Geo.Banks; b++ {
				for row := 0; row < m.Geo.RowsPerBank; row++ {
					want := Exposure{}
					if e := ref.exp[[2]int{b, row}]; e != nil {
						want = *e
					}
					if got := m.PendingExposure(b, row); !sameBits(got, want) {
						t.Logf("seed %d step %d: bank %d row %d = %+v, reference %+v", seed, step, b, row, got, want)
						return false
					}
				}
			}
			now += tm.TRP
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// countingDisturber counts kernel evaluations and the distinct keys they
// were asked for.
type countingDisturber struct {
	probeDisturber
	hammer, press int
	keys          map[[3]uint64]bool
}

func (c *countingDisturber) HammerIncrement(on, off TimePS, tempC float64, d int) float64 {
	c.hammer++
	c.keys[[3]uint64{uint64(on), uint64(off), math.Float64bits(tempC)}] = true
	return c.probeDisturber.HammerIncrement(on, off, tempC, d)
}

func (c *countingDisturber) PressIncrement(on, off TimePS, tempC float64, d int) float64 {
	c.press++
	return c.probeDisturber.PressIncrement(on, off, tempC, d)
}

// TestIncrementTableKernelEvaluations is the deterministic work count of
// the table: a periodic double-sided trace of N activations evaluates
// each kernel at most (distinct keys × BlastRadius) times, where the
// per-activation path evaluated it N × BlastRadius times. Alternating two
// colliding keys, by contrast, refills the entry on every lookup.
func TestIncrementTableKernelEvaluations(t *testing.T) {
	const n = 20000
	c := &countingDisturber{keys: map[[3]uint64]bool{}}
	m := NewModule(DefaultGeometry(), DDR4(), 50, c)
	on := m.Timing.TRAS + 164*Nanosecond
	_, err := m.PlayTrace(0, 0, n, func(i int) Slot {
		return Slot{Row: 100 + 2*(i%2), OnTime: on, ExtraOff: 5 * Nanosecond}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := len(c.keys)
	if keys != 2 { // the first activation's recovered off time, then steady state
		t.Fatalf("periodic trace used %d distinct keys, want 2", keys)
	}
	if limit := keys * BlastRadius; c.hammer > limit || c.press > limit {
		t.Fatalf("%d activations evaluated HammerIncrement %d and PressIncrement %d times, want at most %d each (per activation: %d)",
			n, c.hammer, c.press, limit, n*BlastRadius)
	}
	t.Logf("%d activations, %d distinct keys: %d HammerIncrement evaluations (per-activation path: %d)", n, keys, c.hammer, n*BlastRadius)

	onA, onB := collidingOnTimes(RecoveredOff, 50)
	c2 := &countingDisturber{keys: map[[3]uint64]bool{}}
	m2 := NewModule(DefaultGeometry(), DDR4(), 50, c2)
	const lookups = 10
	for i := 0; i < lookups; i++ {
		on := []TimePS{onA, onB}[i%2]
		m2.AccrueOne(100, on, RecoveredOff, 50, func(int) *Exposure { return &Exposure{} })
	}
	if c2.hammer != lookups*BlastRadius {
		t.Fatalf("alternating colliding keys evaluated %d times, want a refill on every lookup (%d)", c2.hammer, lookups*BlastRadius)
	}
}

// TestIncrementTableSurvivesRollback rolls a module back past table fills
// and replays: the table is a pure cache outside the journal, so the
// replay must reproduce the first pass bit for bit.
func TestIncrementTableSurvivesRollback(t *testing.T) {
	m := testModule(probeDisturber{})
	slot := func(i int) Slot {
		return Slot{Row: 30 + 2*(i%3), OnTime: m.Timing.TRAS + TimePS(i%4)*300*Nanosecond}
	}
	m.Checkpoint()
	if _, err := m.PlayTrace(0, 0, 200, slot, nil); err != nil {
		t.Fatal(err)
	}
	first := make([]Exposure, m.Geo.RowsPerBank)
	for row := range first {
		first[row] = m.PendingExposure(0, row)
	}
	m.Rollback()
	if _, err := m.PlayTrace(0, 0, 200, slot, nil); err != nil {
		t.Fatal(err)
	}
	for row, want := range first {
		if got := m.PendingExposure(0, row); !sameBits(got, want) {
			t.Fatalf("row %d after rollback and replay = %+v, first pass %+v", row, got, want)
		}
	}
}
