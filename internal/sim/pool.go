package sim

import "math/bits"

// Pool models a bank of identical functional units (intersection units,
// dividers, DRAM channels, NoC links, pipeline stages). Acquire reserves
// a unit for a duration and returns the start time; the pool
// accumulates busy cycles for utilization reporting.
//
// Pools are "busy-until" abstractions: reservations are made greedily in
// call order, which matches an in-order arbiter granting requests as they
// arrive. Each request goes to the unit with the smallest (until, unit)
// pair — the earliest stored horizon wins, and the unit index only breaks
// equal horizons — and starts at that horizon clamped to now. This is not
// "the lowest-index unit free at now": for a request at 30, a unit free
// since 29 wins over unit 0 free since 30 (TestPoolGrantsEarliestFreeUnit).
//
// Units that share a horizon are kept together as one group: a bitmask
// over a block of 64 units, keyed by until<<bshift | block. The groups
// are sorted by key, so the winner is always the lowest bit of the first
// group, and bit order inside a group is unit order. Under the simulator's
// traffic — one fixed duration per pool and start times that rarely go
// backwards — a re-keyed unit lands on or after the last group, so
// Acquire is O(1), and AcquireBatch moves whole tie groups at once
// instead of walking a heap once per reservation.
type Pool struct {
	name string
	n    int
	// groups[lo:hi] are the non-empty groups in ascending key order;
	// every unit's bit is set in exactly one of them. The slice holds 2n
	// slots, so the tail can grow by at least n before it is compacted.
	groups []poolGroup
	lo, hi int
	bshift uint  // block bits in a group key: bits.Len(blocks-1)
	bmask  int64 // 1<<bshift - 1

	busy     Time
	acquires int64
	perturb  Perturber
}

// poolGroup is the set of units of one 64-unit block that are free from
// the same horizon on.
type poolGroup struct {
	key  int64  // until<<bshift | block
	mask uint64 // bit b set: unit block*64+b
}

// NewPool creates a pool of n units.
func NewPool(name string, n int) *Pool {
	if n < 1 {
		panic("sim: pool needs at least one unit")
	}
	blocks := (n + 63) / 64
	p := &Pool{name: name, n: n, groups: make([]poolGroup, 2*n), hi: blocks}
	p.bshift = uint(bits.Len(uint(blocks - 1)))
	p.bmask = 1<<p.bshift - 1
	for b := range blocks {
		m := ^uint64(0)
		if r := n - 64*b; r < 64 {
			m = 1<<r - 1
		}
		p.groups[b] = poolGroup{key: int64(b), mask: m}
	}
	return p
}

// reserve moves the units in set, a subset of the first group, to the
// horizon until.
func (p *Pool) reserve(set uint64, until Time) {
	g := &p.groups[p.lo]
	block := g.key & p.bmask
	if g.mask &^= set; g.mask == 0 {
		p.lo++
	}
	p.insert(int64(until)<<p.bshift|block, set)
}

// insert adds the units in set under key, joining an existing group with
// that key or opening a new one at its sorted position.
func (p *Pool) insert(key int64, set uint64) {
	hi := p.hi
	if hi == p.lo {
		p.lo, hi = 0, 0
	} else if t := &p.groups[hi-1]; t.key >= key {
		if t.key == key {
			t.mask |= set
			return
		}
		p.insertBefore(key, set)
		return
	}
	if hi == len(p.groups) {
		hi = p.compact()
	}
	p.groups[hi] = poolGroup{key, set}
	p.hi = hi + 1
}

// insertBefore is insert's slow path, for a key below the last group's:
// a start that went backwards, a changed duration, or a dynamic release
// that ends before another unit's horizon.
func (p *Pool) insertBefore(key int64, set uint64) {
	i := p.hi - 1
	for i > p.lo && p.groups[i-1].key >= key {
		i--
	}
	if p.groups[i].key == key {
		p.groups[i].mask |= set
		return
	}
	if i == p.lo && p.lo > 0 {
		p.lo--
		p.groups[p.lo] = poolGroup{key, set}
		return
	}
	if p.hi == len(p.groups) {
		i -= p.lo
		p.compact()
	}
	copy(p.groups[i+1:p.hi+1], p.groups[i:p.hi])
	p.groups[i] = poolGroup{key, set}
	p.hi++
}

// compact moves the live groups to the front of the slice and returns
// the new hi. Live groups never exceed n, so it frees at least n slots.
func (p *Pool) compact() int {
	p.hi = copy(p.groups, p.groups[p.lo:p.hi])
	p.lo = 0
	return p.hi
}

// groupOf returns the index of the group holding unit.
func (p *Pool) groupOf(unit int) int {
	block, bit := int64(unit>>6), uint64(1)<<(unit&63)
	i := p.hi - 1
	for p.groups[i].mask&bit == 0 || p.groups[i].key&p.bmask != block {
		i--
	}
	return i
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Size returns the number of units.
func (p *Pool) Size() int { return p.n }

// SetPerturb installs a service-time perturber (nil removes it). Used by
// the chaos harness to inject deterministic latency jitter.
func (p *Pool) SetPerturb(pr Perturber) { p.perturb = pr }

// Acquire reserves one unit for dur cycles starting no earlier than now,
// returning the reservation's start time (start+dur is the completion).
func (p *Pool) Acquire(now Time, dur Time) Time {
	if p.perturb != nil && dur > 0 {
		if d := p.perturb.ServiceTime(p.name, dur); d >= 0 {
			dur = d
		}
	}
	p.busy += dur
	p.acquires++
	g := &p.groups[p.lo]
	until := Time(g.key >> p.bshift)
	start := max(until, now)
	if p.n == 1 {
		// A single unit is always the one group, at index 0.
		g.key = int64(start + dur)
	} else if start+dur != until {
		p.reserve(g.mask&-g.mask, start+dur)
	}
	return start
}

// AcquireBatch makes k identical reservations of dur cycles each
// starting no earlier than now — exactly equivalent to k successive
// Acquire calls — and returns the latest completion time (now when k is
// zero). The PE's divider and IU stages reserve one slot per input line
// / segment pair at a common issue time, so the batch form replaces the
// simulator's hottest per-item loop.
//
// k successive Acquires drain the first group in unit order, and each
// re-keyed unit lands past that group's horizon, so the batch moves the
// first group's lowest units as one set until k reservations are made.
func (p *Pool) AcquireBatch(now Time, dur Time, k int) Time {
	if k <= 0 {
		return now
	}
	if p.perturb != nil {
		// Perturbed durations vary per reservation and must consume the
		// chaos RNG stream one draw per reservation: take the exact
		// per-call path. Starts are non-decreasing (horizons only
		// grow), so the last start is the latest; completions use the
		// nominal duration, as the per-item loop did.
		var start Time
		for i := 0; i < k; i++ {
			start = p.Acquire(now, dur)
		}
		return start + dur
	}
	p.busy += Time(k) * dur
	p.acquires += int64(k)
	var start Time
	for {
		g := &p.groups[p.lo]
		until := Time(g.key >> p.bshift)
		start = max(until, now)
		if start+dur == until {
			// A zero-length reservation on a unit already free at now
			// leaves its horizon where it is: every remaining one
			// lands on the same unit.
			break
		}
		if p.hi-p.lo == 1 && k >= p.n {
			// One group holds every unit (n <= 64): each whole round
			// of n reservations shifts it by dur.
			r := k / p.n
			start += Time(r-1) * dur
			g.key = int64(start + dur)
			if k -= r * p.n; k == 0 {
				break
			}
			continue
		}
		set := g.mask
		if c := bits.OnesCount64(set); c < k {
			k -= c
		} else {
			rest := set
			for ; k > 0; k-- {
				rest &= rest - 1
			}
			set &^= rest
		}
		p.reserve(set, start+dur)
		if k == 0 {
			break
		}
	}
	return start + dur
}

// AcquireDynamic reserves the earliest-available unit starting no earlier
// than now, for a duration the caller does not yet know; the caller must
// finish the reservation with ReleaseAt. Used for MSHR-style resources
// whose hold time depends on a downstream access.
func (p *Pool) AcquireDynamic(now Time) (unit int, start Time) {
	g := &p.groups[p.lo]
	low := g.mask & -g.mask
	unit = int(g.key&p.bmask)<<6 | bits.TrailingZeros64(low)
	until := Time(g.key >> p.bshift)
	start = max(until, now)
	if start != until {
		p.reserve(low, start)
	}
	p.acquires++
	return unit, start
}

// ReleaseAt completes a dynamic reservation: the unit stays busy until t.
func (p *Pool) ReleaseAt(unit int, t Time) {
	i := p.groupOf(unit)
	g := &p.groups[i]
	until := Time(g.key >> p.bshift)
	if t <= until {
		return
	}
	p.busy += t - until
	bit := uint64(1) << (unit & 63)
	if g.mask &^= bit; g.mask == 0 {
		if i == p.lo {
			p.lo++
		} else {
			copy(p.groups[i:p.hi-1], p.groups[i+1:p.hi])
			p.hi--
		}
	}
	p.insert(int64(t)<<p.bshift|int64(unit>>6), bit)
}

// InFlightAt reports how many units are still reserved past `now` — the
// instantaneous queue depth a telemetry gauge sees at an epoch boundary.
func (p *Pool) InFlightAt(now Time) int {
	n := 0
	for i := p.hi - 1; i >= p.lo && Time(p.groups[i].key>>p.bshift) > now; i-- {
		n += bits.OnesCount64(p.groups[i].mask)
	}
	return n
}

// NextFree reports the earliest time any unit becomes available.
func (p *Pool) NextFree() Time {
	return Time(p.groups[p.lo].key >> p.bshift)
}

// Busy returns the accumulated busy cycles across all units.
func (p *Pool) Busy() Time { return p.busy }

// Acquires reports the total reservations made (hardware-counter export).
func (p *Pool) Acquires() int64 { return p.acquires }

// Utilization returns busy cycles divided by capacity over elapsed cycles.
func (p *Pool) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(p.busy) / (float64(elapsed) * float64(p.n))
}

// Semaphore is a counting resource with an explicit waiter queue, used for
// resources held across an unknown span (execution slots, SPM lines,
// address tokens). Waiters are woken FIFO when capacity frees.
type Semaphore struct {
	name    string
	cap     int
	inUse   int
	waiters []semWaiter

	// occupancy integral for average-utilization reporting
	lastChange   Time
	levelCycles  Time
	peakInUse    int
	acquireCount int64
	// units conservation (acquired - released must equal inUse)
	unitsAcquired int64
	unitsReleased int64
}

// NewSemaphore creates a semaphore with capacity c.
func NewSemaphore(name string, c int) *Semaphore {
	return &Semaphore{name: name, cap: c}
}

// Name returns the semaphore's name.
func (s *Semaphore) Name() string { return s.name }

// Cap returns the capacity.
func (s *Semaphore) Cap() int { return s.cap }

// SetCap adjusts capacity (used by dynamic token tuning); it does not wake
// waiters by itself — callers should invoke Kick via TryAcquire paths.
func (s *Semaphore) SetCap(c int) { s.cap = c }

// InUse reports the currently held units.
func (s *Semaphore) InUse() int { return s.inUse }

// Available reports free units.
func (s *Semaphore) Available() int { return s.cap - s.inUse }

// TryAcquire acquires n units if available, reporting success.
func (s *Semaphore) TryAcquire(now Time, n int) bool {
	if s.inUse+n > s.cap {
		return false
	}
	s.account(now)
	s.inUse += n
	s.acquireCount++
	s.unitsAcquired += int64(n)
	if s.inUse > s.peakInUse {
		s.peakInUse = s.inUse
	}
	return true
}

// semWaiter is one queued wakeup: the legacy closure form or the
// allocation-free actor form (see Engine.Post for the distinction).
type semWaiter struct {
	fn  func()
	act Actor
	op  int
	arg any
}

func (w *semWaiter) wake() {
	if w.fn != nil {
		w.fn()
		return
	}
	w.act.Act(w.op, w.arg)
}

// AcquireOrWait acquires n units or registers fn to be called (once) when
// any capacity is released. It reports whether the acquisition succeeded
// immediately. Waiters are strictly FIFO: a new request queues behind
// existing waiters even if capacity is currently available, modeling an
// in-order allocation stage (a later small request must not starve an
// earlier large one).
func (s *Semaphore) AcquireOrWait(now Time, n int, fn func()) bool {
	if len(s.waiters) == 0 && s.TryAcquire(now, n) {
		return true
	}
	s.waiters = append(s.waiters, semWaiter{fn: fn})
	return false
}

// AcquireOrWaitActor is AcquireOrWait with the non-capturing callback
// form: on a release, a.Act(op, arg) re-attempts the acquisition. The
// wait registration itself allocates nothing beyond the waiter slot.
func (s *Semaphore) AcquireOrWaitActor(now Time, n int, a Actor, op int, arg any) bool {
	if len(s.waiters) == 0 && s.TryAcquire(now, n) {
		return true
	}
	s.waiters = append(s.waiters, semWaiter{act: a, op: op, arg: arg})
	return false
}

// Release returns n units and wakes all waiters (they re-attempt their
// acquisition; simpler than precise hand-off and equivalent for a
// single-threaded event loop).
func (s *Semaphore) Release(now Time, n int) {
	s.account(now)
	s.inUse -= n
	s.unitsReleased += int64(n)
	if s.inUse < 0 {
		panic("sim: semaphore over-release: " + s.name)
	}
	if len(s.waiters) > 0 {
		ws := s.waiters
		s.waiters = nil
		for i := range ws {
			ws[i].wake()
		}
	}
}

func (s *Semaphore) account(now Time) {
	s.levelCycles += Time(s.inUse) * (now - s.lastChange)
	s.lastChange = now
}

// AvgOccupancy reports the time-averaged units in use through `now`.
func (s *Semaphore) AvgOccupancy(now Time) float64 {
	if now <= 0 {
		return 0
	}
	total := s.levelCycles + Time(s.inUse)*(now-s.lastChange)
	return float64(total) / float64(now)
}

// OccupancyIntegral reports the exact unit-cycle integral through `now`:
// the sum over all holders of (release − acquire) cycles, plus the span
// still held. It is the conservation-law counterpart of AvgOccupancy —
// per-PE slot residency sums must match it to the cycle.
func (s *Semaphore) OccupancyIntegral(now Time) Time {
	return s.levelCycles + Time(s.inUse)*(now-s.lastChange)
}

// UnitsAcquired reports the total units ever granted.
func (s *Semaphore) UnitsAcquired() int64 { return s.unitsAcquired }

// UnitsReleased reports the total units ever returned.
func (s *Semaphore) UnitsReleased() int64 { return s.unitsReleased }

// Peak reports the peak concurrent units held.
func (s *Semaphore) Peak() int { return s.peakInUse }

// Acquires reports the total successful acquisitions.
func (s *Semaphore) Acquires() int64 { return s.acquireCount }

// Waiters reports the queued waiter count (diagnostic).
func (s *Semaphore) Waiters() int { return len(s.waiters) }

// Snap captures the semaphore's state for a diagnostic snapshot.
func (s *Semaphore) Snap() ResourceSnap {
	return ResourceSnap{Name: s.name, Kind: "semaphore", Cap: s.cap, InUse: s.inUse, Waiters: len(s.waiters)}
}
