package sim

import (
	"bytes"
	"math/rand"
	"testing"
)

// unitUntil reads one unit's horizon out of the group list.
func unitUntil(p *Pool, unit int) Time {
	return Time(p.groups[p.groupOf(unit)].key >> p.bshift)
}

// checkGroups verifies the group list's structure: keys strictly
// ascending, every group non-empty and inside its block, and every unit
// in exactly one group.
func checkGroups(t *testing.T, p *Pool) {
	t.Helper()
	seen := make([]uint64, (p.n+63)/64)
	for i := p.lo; i < p.hi; i++ {
		g := p.groups[i]
		if g.mask == 0 {
			t.Fatalf("group %d is empty", i)
		}
		if i > p.lo && p.groups[i-1].key >= g.key {
			t.Fatalf("group keys out of order at %d: %d then %d", i, p.groups[i-1].key, g.key)
		}
		block := g.key & p.bmask
		if int(block) >= len(seen) || seen[block]&g.mask != 0 {
			t.Fatalf("group %d (block %d) overlaps another group", i, block)
		}
		seen[block] |= g.mask
	}
	for b := range seen {
		want := ^uint64(0)
		if r := p.n - 64*b; r < 64 {
			want = 1<<r - 1
		}
		if seen[b] != want {
			t.Fatalf("block %d holds units %#x, want %#x", b, seen[b], want)
		}
	}
}

// comparePools requires got to match the heap oracle in every observable
// and in every unit's horizon.
func comparePools(t *testing.T, ref *heapPool, got *Pool, now Time) {
	t.Helper()
	checkGroups(t, got)
	if ref.busy != got.Busy() || ref.acquires != got.Acquires() {
		t.Fatalf("busy %d, oracle %d; acquires %d, oracle %d", got.Busy(), ref.busy, got.Acquires(), ref.acquires)
	}
	if ref.NextFree() != got.NextFree() {
		t.Fatalf("next-free %d, oracle %d", got.NextFree(), ref.NextFree())
	}
	for _, at := range []Time{now, now - 1, now + 3} {
		if a, b := got.InFlightAt(at), ref.InFlightAt(at); a != b {
			t.Fatalf("in-flight at %d: %d, oracle %d", at, a, b)
		}
	}
	for u, want := range ref.until {
		if have := unitUntil(got, u); have != want {
			t.Fatalf("unit %d until %d, oracle %d", u, have, want)
		}
	}
}

// TestPoolGrantsEarliestFreeUnit pins the arbitration rule: the grant
// goes to the smallest stored (until, unit), not to the lowest-index
// unit that is free at now.
func TestPoolGrantsEarliestFreeUnit(t *testing.T) {
	p := NewPool("x", 12)
	ref := newHeapPool("x", 12)
	for _, d := range []Time{30, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 29} {
		p.Acquire(0, d)
		ref.Acquire(0, d)
	}
	if unitUntil(p, 0) != 30 || unitUntil(p, 11) != 29 {
		t.Fatalf("setup: unit 0 until %d, unit 11 until %d", unitUntil(p, 0), unitUntil(p, 11))
	}
	if s := p.Acquire(30, 5); s != 30 {
		t.Fatalf("start %d, want 30", s)
	}
	ref.Acquire(30, 5)
	if unitUntil(p, 11) != 35 || unitUntil(p, 0) != 30 {
		t.Fatalf("granted the wrong unit: unit 0 until %d, unit 11 until %d", unitUntil(p, 0), unitUntil(p, 11))
	}
	comparePools(t, ref, p, 30)
}

// TestPoolAcquireBatchEquivalence checks AcquireBatch against k
// successive Acquire calls on the heap oracle, across pool sizes
// (including one unit and more than 64), starts that go backwards,
// zero durations, and batch sizes on both sides of the pool size.
func TestPoolAcquireBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, units := range []int{1, 2, 3, 8, 12, 24, 64, 70} {
		ref := newHeapPool("ref", units)
		bat := NewPool("bat", units)
		var now Time
		for step := 0; step < 400; step++ {
			if rng.Intn(20) == 0 {
				now -= Time(rng.Intn(12))
			} else {
				now += Time(rng.Intn(12))
			}
			dur := Time(rng.Intn(10))
			k := 1 + rng.Intn(40)
			var refDone Time
			for i := 0; i < k; i++ {
				refDone = ref.Acquire(now, dur) + dur
			}
			if batDone := bat.AcquireBatch(now, dur, k); batDone != refDone {
				t.Fatalf("units=%d step=%d: batch done %d, sequential done %d", units, step, batDone, refDone)
			}
			comparePools(t, ref, bat, now)
			// Interleave a plain Acquire so the single path meets every
			// state the batch path leaves.
			if a, b := ref.Acquire(now, dur), bat.Acquire(now, dur); a != b {
				t.Fatalf("units=%d step=%d: interleaved acquire %d vs %d", units, step, b, a)
			}
			comparePools(t, ref, bat, now)
		}
	}
}

// stepPerturb is a deterministic perturber: it lengthens every third
// reservation by two cycles.
type stepPerturb struct{ n int }

func (s *stepPerturb) ServiceTime(_ string, dur Time) Time {
	s.n++
	if s.n%3 == 0 {
		return dur + 2
	}
	return -1
}

// FuzzPoolEquivalence drives the group pool and the heap oracle with the
// same fuzz-derived program — Acquire, AcquireBatch, AcquireDynamic and
// ReleaseAt on 1 to 70 units, a clock that sometimes runs backwards,
// zero and changing durations, and perturbed service times — and
// compares every start, counter, gauge and unit horizon after each op.
func FuzzPoolEquivalence(f *testing.F) {
	f.Add([]byte{11, 0, 0, 1, 18, 0, 30, 1, 18, 5, 200, 1, 18})
	f.Add([]byte{23, 4, 4, 1, 17, 0, 3, 1, 40, 5, 1, 0, 0, 1, 20})
	f.Add([]byte{7, 2, 5, 2, 0, 3, 9, 0, 0, 3, 1, 2, 3, 3, 100})
	f.Add([]byte{69, 1, 70, 4, 0, 1, 140, 5, 9, 1, 71, 3, 66, 0, 0})
	f.Add([]byte{0, 1, 7, 4, 0, 1, 7, 6, 0, 1, 7, 0, 1})
	f.Add(append([]byte{11}, bytes.Repeat([]byte{0, 1, 5, 2, 1, 18, 0, 9}, 16)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 4096 {
			return
		}
		units := 1 + int(data[0])%70
		ref := newHeapPool("p", units)
		got := NewPool("p", units)
		now, dur := Time(0), Time(1)
		var dynamic []int
		for i := 1; i+1 < len(data); i += 2 {
			op, val := data[i], Time(data[i+1])
			switch op % 7 {
			case 0: // clock: mostly forward, sometimes backward
				if val%8 == 0 {
					now = max(now-val/8, 0)
				} else {
					now += val % 16
				}
			case 1:
				if a, b := ref.Acquire(now, dur), got.Acquire(now, dur); a != b {
					t.Fatalf("op %d: Acquire start %d, oracle %d", i, b, a)
				}
			case 2:
				k := int(val)
				var want Time
				if k == 0 {
					want = now
				}
				for j := 0; j < k; j++ {
					want = ref.Acquire(now, dur) + dur
				}
				if have := got.AcquireBatch(now, dur, k); have != want {
					t.Fatalf("op %d: AcquireBatch(k=%d) done %d, oracle %d", i, k, have, want)
				}
			case 3:
				ru, rs := ref.AcquireDynamic(now)
				gu, gs := got.AcquireDynamic(now)
				if ru != gu || rs != gs {
					t.Fatalf("op %d: AcquireDynamic unit %d at %d, oracle unit %d at %d", i, gu, gs, ru, rs)
				}
				dynamic = append(dynamic, gu)
			case 4: // release a dynamic reservation, or any unit
				u := int(val) % units
				if len(dynamic) > 0 {
					u, dynamic = dynamic[0], dynamic[1:]
				}
				at := now + val%24 - 4
				ref.ReleaseAt(u, at)
				got.ReleaseAt(u, at)
			case 5: // change the duration, zero included
				dur = val % 6
			case 6: // toggle identical perturbers on both pools
				if got.perturb == nil {
					ref.perturb, got.perturb = &stepPerturb{}, &stepPerturb{}
				} else {
					ref.perturb, got.perturb = nil, nil
				}
			}
			comparePools(t, ref, got, now)
		}
	})
}
