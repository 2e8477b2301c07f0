package sim

import "math/bits"

// heapPool is the packed-key min-heap Pool implementation the sorted
// group pool replaced, kept as the differential oracle for
// FuzzPoolEquivalence and TestPoolAcquireBatchEquivalence. Each unit is
// one key until<<shift | unit in a binary min-heap, so the root is the
// unit with the smallest (until, unit) pair — the arbitration rule the
// production pool must reproduce exactly. The oracle for AcquireBatch
// is k successive Acquire calls, the batch's definition.
type heapPool struct {
	until []Time
	keys  []int64 // min-heap of until<<shift | unit
	pos   []int32 // pos[id] = index of id's key in keys
	shift uint
	mask  int64

	busy     Time
	acquires int64
	perturb  Perturber
	name     string
}

func newHeapPool(name string, n int) *heapPool {
	p := &heapPool{name: name, until: make([]Time, n)}
	p.shift = uint(bits.Len(uint(n - 1)))
	p.mask = 1<<p.shift - 1
	p.keys = make([]int64, n)
	p.pos = make([]int32, n)
	for i := range p.keys {
		p.keys[i] = int64(i)
		p.pos[i] = int32(i)
	}
	return p
}

func (p *heapPool) siftDown(i int32) {
	h := p.keys
	n := int32(len(h))
	k := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && h[r] < h[l] {
			c = r
		}
		if h[c] >= k {
			break
		}
		h[i] = h[c]
		p.pos[h[c]&p.mask] = i
		i = c
	}
	h[i] = k
	p.pos[k&p.mask] = i
}

func (p *heapPool) Acquire(now Time, dur Time) Time {
	if p.perturb != nil && dur > 0 {
		if d := p.perturb.ServiceTime(p.name, dur); d >= 0 {
			dur = d
		}
	}
	k := p.keys[0]
	best := k & p.mask
	start := Time(k >> p.shift)
	if start < now {
		start = now
	}
	p.until[best] = start + dur
	p.keys[0] = int64(start+dur)<<p.shift | best
	if len(p.keys) > 1 {
		p.siftDown(0)
	}
	p.busy += dur
	p.acquires++
	return start
}

func (p *heapPool) AcquireDynamic(now Time) (unit int, start Time) {
	k := p.keys[0]
	best := k & p.mask
	start = Time(k >> p.shift)
	if start < now {
		start = now
	}
	p.until[best] = start
	p.keys[0] = int64(start)<<p.shift | best
	if len(p.keys) > 1 {
		p.siftDown(0)
	}
	p.acquires++
	return int(best), start
}

func (p *heapPool) ReleaseAt(unit int, t Time) {
	if t > p.until[unit] {
		p.busy += t - p.until[unit]
		p.until[unit] = t
		p.keys[p.pos[unit]] = int64(t)<<p.shift | int64(unit)
		if len(p.keys) > 1 {
			p.siftDown(p.pos[unit])
		}
	}
}

func (p *heapPool) InFlightAt(now Time) int {
	n := 0
	for _, u := range p.until {
		if u > now {
			n++
		}
	}
	return n
}

func (p *heapPool) NextFree() Time { return Time(p.keys[0] >> p.shift) }
