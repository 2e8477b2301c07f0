package sim

import (
	"math/rand"
	"testing"
)

// benchActor is the allocation-free self-rearming event chain: the
// engine-throughput benchmarks measure pure queue+dispatch cost.
type benchActor struct {
	e         *Engine
	delay     Time
	remaining int
}

func (a *benchActor) Act(int, any) {
	if a.remaining > 0 {
		a.remaining--
		a.e.PostAfter(a.delay, a, 0, nil)
	}
}

func benchEngineThroughput(b *testing.B, delay Time) {
	b.ReportAllocs()
	e := NewEngine()
	a := &benchActor{e: e, delay: delay, remaining: b.N}
	e.PostAfter(delay, a, 0, nil)
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineThroughput measures raw event-processing rate, the
// simulator's fundamental cost unit (short-delay events: the ring path).
func BenchmarkEngineThroughput(b *testing.B) { benchEngineThroughput(b, 1) }

// BenchmarkEngineThroughputFar schedules every event beyond the calendar
// window, forcing the overflow-heap path.
func BenchmarkEngineThroughputFar(b *testing.B) {
	benchEngineThroughput(b, calWindow+1)
}

// BenchmarkEngineThroughputClosure is the legacy closure-scheduling form
// (one closure allocation per event) — the cost the actor form removes.
func BenchmarkEngineThroughputClosure(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var fire func()
	remaining := b.N
	fire = func() {
		if remaining > 0 {
			remaining--
			e.After(1, fire)
		}
	}
	e.After(1, fire)
	b.ResetTimer()
	e.Run()
}

func BenchmarkPoolAcquire(b *testing.B) {
	p := NewPool("x", 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Acquire(Time(i), 4)
	}
}

// BenchmarkPoolAcquireSingle is the 1-unit (pipeline-stage) fast path.
func BenchmarkPoolAcquireSingle(b *testing.B) {
	p := NewPool("x", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Acquire(Time(i), 4)
	}
}

// BenchmarkPoolAcquireBatch reserves IU-bank-sized batches — the PE
// compute stage's pattern (one reservation per segment pair at a common
// issue time).
func BenchmarkPoolAcquireBatch(b *testing.B) {
	p := NewPool("x", 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AcquireBatch(Time(i)*8, 4, 32)
	}
}

// traceLen is the length of the generated pool traces, a power of two
// so the replay loop indexes with a mask rather than a division.
const traceLen = 4096

// poolCall is one recorded pool request: an issue time and a batch size.
type poolCall struct {
	now Time
	k   int
}

// batchTrace generates calls shaped like a PE's divider or IU bank
// traffic: batches of 1 to 35 reservations (mean 18) at one fixed
// duration; about 60% of calls find a unit already free (the start
// clamps to now), about 2% start earlier than the previous call, and
// the rest wait for the earliest unit.
func batchTrace(units int, dur Time) []poolCall {
	rng := rand.New(rand.NewSource(1))
	p := NewPool("trace", units)
	calls := make([]poolCall, traceLen)
	var now Time
	for i := range calls {
		switch r := rng.Intn(100); {
		case r < 2:
			now -= Time(1 + rng.Intn(8))
		case r < 57:
			now = max(now, p.NextFree()) + Time(rng.Intn(4))
		default:
			if nf := p.NextFree(); nf > now {
				now += Time(rng.Int63n(int64(nf - now)))
			}
		}
		calls[i] = poolCall{now, 1 + rng.Intn(35)}
		p.AcquireBatch(now, dur, calls[i].k)
	}
	return calls
}

// benchPoolTrace replays batchTrace(units, dur) in laps; each lap is
// shifted past the previous one so the clock keeps the recorded shape.
func benchPoolTrace(b *testing.B, units int, dur Time) {
	calls := batchTrace(units, dur)
	p := NewPool("x", units)
	lap := calls[len(calls)-1].now + Time(calls[len(calls)-1].k)*dur
	var base Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (traceLen - 1)
		if j == 0 && i > 0 {
			base += lap
		}
		p.AcquireBatch(base+calls[j].now, dur, calls[j].k)
	}
}

// BenchmarkPoolDividerTraffic is the divider bank's measured shape: 12
// units, one cycle per input line.
func BenchmarkPoolDividerTraffic(b *testing.B) {
	benchPoolTrace(b, 12, 1)
}

// BenchmarkPoolIUTraffic is the IU bank's measured shape: 24 units,
// four cycles per segment pair.
func BenchmarkPoolIUTraffic(b *testing.B) {
	benchPoolTrace(b, 24, 4)
}

// BenchmarkPoolNoCTraffic is the NoC link pool's measured shape: single
// one-cycle reservations on 8 links with non-decreasing starts, about a
// third of them in the same cycle as the previous one.
func BenchmarkPoolNoCTraffic(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	nows := make([]Time, traceLen)
	for i := 1; i < len(nows); i++ {
		nows[i] = nows[i-1] + Time(rng.Intn(3))
	}
	lap := nows[len(nows)-1] + 1
	p := NewPool("x", 8)
	var base Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (traceLen - 1)
		if j == 0 && i > 0 {
			base += lap
		}
		p.Acquire(base+nows[j], 1)
	}
}

// BenchmarkPoolAcquireDynamic is the MSHR-style open-ended reservation.
func BenchmarkPoolAcquireDynamic(b *testing.B) {
	p := NewPool("x", 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit, start := p.AcquireDynamic(Time(i))
		p.ReleaseAt(unit, start+20)
	}
}
