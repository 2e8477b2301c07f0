package sim

import (
	"bytes"
	"fmt"
	"testing"
)

// orderOracle checks a delivery stream against the definition of the
// engine's order rather than against another queue: every scheduled
// (at, seq) is delivered exactly once, at its own time, and deliveries
// strictly increase in (at, seq).
type orderOracle struct {
	pending map[int64]Time // seq → at of each scheduled, undelivered event
	last    event
	started bool
}

func newOrderOracle() *orderOracle { return &orderOracle{pending: map[int64]Time{}} }

func (o *orderOracle) scheduled(at Time, seq int64) { o.pending[seq] = at }

func (o *orderOracle) delivered(at Time, seq int64) error {
	want, ok := o.pending[seq]
	if !ok {
		return fmt.Errorf("seq %d delivered but not pending (duplicate or never scheduled)", seq)
	}
	if at != want {
		return fmt.Errorf("seq %d delivered at %d, scheduled for %d", seq, at, want)
	}
	ev := event{at: at, seq: seq}
	if o.started && !o.last.before(&ev) {
		return fmt.Errorf("order violation: (%d,%d) delivered after (%d,%d)", at, seq, o.last.at, o.last.seq)
	}
	delete(o.pending, seq)
	o.last, o.started = ev, true
	return nil
}

func (o *orderOracle) done() error {
	if len(o.pending) != 0 {
		return fmt.Errorf("%d scheduled events never delivered", len(o.pending))
	}
	return nil
}

// fuzzRecorder logs every delivery as (now, op) and optionally re-arms
// once (arg carries the re-arm delay), so fuzz programs exercise
// engine-driven pushes from inside callbacks, not just external ones.
// Each event's op is its scheduling ordinal, which is the engine's seq
// order, so the recorder can feed the order oracle.
type fuzzRecorder struct {
	e      *Engine
	trace  []int64
	n      int
	oracle *orderOracle
	err    error
}

func (r *fuzzRecorder) post(at Time, arg any) {
	r.oracle.scheduled(at, int64(r.n))
	r.e.Post(at, r, r.n, arg)
	r.n++
}

func (r *fuzzRecorder) Act(op int, arg any) {
	r.trace = append(r.trace, int64(r.e.Now()), int64(op))
	if err := r.oracle.delivered(r.e.Now(), int64(op)); err != nil && r.err == nil {
		r.err = err
	}
	if d, ok := arg.(Time); ok {
		r.post(r.e.Now()+d, nil)
	}
}

// runQueueProgram interprets the fuzz input as a schedule/step program
// against one engine and returns the full delivery trace, or the first
// departure from the order's definition.
func runQueueProgram(e *Engine, data []byte) (trace []int64, now Time, processed int64, err error) {
	r := &fuzzRecorder{e: e, oracle: newOrderOracle()}
	for i := 0; i+1 < len(data); i += 2 {
		op, val := data[i], Time(data[i+1])
		switch op % 7 {
		case 0: // same-cycle tie: must fire in scheduling order
			r.post(e.Now(), nil)
		case 1: // short delay: calendar ring path
			r.post(e.Now()+val%64, nil)
		case 2: // beyond the window: overflow heap + refill path
			r.post(e.Now()+calWindow+val*37, nil)
		case 3: // just inside / just outside the window boundary
			r.post(e.Now()+calWindow-4+val%8, nil)
		case 4: // self-re-arming event (push from inside a callback)
			r.post(e.Now()+val%64, val%17)
		case 5: // drain a bounded number of events
			for n := Time(0); n < val%32 && e.Step(); n++ {
			}
		case 6: // run to a deadline
			e.RunUntil(e.Now() + val%512)
		}
	}
	e.Run()
	if r.err == nil {
		r.err = r.oracle.done()
	}
	return r.trace, e.Now(), e.Processed, r.err
}

// FuzzEventQueueEquivalence drives the calendar-queue and binary-heap
// engines with an identical fuzz-derived program and requires
// bit-identical delivery traces, clocks, and processed counts — the
// property the whole simulator's determinism rests on. Because the
// calendar's overflow is the reference heap's own type, each engine's
// trace is also checked against the order's definition.
func FuzzEventQueueEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 9, 6, 255})
	f.Add([]byte{1, 3, 1, 3, 1, 3, 5, 31, 2, 200, 6, 255})
	f.Add([]byte{3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7})
	f.Add([]byte{4, 16, 4, 16, 4, 16, 5, 31, 4, 9, 6, 100})
	f.Add(bytes.Repeat([]byte{2, 7, 1, 1}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		ct, cn, cp, cerr := runQueueProgram(NewEngine(), data)
		ht, hn, hp, herr := runQueueProgram(NewHeapEngine(), data)
		if cerr != nil {
			t.Fatalf("calendar: %v", cerr)
		}
		if herr != nil {
			t.Fatalf("heap: %v", herr)
		}
		if cn != hn || cp != hp {
			t.Fatalf("end state diverged: calendar now=%d processed=%d, heap now=%d processed=%d", cn, cp, hn, hp)
		}
		if len(ct) != len(ht) {
			t.Fatalf("trace length diverged: %d vs %d", len(ct), len(ht))
		}
		for i := range ct {
			if ct[i] != ht[i] {
				t.Fatalf("trace diverged at %d: calendar %d, heap %d", i, ct[i], ht[i])
			}
		}
	})
}
