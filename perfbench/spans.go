package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans live in memory
// for the whole run and are written out once it ends.
type span struct {
	name   string
	trace  string // request or job identifier shared by related spans
	parent int    // index of the causing span, -1 for a root
	start  time.Duration
	end    time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder collects spans relative to a fixed origin.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// at converts a wall-clock instant to the recorder's timeline.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.origin) }

// add records a finished span and returns its index.
func (r *recorder) add(name, trace string, parent int, start, end time.Duration) int {
	r.spans = append(r.spans, span{name: name, trace: trace, parent: parent, start: start, end: end})
	return len(r.spans) - 1
}

// begin opens a span now; finish closes it.
func (r *recorder) begin(name, trace string, parent int) int {
	now := r.at(time.Now())
	return r.add(name, trace, parent, now, now)
}

func (r *recorder) finish(i int) { r.spans[i].end = r.at(time.Now()) }

// timed records fn as a span under parent and returns fn's error.
func (r *recorder) timed(name, trace string, parent int, fn func() error) error {
	i := r.begin(name, trace, parent)
	err := fn()
	r.finish(i)
	return err
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children's intervals cover (overlapping
// children count once; the parts of a child outside its parent do not
// count).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach time.Duration
		reach = s.start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeChrome dumps the spans as a Chrome trace (chrome://tracing,
// Perfetto), one track per trace identifier, with each span's self
// time in its args.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(r.spans)
	tids := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		tid, ok := tids[s.trace]
		if !ok {
			tid = len(tids) + 1
			tids[s.trace] = tid
		}
		events = append(events, event{
			Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.dur()), PID: 1, TID: tid,
			Args: map[string]any{"trace": s.trace, "self_us": us(self[i])},
		})
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
