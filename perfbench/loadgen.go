package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the generator's connection limit: the host has two CPUs, so
// more concurrent requests would only queue inside the client.
const conns = 2

// request is one served query, encoded once before timing starts.
type request struct {
	op   string // count | mine | simulate
	body []byte
	// golden keys the software miner's answer for the request's
	// (graph, pattern).
	golden string
	// kind groups identical requests: their modelled results must
	// repeat exactly.
	kind string
	// shape groups requests that do similar work (same pattern and
	// machine), for the per-shape medians of sim_tasks_per_s.
	shape string
}

// reply is the part of a 2xx response body the benchmark checks.
type reply struct {
	Embeddings int64 `json:"embeddings"`
	Tasks      int64 `json:"tasks"`
	SimTasks   int64 `json:"sim_tasks"`
	Cycles     int64 `json:"cycles"`
	Events     int64 `json:"events"`
	PhasesUS   struct {
		Run int64 `json:"run"`
	} `json:"phases_us"`
}

// sample is one request of a load phase, timed from when it was due.
type sample struct {
	req             *request
	trace           string
	due, sent, done time.Time
	status          int
	err             error
	reply           reply
}

// latency is what the user waited: from when the request was due, so a
// stall also charges the requests queued behind it.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent.Sub(s.due) }

func (s sample) ok() bool { return s.err == nil && s.status == http.StatusOK }

// loadgen drives one daemon over at most conns keep-alive connections.
type loadgen struct {
	client *http.Client
	base   string
	// traceTag, when set, labels request i with X-Shogun-Trace
	// "<traceTag>-<i>" so it joins the daemon's access-log line.
	traceTag string
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// send issues one request and decodes a 2xx body.
func (l *loadgen) send(ctx context.Context, s *sample) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+"/v1/"+s.req.op, bytes.NewReader(s.req.body))
	if err != nil {
		s.err = err
		return
	}
	hr.Header.Set("Content-Type", "application/json")
	if s.trace != "" {
		hr.Header.Set("X-Shogun-Trace", s.trace)
	}
	s.sent = time.Now()
	resp, err := l.client.Do(hr)
	if err != nil {
		s.done, s.err = time.Now(), err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done, s.status = time.Now(), resp.StatusCode
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode == http.StatusOK:
		if err := json.Unmarshal(body, &s.reply); err != nil {
			s.err = fmt.Errorf("decode reply: %w", err)
		}
	default:
		s.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
}

// drive sends reqs over conns workers. due gives request i's due time;
// nil means closed loop: each worker sends its next request as soon as
// its previous one completes. A non-zero until stops sending new
// requests at that instant.
func (l *loadgen) drive(ctx context.Context, reqs []*request, due func(i int) time.Time, until time.Time) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil || (!until.IsZero() && time.Now().After(until)) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &out[i]
				s.req = reqs[i]
				if l.traceTag != "" {
					s.trace = fmt.Sprintf("%s-%d", l.traceTag, i)
				}
				if due != nil {
					s.due = due(i)
					if wait := time.Until(s.due); wait > 0 {
						time.Sleep(wait)
					}
					l.send(ctx, s)
				} else {
					l.send(ctx, s)
					s.due = s.sent
				}
			}
		}()
	}
	wg.Wait()
	if n := int(next.Load()); n < len(reqs) {
		out = out[:n] // stopped early: drop requests never sent
	}
	return out
}

// openLoop sends reqs at rate per second, evenly spaced, whatever the
// daemon's state: independent users, not callers waiting on replies.
func (l *loadgen) openLoop(ctx context.Context, reqs []*request, rate float64) []sample {
	start := time.Now().Add(20 * time.Millisecond)
	gap := time.Duration(float64(time.Second) / rate)
	return l.drive(ctx, reqs, func(i int) time.Time { return start.Add(time.Duration(i) * gap) }, time.Time{})
}

// closedLoop sends reqs back to back on every connection for at most
// limit, and returns the daemon's capacity: the median completion rate
// over consecutive groups of chunk successful completions, so a
// transient stall of the shared host slows one group rather than the
// figure.
func (l *loadgen) closedLoop(ctx context.Context, reqs []*request, chunk int, limit time.Duration) ([]sample, float64) {
	t0 := time.Now()
	out := l.drive(ctx, reqs, nil, t0.Add(limit))
	var done []time.Time
	for _, s := range out {
		if s.ok() {
			done = append(done, s.done)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var rates []float64
	prev := t0
	for i := chunk; i <= len(done); i += chunk {
		rates = append(rates, float64(chunk)/done[i-1].Sub(prev).Seconds())
		prev = done[i-1]
	}
	return out, median(rates)
}
