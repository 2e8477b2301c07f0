package obs

import (
	"io"

	"shogun/internal/trace"
)

// WriteChrome renders the request's phase breakdown as a Chrome trace:
// one complete ("X") event per non-empty phase, laid end to end on a
// single thread, timestamps in microseconds from request arrival. The
// on-demand per-request export behind /v1/requests/{id}?format=chrome.
func (v *SpanView) WriteChrome(w io.Writer) error {
	events := []trace.ChromeEvent{
		{Name: "process_name", Ph: "M", Pid: 0,
			Args: map[string]any{"name": "shogund request"}},
		{Name: "thread_name", Ph: "M", Pid: 0, Tid: 0,
			Args: map[string]any{"name": "trace " + v.Trace}},
	}
	ph := v.PhasesNS
	var ts int64
	for i, ns := range [NumPhases]int64{ph.Parse, ph.Queue, ph.Graph, ph.Schedule, ph.Run, ph.Encode} {
		us := ns / 1e3
		if ns > 0 {
			events = append(events, trace.ChromeEvent{
				Name: phaseNames[i], Cat: "request", Ph: "X",
				Ts: ts, Dur: us, Pid: 0, Tid: 0,
				Args: map[string]any{
					"op": v.Op, "status": v.Status, "kind": v.Kind,
					"graph_key": v.GraphKey, "schedule": v.Schedule,
				},
			})
		}
		ts += us
	}
	_, err := trace.WriteChromeFile(w, events)
	return err
}
