package trace

import (
	"encoding/json"
	"io"
	"time"
)

// Record is one finished span in export form.
type Record struct {
	TraceID  string        `json:"trace_id"`
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// Attr returns the value of the named attribute ("" when absent).
func (r Record) Attr(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// WriteJSONL writes the journal as JSON Lines: one span object per
// line, in completion order, so the file streams and greps cleanly
// (`jq 'select(.trace_id=="...")'` reassembles one tree).
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range t.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace_event format
// (docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes the journal in Chrome trace_event JSON —
// open it at chrome://tracing or ui.perfetto.dev. Each trace becomes
// one "thread" (named by its trace ID), each span one complete ("X")
// event, so nested spans render as the familiar flame layout.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	recs := t.Records()
	tids := make(map[string]int)
	events := make([]chromeEvent, 0, 2*len(recs))
	for _, rec := range recs {
		tid, ok := tids[rec.TraceID]
		if !ok {
			tid = len(tids) + 1
			tids[rec.TraceID] = tid
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]string{"name": "trace " + rec.TraceID[:8]},
			})
		}
		args := map[string]string{
			"trace_id": rec.TraceID,
			"span_id":  rec.SpanID,
		}
		if rec.ParentID != "" {
			args["parent_id"] = rec.ParentID
		}
		if rec.Error != "" {
			args["error"] = rec.Error
		}
		for _, a := range rec.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: rec.Name, Ph: "X", PID: 1, TID: tid,
			TS:   float64(rec.Start.UnixNano()) / 1e3,
			Dur:  float64(rec.Duration.Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
