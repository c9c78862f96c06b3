package dzdbapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/dates"
)

// Metric names recorded by the push (SSE / long-poll) paths.
const (
	MetricPushActive  = "dzdb_push_active"
	MetricPushEvents  = "dzdb_push_events_total"
	MetricPushDropped = "dzdb_push_dropped_total"
)

const (
	// maxLongPollWait caps ?wait= so a dead client cannot pin a
	// connection arbitrarily long.
	maxLongPollWait = 60 * time.Second
	// sseBatchDays bounds the day window of a single SSE event so one
	// event never grows past roughly a year of deltas.
	sseBatchDays = 366
	// defaultPushWriteTimeout is how long one SSE event write may block
	// on a slow consumer before the connection is dropped. The socket
	// buffer is the only queue: the server never buffers events
	// per-connection, it recomputes the remaining window from the
	// consumer's position, so a lagging reader costs memory O(1).
	defaultPushWriteTimeout = 5 * time.Second
)

// EpochSignal broadcasts "a new epoch was published" to any number of
// waiting push connections via the closed-channel idiom: waiters grab
// the current channel, the publisher closes it and installs a fresh
// one. Grabbing the channel before reading the state guarantees no
// publish is missed between the read and the wait. It is the channel
// half of a Source.
type EpochSignal struct {
	mu sync.Mutex
	ch chan struct{}
}

// NewEpochSignal returns a signal nobody has broadcast on yet.
func NewEpochSignal() *EpochSignal {
	return &EpochSignal{ch: make(chan struct{})}
}

// Wait returns a channel closed at the next Broadcast.
func (e *EpochSignal) Wait() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ch
}

// Broadcast wakes every waiter.
func (e *EpochSignal) Broadcast() {
	e.mu.Lock()
	close(e.ch)
	e.ch = make(chan struct{})
	e.mu.Unlock()
}

// wantsSSE reports whether the request negotiated the event-stream
// representation of the delta feed.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// deltasLongPoll serves ?wait=: when the requested window is empty, the
// request parks on the source's channel until a publish makes it
// non-empty or the wait expires, then answers with the ordinary page
// envelope (empty Deltas on timeout). A caught-up follower therefore
// holds exactly one outstanding request and still sees a new epoch's
// days the moment it lands.
func (e *EpochRoutes) deltasLongPoll(w http.ResponseWriter, r *http.Request, wait time.Duration) {
	if wait > maxLongPollWait {
		wait = maxLongPollWait
	}
	deadline := time.Now().Add(wait)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		st, ch := e.src.Current()
		expired := !time.Now().Before(deadline)
		if st != nil && st.Feed != nil {
			resp, ok := deltaPage(w, r, st)
			if !ok {
				return
			}
			if len(resp.Deltas) > 0 || expired {
				writeJSON(w, http.StatusOK, resp)
				return
			}
		} else if expired {
			e.src.Unavailable(w)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-timer.C:
		case <-ch:
		}
	}
}

// deltasSSE streams the delta feed as Server-Sent Events. Each "deltas"
// event carries one DeltasResponse JSON document covering a contiguous
// day window; the stream starts at ?from= (or the feed start), sends
// everything already sealed, then parks on the source's channel and
// pushes each new epoch's days as they land. Backpressure is a
// per-event write deadline: a consumer that cannot drain the socket in
// time is disconnected (it can reconnect from its last applied day), so
// a slow reader never queues unbounded state server-side.
func (e *EpochRoutes) deltasSSE(w http.ResponseWriter, r *http.Request) {
	pos := dates.None
	if raw := r.URL.Query().Get("from"); raw != "" {
		d, err := dates.Parse(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidDate, "invalid from %q (want YYYY-MM-DD)", raw)
			return
		}
		pos = d
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return
	}

	for {
		st, ch := e.src.Current()
		if st != nil && st.Feed != nil {
			if first, last := st.Feed.Window(); first != dates.None {
				if pos == dates.None || pos < first {
					pos = first
				}
				for pos <= last {
					end := min(pos+sseBatchDays-1, last)
					resp := DeltasResponse{Epoch: st.Epoch, FirstDay: first, CloseDay: last,
						Deltas: st.Feed.Days(pos, int(end-pos)+1)}
					if err := e.writeSSEEvent(w, rc, "deltas", resp); err != nil {
						e.dropped.Inc()
						return
					}
					e.events.Inc()
					pos = end + 1
				}
			}
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		}
	}
}

// writeSSEEvent emits one event frame under the push write deadline.
func (e *EpochRoutes) writeSSEEvent(w http.ResponseWriter, rc *http.ResponseController, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	timeout := defaultPushWriteTimeout
	if e.pushTimeout > 0 {
		timeout = e.pushTimeout
	}
	if err := rc.SetWriteDeadline(time.Now().Add(timeout)); err != nil && e.log != nil {
		e.log.Warn("push: no write-deadline support; slow consumers unbounded", "err", err)
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	return rc.Flush()
}
