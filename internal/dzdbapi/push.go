package dzdbapi

import (
	"net/http"
	"sync"
	"time"
)

// MetricPushActive counts the parked long-poll requests of the delta
// feed.
const MetricPushActive = "dzdb_push_active"

// MaxLongPollWait caps ?wait= so a dead client cannot pin a connection
// arbitrarily long. A follower asks for no longer hold than this: a
// longer one would come back empty early and look like a server that
// ignores ?wait=.
const MaxLongPollWait = 60 * time.Second

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

// deltasLongPoll serves ?wait=: when the requested window is empty, the
// request parks on the source's channel until a publish makes it
// non-empty or the wait expires, then answers with the ordinary page
// envelope (empty Deltas on timeout). A caught-up follower therefore
// holds exactly one outstanding request and still sees a new epoch's
// days the moment it lands.
func (f *Front) deltasLongPoll(w http.ResponseWriter, r *http.Request, q deltasQuery) {
	timer := time.NewTimer(q.wait)
	defer timer.Stop()
	for expired := false; ; {
		st, ch := f.src.Current()
		if st != nil && st.Feed != nil {
			if resp := deltaPage(st, q); len(resp.Deltas) > 0 || expired {
				writeDeltasPage(w, resp)
				return
			}
		} else if expired {
			f.src.Unavailable(w)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-timer.C:
			expired = true
		case <-ch:
		}
	}
}
