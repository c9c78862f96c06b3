package main

import (
	"testing"
	"time"

	"repro/internal/dzdbapi"
	"repro/internal/obs/health"
)

// TestFeedTTLCoversOnePark: a caught-up follower parks each long-poll
// for -feed-wait before the pass that refreshes the feed check ends, so
// the check must still read fresh one park (and the request's round
// trip) after its last refresh. The TTL it had before, max(3×poll,
// 10 s), read stale for about 20 s of every 30 on default flags.
func TestFeedTTLCoversOnePark(t *testing.T) {
	for _, tc := range []struct {
		poll, feedWait time.Duration
	}{
		{2 * time.Second, 30 * time.Second}, // the defaults
		{250 * time.Millisecond, 15 * time.Second},
		{10 * time.Second, 5 * time.Minute}, // clamped to the server's cap
	} {
		park := min(tc.feedWait, dzdbapi.MaxLongPollWait)
		r := health.NewRegistry()
		now := time.Unix(1000, 0)
		r.Now = func() time.Time { return now }
		r.Register("feed", feedTTL(tc.poll, park)).OK()
		now = now.Add(park + time.Second)
		if ok, sts := r.Readiness(); !ok {
			t.Errorf("poll %s, feed-wait %s: not ready one park after a pass: %+v", tc.poll, tc.feedWait, sts)
		}
	}
	// Archive mode never parks: the margin alone, as before.
	if got := feedTTL(2*time.Second, 0); got != 10*time.Second {
		t.Errorf("archive TTL at -poll 2s = %s, want 10s", got)
	}
	if got := feedTTL(5*time.Second, 0); got != 15*time.Second {
		t.Errorf("archive TTL at -poll 5s = %s, want 15s", got)
	}
}
