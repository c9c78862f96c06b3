package watch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dzdbapi"
	"repro/internal/sim"
	"repro/internal/whois"
	"repro/internal/zonedb"
)

// feedDB builds a small zone history sealed at lastDay; extra domains
// (one per day past day 2) make later epochs distinguishable.
func feedDB(lastDay dates.Day) *zonedb.DB {
	db := zonedb.New()
	db.DomainAdded("net", "victim.net", 0)
	db.DelegationAdded("net", "victim.net", "ns1.host.com", 0)
	db.DomainAdded("com", "host.com", 0)
	db.GlueAdded("com", "ns1.host.com", 0)
	db.DelegationAdded("com", "host.com", "ns1.host.com", 0)
	for d := dates.Day(3); d <= lastDay; d++ {
		db.DomainAdded("net", dnsname.Name(fmt.Sprintf("day%d.net", d)), d)
	}
	db.Close(lastDay)
	return db
}

// pushEngine builds an engine with an empty WHOIS history and the
// standard registry directory, as riskywatchd does.
func pushEngine() *Engine {
	return New(whois.New(), sim.StandardDirectory())
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFollowerLongPoll: in long-poll mode the follower parks one
// request server-side and applies a new epoch's days the moment it
// publishes, with a bounded request count — no poll-cadence loop.
func TestFollowerLongPoll(t *testing.T) {
	db := feedDB(10)
	srv := dzdbapi.New(db)
	var feedRequests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/deltas" {
			feedRequests.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	var lastDay atomic.Int64
	f := &Follower{
		Client:    &dzdbapi.Client{BaseURL: ts.URL},
		Engine:    pushEngine(),
		Mode:      ModeLongPoll,
		Wait:      20 * time.Second,
		Poll:      20 * time.Second, // a poll-cadence fallback would stall the test
		OnApplied: func(day, _ dates.Day, _ int) { lastDay.Store(int64(day)) },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- f.Run(ctx) }()

	waitFor(t, "long-poll catch-up", func() bool { return lastDay.Load() == 10 })
	db.Adopt(feedDB(11))
	waitFor(t, "long-polled epoch", func() bool { return lastDay.Load() == 11 })

	// Catch-up pass, the parked poll that delivered the epoch, and at
	// most the follow-up park: anything more means the mode degraded to
	// polling.
	if got := feedRequests.Load(); got > 4 {
		t.Errorf("feed requests = %d, want <= 4 (one parked request per epoch)", got)
	}
	cancel()
	if err := <-runErr; !errors.Is(err, context.Canceled) {
		t.Errorf("Run = %v, want context.Canceled", err)
	}
}

// TestFollowerLongPollOnce: Once-mode still terminates after catch-up
// when long-polling — the parked request must not block completion.
func TestFollowerLongPollOnce(t *testing.T) {
	db := feedDB(10)
	ts := httptest.NewServer(dzdbapi.New(db))
	t.Cleanup(ts.Close)

	e := pushEngine()
	f := &Follower{
		Client: &dzdbapi.Client{BaseURL: ts.URL},
		Engine: e,
		Mode:   ModeLongPoll,
		Wait:   time.Second,
		Once:   true,
	}
	if err := f.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e.LastDay() != 10 {
		t.Errorf("caught up to %s, want day 10", e.LastDay())
	}
}

// TestFollowerLongPollOnceCaughtUp: a Once pass never asks the server
// to park. A follower that is already caught up (a restored checkpoint,
// an empty feed) must return at once, not after the full Wait.
func TestFollowerLongPollOnceCaughtUp(t *testing.T) {
	db := feedDB(10)
	ts := httptest.NewServer(dzdbapi.New(db))
	t.Cleanup(ts.Close)

	e := pushEngine()
	client := &dzdbapi.Client{BaseURL: ts.URL}
	if err := (&Follower{Client: client, Engine: e, Once: true}).Run(context.Background()); err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	const wait = 5 * time.Second
	f := &Follower{Client: client, Engine: e, Mode: ModeLongPoll, Wait: wait, Once: true}
	start := time.Now()
	if err := f.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if took := time.Since(start); took >= wait/2 {
		t.Errorf("caught-up Once long-poll took %v, want < %v", took, wait/2)
	}
	if e.LastDay() != 10 {
		t.Errorf("last day %s, want day 10", e.LastDay())
	}
}

// TestFollowerLongPollClampsWait: a hold above the server's cap is asked
// for at the cap. Asked for as is, each parked request would come back
// empty at the cap — under half the hold — and the follower would take
// the server for one that ignores ?wait= and fall back to polling.
func TestFollowerLongPollClampsWait(t *testing.T) {
	srv := dzdbapi.New(feedDB(10))
	waits := make(chan string, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wait := r.URL.Query().Get("wait"); wait != "" {
			select {
			case waits <- wait:
			default:
			}
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	f := &Follower{
		Client: &dzdbapi.Client{BaseURL: ts.URL},
		Engine: pushEngine(),
		Mode:   ModeLongPoll,
		Wait:   5 * time.Minute,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- f.Run(ctx) }()

	select {
	case got := <-waits:
		if want := dzdbapi.MaxLongPollWait.String(); got != want {
			t.Errorf("?wait=%s, want the server's cap %s", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower sent no long-poll request")
	}
	cancel()
	if err := <-runErr; !errors.Is(err, context.Canceled) {
		t.Errorf("Run = %v, want context.Canceled", err)
	}
}

// TestFollowerLongPollFirstPassReports: a long-poll follower that starts
// caught up — restored from a checkpoint at the feed's close day — must
// report its first pass at once, not after parking a whole Wait, or
// readiness reads "never reported" through a routine restart. The first
// request asks for no hold; the next one parks.
func TestFollowerLongPollFirstPassReports(t *testing.T) {
	db := feedDB(10)
	e := pushEngine()
	catchUp := httptest.NewServer(dzdbapi.New(db))
	t.Cleanup(catchUp.Close)
	if err := (&Follower{Client: &dzdbapi.Client{BaseURL: catchUp.URL}, Engine: e, Once: true}).Run(context.Background()); err != nil {
		t.Fatalf("catch-up: %v", err)
	}

	srv := dzdbapi.New(db)
	// Each feed request's ?wait=, "" for none. The test reads two; the
	// buffer holds the rest a slow test run may see before cancel, so
	// the handler never blocks (it drops any past that).
	waits := make(chan string, 8)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/deltas" {
			select {
			case waits <- r.URL.Query().Get("wait"):
			default:
			}
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	type pass struct {
		last, closeDay dates.Day
		err            error
	}
	// OnPass runs on Run's goroutine, which must never block on it: the
	// test reads the first pass, and the one slot drops any later one.
	passes := make(chan pass, 1)
	const wait = 20 * time.Second
	f := &Follower{
		Client: &dzdbapi.Client{BaseURL: ts.URL},
		Engine: e,
		Mode:   ModeLongPoll,
		Wait:   wait,
		Poll:   wait, // a poll-cadence fallback would stall the test
		OnPass: func(last, closeDay dates.Day, err error) {
			select {
			case passes <- pass{last, closeDay, err}:
			default:
			}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- f.Run(ctx) }()

	select {
	case p := <-passes:
		if p.err != nil || p.last != 10 || p.closeDay != 10 {
			t.Errorf("first pass reported last day %s, close day %s, err %v; want day 10, lag 0, no error", p.last, p.closeDay, p.err)
		}
	case <-time.After(time.Second):
		t.Fatal("a caught-up follower reported no pass within 1s")
	}
	for i, want := range []string{"", wait.String()} {
		select {
		case got := <-waits:
			if got != want {
				t.Errorf("feed request %d asked ?wait=%q, want %q", i+1, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("feed request %d never came", i+1)
		}
	}
	cancel()
	if err := <-runErr; !errors.Is(err, context.Canceled) {
		t.Errorf("Run = %v, want context.Canceled", err)
	}
}
