package dzdbapi

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

func TestClientRetries5xx(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"domains":7,"nameservers":3,"zones":["com"]}`))
	}))
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL, Retry: &faults.Policy{MaxAttempts: 5, BaseDelay: -1}}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Domains != 7 || hits.Load() != 3 {
		t.Fatalf("stats=%+v hits=%d", stats, hits.Load())
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeError(w, http.StatusNotFound, CodeNotFound, "no such domain")
	}))
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL, Retry: &faults.Policy{MaxAttempts: 5, BaseDelay: -1}}
	_, err := c.Domain("ghost.com")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 404 || ae.Msg != "no such domain" {
		t.Fatalf("err = %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("4xx retried: %d hits", hits.Load())
	}
}

func TestClientRetriesTransportErrors(t *testing.T) {
	// A dead address: every attempt is a transport error, all retried.
	calls := 0
	c := &Client{
		BaseURL:    "http://127.0.0.1:1",
		HTTPClient: &http.Client{Timeout: 200 * time.Millisecond},
		Retry: &faults.Policy{MaxAttempts: 3, BaseDelay: -1,
			OnRetry: func(int, error, time.Duration) { calls++ }},
	}
	if _, err := c.Stats(); err == nil {
		t.Fatal("dead server should error")
	}
	if calls != 2 {
		t.Fatalf("retries = %d, want 2", calls)
	}
}

func TestAPIErrorKeepsNonJSONSnippet(t *testing.T) {
	long := strings.Repeat("<html>gateway exploded</html> ", 40)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, long, http.StatusBadGateway)
	}))
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}
	_, err := c.Stats()
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v", err)
	}
	if ae.Status != 502 || !strings.Contains(ae.Body, "gateway exploded") {
		t.Fatalf("APIError = %+v", ae)
	}
	if len(ae.Body) > errSnippet+3 {
		t.Fatalf("snippet not truncated: %d bytes", len(ae.Body))
	}
	if !strings.Contains(ae.Error(), "gateway exploded") {
		t.Fatalf("Error() lost the snippet: %s", ae.Error())
	}
}

func TestClientContextCanceled(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &Client{BaseURL: ts.URL, Retry: &faults.Policy{MaxAttempts: 5, BaseDelay: -1}}
	if _, err := c.StatsContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if hits.Load() != 0 {
		t.Fatalf("canceled context still sent %d requests", hits.Load())
	}
}

func TestClientBreakerFailsFast(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)
	c := &Client{
		BaseURL: ts.URL,
		Breaker: &faults.Breaker{Name: "dzdb", FailureThreshold: 2, OpenTimeout: time.Minute},
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Stats(); err == nil {
			t.Fatal("expected 500")
		}
	}
	if c.Breaker.State() != faults.Open {
		t.Fatalf("breaker state = %v", c.Breaker.State())
	}
	before := hits.Load()
	if _, err := c.Stats(); !errors.Is(err, faults.ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen", err)
	}
	if hits.Load() != before {
		t.Fatal("open breaker let a request through")
	}
}

// TestClientHonorsRetryAfter: a 429 or 503 with Retry-After is
// retryable, and the parsed Retry-After rides APIError so the retry
// loop can sleep it out. The coordinator answers 503 with one when the
// fleet cannot serve; the client honours either status from any server.
func TestClientHonorsRetryAfter(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		t.Run(strconv.Itoa(status), func(t *testing.T) {
			var calls atomic.Int64
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) == 1 {
					w.Header().Set("Retry-After", "0")
					writeError(w, status, "slow_down", "slow down")
					return
				}
				writeJSON(w, http.StatusOK, StatsResponse{Domains: 7, Zones: []string{}})
			}))
			t.Cleanup(ts.Close)

			// Without a retry policy the refusal surfaces as a typed error
			// with the parsed backoff hint.
			bare := &Client{BaseURL: ts.URL}
			_, err := bare.Stats()
			ae, ok := err.(*APIError)
			if !ok || ae.Status != status || ae.Code != "slow_down" {
				t.Fatalf("bare err = %v", err)
			}
			if !retryableResponse(err) {
				t.Errorf("%d classified as permanent", status)
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
				t.Errorf("server saw %d calls, want 2 (refusal then success)", got)
			}
		})
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
