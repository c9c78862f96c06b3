package dzdbapi

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
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
