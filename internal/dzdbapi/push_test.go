package dzdbapi

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dates"
)

// TestLongPollReturnsOnPublish parks a caught-up long-poll past the
// close day and checks a concurrent Adopt releases it with the new
// epoch's days — the one-outstanding-request contract.
func TestLongPollReturnsOnPublish(t *testing.T) {
	db := testDB()
	srv := New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	type result struct {
		resp DeltasResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		hc := &http.Client{Timeout: 30 * time.Second}
		r, err := hc.Get(ts.URL + "/v1/deltas?from=" + d(201).String() + "&wait=20s")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer r.Body.Close()
		var out DeltasResponse
		err = json.NewDecoder(r.Body).Decode(&out)
		done <- result{resp: out, err: err}
	}()

	// Give the request time to park, then publish the next epoch.
	time.Sleep(50 * time.Millisecond)
	db.Adopt(testDB2())

	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if len(res.resp.Deltas) != 1 || res.resp.Deltas[0].Day != d(201) {
			t.Fatalf("long-poll page = %+v", res.resp)
		}
		if res.resp.CloseDay != d(201) {
			t.Errorf("close day = %s", res.resp.CloseDay)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never returned after publish")
	}
}

// TestLongPollTimeout: an empty window with a short wait answers an
// empty final page (200), not an error — the client just re-polls.
func TestLongPollTimeout(t *testing.T) {
	srv := New(testDB())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp := get(t, ts.URL+"/v1/deltas?from="+d(201).String()+"&wait=50ms")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out DeltasResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Deltas == nil || len(out.Deltas) != 0 || out.NextCursor != "" {
		t.Fatalf("timeout page = %+v", out)
	}
}

// TestLongPollInvalidWait pins the envelope for a malformed ?wait=.
func TestLongPollInvalidWait(t *testing.T) {
	srv := New(testDB())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	status, ae := rawError(t, ts.URL, "/v1/deltas?wait=banana")
	if status != 400 || ae.Error.Code != CodeInvalidWait {
		t.Errorf("bad wait = %d %q, want 400 %q", status, ae.Error.Code, CodeInvalidWait)
	}
}

// TestSSEStreamsAcrossEpochs holds one StreamDeltas connection over an
// Adopt: the sealed history arrives as the first event, the new
// epoch's day is pushed without any further request — the ≤1 request
// per epoch acceptance, measured at the transport.
func TestSSEStreamsAcrossEpochs(t *testing.T) {
	db := testDB()
	srv := New(db)
	var deltaRequests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/deltas" {
			deltaRequests.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	c := &Client{BaseURL: ts.URL}
	stop := errors.New("done")
	var adoptOnce sync.Once
	var batches []DeltasResponse
	err := c.StreamDeltas(context.Background(), dates.None, func(resp *DeltasResponse) error {
		batches = append(batches, *resp)
		if resp.CloseDay >= d(201) {
			return stop
		}
		// After the sealed history lands, publish the next epoch from
		// this side of the stream; the server must push it unprompted.
		adoptOnce.Do(func() { db.Adopt(testDB2()) })
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("StreamDeltas = %v, want sentinel", err)
	}
	if len(batches) < 2 {
		t.Fatalf("got %d batches, want sealed history + pushed epoch", len(batches))
	}
	first, last := batches[0], batches[len(batches)-1]
	if first.FirstDay != d(0) || first.CloseDay != d(200) || len(first.Deltas) != 201 {
		t.Errorf("first batch = epoch %d window [%s, %s] with %d days",
			first.Epoch, first.FirstDay, first.CloseDay, len(first.Deltas))
	}
	if last.Epoch <= first.Epoch {
		t.Errorf("epoch did not advance: %d then %d", first.Epoch, last.Epoch)
	}
	if n := len(last.Deltas); n == 0 || last.Deltas[n-1].Day != d(201) {
		t.Errorf("pushed batch = %+v", last.Deltas)
	}
	if got := deltaRequests.Load(); got != 1 {
		t.Errorf("feed requests across 2 epochs = %d, want 1", got)
	}
	// The server counts an event after writing it, so the client can
	// have read the second one before the counter moves: wait for it.
	events := srv.Metrics().Counter(MetricPushEvents, "")
	for deadline := time.Now().Add(5 * time.Second); events.Value() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := events.Value(); got < 2 {
		t.Errorf("push events = %d, want >= 2", got)
	}
}

// stallWriter simulates a consumer that stops draining: every body
// write fails. The embedded recorder supplies Header/WriteHeader/Flush
// so the SSE handshake itself succeeds.
type stallWriter struct {
	*httptest.ResponseRecorder
}

func (w *stallWriter) Write(p []byte) (int, error) {
	return 0, errors.New("consumer stalled")
}

// TestSSESlowConsumerDropped: a consumer that cannot take the first
// event is disconnected and accounted as a backpressure drop, and the
// stream gauge returns to zero.
func TestSSESlowConsumerDropped(t *testing.T) {
	srv := New(testDB())
	srv.PushWriteTimeout = 10 * time.Millisecond
	req := httptest.NewRequest(http.MethodGet, "/v1/deltas", nil)
	req.Header.Set("Accept", "text/event-stream")

	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(&stallWriter{httptest.NewRecorder()}, req)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled SSE connection was never dropped")
	}
	if got := srv.Metrics().Counter(MetricPushDropped, "").Value(); got != 1 {
		t.Errorf("push dropped = %d, want 1", got)
	}
	if got := srv.ServeStats().ActiveStreams; got != 0 {
		t.Errorf("active streams = %d, want 0 after drop", got)
	}
}

// TestSSEHandshake checks the raw wire shape: content type, immediate
// header flush, and the event framing a non-Go consumer would parse.
func TestSSEHandshake(t *testing.T) {
	srv := New(testDB())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/deltas", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q", cc)
	}
	buf := make([]byte, len("event: deltas"))
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "event: deltas" {
		t.Fatalf("stream starts %q", buf)
	}
}
