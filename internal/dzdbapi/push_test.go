package dzdbapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
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

// TestLongPollClientAcrossEpochs parks one Client.Deltas call past the
// close day and publishes the next epoch: the call answers with the new
// day, in one feed request, although it outlived the client's own
// timeout — a wait stretches the call's timeout past the hold.
func TestLongPollClientAcrossEpochs(t *testing.T) {
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

	c := &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Timeout: 100 * time.Millisecond}}
	go func() {
		time.Sleep(300 * time.Millisecond)
		db.Adopt(testDB2())
	}()
	resp, err := c.Deltas(context.Background(), d(201), "", 0, 20*time.Second)
	if err != nil {
		t.Fatalf("Deltas with wait: %v", err)
	}
	if resp.CloseDay != d(201) || len(resp.Deltas) != 1 || resp.Deltas[0].Day != d(201) {
		t.Errorf("long-polled page = %+v", resp)
	}
	if got := deltaRequests.Load(); got != 1 {
		t.Errorf("feed requests = %d, want 1", got)
	}
}

// TestPushExemptFromInflightCap: a parked long-poll is counted as a push
// stream, not as a request in flight, so it never reads as load; the
// stream count returns to 0 when the poll is answered.
func TestPushExemptFromInflightCap(t *testing.T) {
	db := testDB()
	srv := New(db)
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

	deadline := time.Now().Add(5 * time.Second)
	for srv.ServeStats().ActiveStreams == 0 {
		if time.Now().After(deadline) {
			t.Fatal("long-poll never registered as a stream")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.ServeStats().Inflight; got != 0 {
		t.Errorf("inflight = %d while only a long-poll is parked, want 0", got)
	}
	if resp := get(t, ts.URL+"/v1/stats"); resp.StatusCode != http.StatusOK {
		t.Errorf("request beside a parked long-poll: %d", resp.StatusCode)
	}
	db.Adopt(testDB2()) // release the parked poll
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := srv.ServeStats().ActiveStreams; got != 0 {
		t.Errorf("active streams = %d after poll returned, want 0", got)
	}
}
