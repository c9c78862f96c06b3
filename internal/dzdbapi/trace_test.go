package dzdbapi

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs/trace"
)

// findRecord returns the first journal record with the given span name.
func findRecord(t *testing.T, tr *trace.Tracer, name string) trace.Record {
	t.Helper()
	for _, rec := range tr.Records() {
		if rec.Name == name {
			return rec
		}
	}
	t.Fatalf("no %q span in journal: %+v", name, tr.Records())
	return trace.Record{}
}

// TestClientServerPreservesTraceID drives a traced client against a
// traced server and checks the whole chain: the server span joins the
// client's trace, parents under the client span, and the trace ID lands
// verbatim in the server's structured request log.
func TestClientServerPreservesTraceID(t *testing.T) {
	serverTracer := trace.New()
	var logBuf bytes.Buffer
	api := New(testDB())
	api.Tracer = serverTracer
	api.Log = slog.New(slog.NewTextHandler(&logBuf, nil))
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)

	clientTracer := trace.New()
	ctx, root := clientTracer.Start(context.Background(), "test.root")
	c := &Client{BaseURL: ts.URL, Tracer: clientTracer}
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	root.End()

	clientSpan := findRecord(t, clientTracer, "dzdbapi.client.stats")
	serverSpan := findRecord(t, serverTracer, "dzdbapi./v1/stats")
	rootSpan := findRecord(t, clientTracer, "test.root")
	if serverSpan.TraceID != rootSpan.TraceID {
		t.Fatalf("server trace %s != client trace %s", serverSpan.TraceID, rootSpan.TraceID)
	}
	if serverSpan.ParentID != clientSpan.SpanID {
		t.Fatalf("server span parent %s != client span %s", serverSpan.ParentID, clientSpan.SpanID)
	}
	if !strings.Contains(logBuf.String(), "trace_id="+rootSpan.TraceID) {
		t.Fatalf("request log lost the trace ID %s:\n%s", rootSpan.TraceID, logBuf.String())
	}
}

// TestMalformedTraceparentStartsFreshRoot sends garbage (and nothing) in
// the traceparent header; each request must get a fresh root span with a
// valid trace ID of its own.
func TestMalformedTraceparentStartsFreshRoot(t *testing.T) {
	serverTracer := trace.New()
	api := New(testDB())
	api.Tracer = serverTracer
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)

	for _, tp := range []string{
		"", // absent
		"garbage",
		"00-ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZ-0000000000000001-01",
		"00-00000000000000000000000000000000-0000000000000000-01",
	} {
		req, err := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tp != "" {
			req.Header.Set("traceparent", tp)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	recs := serverTracer.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d spans, want 4", len(recs))
	}
	seen := make(map[string]bool)
	for _, rec := range recs {
		if rec.ParentID != "" {
			t.Fatalf("span %+v should be a root", rec)
		}
		if len(rec.TraceID) != 32 || strings.Count(rec.TraceID, "0") == 32 {
			t.Fatalf("span has invalid trace ID %q", rec.TraceID)
		}
		if seen[rec.TraceID] {
			t.Fatalf("trace ID %s reused across independent requests", rec.TraceID)
		}
		seen[rec.TraceID] = true
	}
}
