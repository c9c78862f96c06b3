package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
)

func TestRootAndChildSpans(t *testing.T) {
	tr := New()
	ctx, root := tr.Start(context.Background(), "root")
	if root == nil || !root.Context().Valid() {
		t.Fatal("root span missing or invalid")
	}
	cctx, child := tr.Start(ctx, "child")
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatalf("child trace %s != root trace %s", child.TraceID(), root.TraceID())
	}
	if child.Context().SpanID == root.Context().SpanID {
		t.Fatal("child reused the root span ID")
	}
	_, grand := Start(cctx, "grandchild") // package-level: inherits tracer from ctx
	if grand == nil {
		t.Fatal("package Start found no parent in ctx")
	}
	grand.End()
	child.End()
	root.End()

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	// Completion order: grandchild, child, root. Parent links chain up.
	if recs[0].ParentID != recs[1].SpanID || recs[1].ParentID != recs[2].SpanID {
		t.Fatalf("parent chain broken: %+v", recs)
	}
	if recs[2].ParentID != "" {
		t.Fatalf("root has a parent: %q", recs[2].ParentID)
	}
	for _, r := range recs {
		if r.TraceID != recs[2].TraceID {
			t.Fatalf("trace IDs diverge: %+v", recs)
		}
	}
}

func TestNilTracerAndNilSpanAreSafe(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer with empty ctx must yield nil span")
	}
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.SetError(errors.New("boom"))
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span End = %v", d)
	}
	if sp.TraceID() != "" || sp.Context().Valid() {
		t.Fatal("nil span leaked an identity")
	}
	if _, sp2 := Start(ctx, "y"); sp2 != nil {
		t.Fatal("Start with no parent must be a no-op")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Records() != nil {
		t.Fatal("nil tracer accounting")
	}
	// A nil tracer still creates children when the context has a span.
	real := New()
	rctx, root := real.Start(context.Background(), "root")
	_, child := tr.Start(rctx, "child")
	if child == nil || child.Context().TraceID != root.Context().TraceID {
		t.Fatal("nil tracer did not delegate to the context's tracer")
	}
}

func TestRemoteParentJoinsTrace(t *testing.T) {
	tr := New()
	remote := SpanContext{}
	_, up := tr.Start(context.Background(), "upstream")
	remote = up.Context()

	ctx := ContextWithRemote(context.Background(), remote)
	_, sp := tr.Start(ctx, "server")
	if sp.Context().TraceID != remote.TraceID {
		t.Fatal("server span did not join the remote trace")
	}
	sp.End()
	recs := tr.Records()
	if recs[0].ParentID != remote.SpanID.String() {
		t.Fatalf("server parent %q != remote span %q", recs[0].ParentID, remote.SpanID)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New()
	ctx, sp := tr.Start(context.Background(), "client")
	h := make(http.Header)
	Inject(ctx, h)
	v := h.Get(TraceparentHeader)
	want := "00-" + sp.TraceID() + "-" + sp.Context().SpanID.String() + "-01"
	if v != want {
		t.Fatalf("traceparent = %q, want %q", v, want)
	}
	sc, ok := Extract(h)
	if !ok || sc != sp.Context() {
		t.Fatalf("extract = %+v ok=%v, want %+v", sc, ok, sp.Context())
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-abc-def-01",
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // version ff forbidden
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace ID
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span ID
		"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", // uppercase (spec: lowercase)
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
	if _, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"); !ok {
		t.Error("valid traceparent rejected")
	}
}

func TestJSONLExport(t *testing.T) {
	tr := New()
	ctx, root := tr.Start(context.Background(), "run")
	_, child := tr.Start(ctx, "stage")
	child.SetAttrInt("items", 42)
	child.SetError(errors.New("partial"))
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var recs []Record
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("%d lines, want 2", len(recs))
	}
	if recs[0].Name != "stage" || recs[0].Attr("items") != "42" || recs[0].Error != "partial" {
		t.Fatalf("stage record: %+v", recs[0])
	}
	if recs[0].ParentID != recs[1].SpanID {
		t.Fatal("exported parent link broken")
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := New()
	ctx, root := tr.Start(context.Background(), "run")
	_, child := tr.Start(ctx, "stage")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "M":
			meta++
		}
	}
	if complete != 2 || meta != 1 {
		t.Fatalf("events: %d complete, %d metadata (want 2, 1)", complete, meta)
	}
}

func TestMaxSpansBoundsJournal(t *testing.T) {
	tr := New()
	tr.MaxSpans = 2
	for i := 0; i < 5; i++ {
		_, sp := tr.Start(context.Background(), "s")
		sp.End()
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestIDUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	tr := New()
	for i := 0; i < 1000; i++ {
		_, sp := tr.Start(context.Background(), "s")
		key := sp.TraceID() + "/" + sp.Context().SpanID.String()
		if seen[key] {
			t.Fatalf("duplicate IDs after %d spans", i)
		}
		seen[key] = true
	}
}
