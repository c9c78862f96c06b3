package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentCounters hammers one counter, one gauge, and one
// histogram child from many goroutines; run with -race. The final
// values must be exact: the primitives are atomic, not approximate.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	g := r.Gauge("inflight", "inflight")
	h := r.Histogram("latency_seconds", "latency", []float64{0.001, 0.01, 0.1})
	vec := r.CounterVec("labeled_total", "labeled", "route")

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(0.005)
				vec.With("a").Inc()
				vec.With("b").Add(2)
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got, want := h.Sum(), float64(workers*perWorker)*0.005; got < want*0.999 || got > want*1.001 {
		t.Errorf("histogram sum = %g, want ~%g", got, want)
	}
	if got := vec.With("a").Value(); got != workers*perWorker {
		t.Errorf("vec[a] = %d, want %d", got, workers*perWorker)
	}
	if got := vec.With("b").Value(); got != 2*workers*perWorker {
		t.Errorf("vec[b] = %d, want %d", got, 2*workers*perWorker)
	}
}

// TestExpositionGolden locks the exposition format byte for byte.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "Total requests.").Add(3)
	r.Gauge("sessions_active", "Active sessions.").Set(2)
	v := r.CounterVec("commands_total", "Commands by verb.", "verb", "result")
	v.With("login", "ok").Add(5)
	v.With("create", "err").Inc()
	h := r.Histogram("latency_seconds", "Request latency.", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(7)

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP commands_total Commands by verb.
# TYPE commands_total counter
commands_total{verb="create",result="err"} 1
commands_total{verb="login",result="ok"} 5
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="1"} 1
latency_seconds_bucket{le="2"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 9
latency_seconds_count 3
# HELP requests_total Total requests.
# TYPE requests_total counter
requests_total 3
# HELP sessions_active Active sessions.
# TYPE sessions_active gauge
sessions_active 2
`
	if buf.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestHistogramBucketEdges pins the le-inclusive bucket semantics.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	h.Observe(1.5)
	h.Observe(2)
	h.Observe(3) // +Inf only
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		`h_bucket{le="1"} 1`,
		`h_bucket{le="2"} 3`,
		`h_bucket{le="+Inf"} 4`,
		`h_count 4`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

// TestEmptyFamilyAnnounced: a vec with no children still emits its
// HELP/TYPE header so scrapes see the schema before first use.
func TestEmptyFamilyAnnounced(t *testing.T) {
	r := NewRegistry()
	r.HistogramVec("stage_seconds", "Stage wall time.", nil, "stage")
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE stage_seconds histogram") {
		t.Errorf("family header missing:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "stage_seconds_bucket") {
		t.Errorf("empty family should have no samples:\n%s", buf.String())
	}
}

// TestLabelEscaping covers backslash, quote, and newline in values.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("c", "", "l").With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `c{l="a\"b\\c\nd"} 1`) {
		t.Errorf("bad escaping:\n%s", buf.String())
	}
}

// TestLogger checks component tagging.
func TestLogger(t *testing.T) {
	var buf bytes.Buffer
	l := NewLoggerAt(&buf, slog.LevelInfo, "dzdbd")
	l.Info("session open", "client", "NC")
	if !strings.Contains(buf.String(), "component=dzdbd") || !strings.Contains(buf.String(), "client=NC") {
		t.Errorf("log line missing attrs: %q", buf.String())
	}
}
