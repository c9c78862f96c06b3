// Package obs is the reproduction's observability substrate: a
// dependency-free metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms) with Prometheus text exposition, a
// log/slog-based structured logger with component tagging, and a
// lightweight span API for pipeline stage tracing.
//
// Every long-running component records into a *Registry — the daemons
// expose theirs on GET /metrics, the CLIs print a stage report from it.
// The package deliberately implements only the subset of the Prometheus
// data model the system needs (no summaries, no exemplars, no
// timestamps) so it stays stdlib-only per the repo conventions.
//
// Unlike the data plane, obs reads the wall clock (span durations are
// real elapsed time); no simulation result ever depends on it.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Default is the process-wide registry. The daemons expose it over
// /metrics.
var Default = NewRegistry()

// DefBuckets are the default latency histogram bounds in seconds,
// spanning 100µs to 10s — wide enough for both in-memory API handlers
// and full detection stages.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down; each reading replaces the last.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a gauge holding a float64 — for ratios, fractions, and
// second-valued quantities that do not fit the integer Gauge. Rendered
// as a plain gauge in exposition.
type FloatGauge struct {
	v atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Exemplar is one concrete observation kept alongside a histogram —
// typically the latest request's trace ID, so a latency spike on a
// dashboard links to the exact trace that caused it.
type Exemplar struct {
	// TraceID labels the exemplar (rendered as trace_id in OpenMetrics
	// exposition).
	TraceID string
	// Value is the observed value.
	Value float64
}

// Histogram is a fixed-bucket histogram. Buckets are upper bounds in
// ascending order; observations above the last bound land only in the
// implicit +Inf bucket. All methods are safe for concurrent use.
type Histogram struct {
	bounds   []float64
	counts   []atomic.Uint64 // one per bound; cumulative only at exposition
	count    atomic.Uint64
	sum      atomic.Uint64 // float64 bits, CAS-updated
	exemplar atomic.Pointer[Exemplar]
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one value and, when traceID is non-empty,
// keeps it as the histogram's latest exemplar. An empty traceID makes
// this identical to Observe, so call sites can pass whatever trace
// context they have without branching.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID != "" {
		h.exemplar.Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// Exemplar returns the latest exemplar, if one was ever recorded.
func (h *Histogram) Exemplar() (Exemplar, bool) {
	if e := h.exemplar.Load(); e != nil {
		return *e, true
	}
	return Exemplar{}, false
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketSnapshot is a point-in-time copy of a histogram's buckets. The
// slo package estimates quantiles and burn rates from (deltas of) these.
type BucketSnapshot struct {
	// Bounds are the finite upper bounds, ascending; the implicit +Inf
	// bucket follows them.
	Bounds []float64
	// Counts has len(Bounds)+1 entries: per-bucket observation counts,
	// the last being the overflow (+Inf) bucket — observations above the
	// largest finite bound, which the per-bound counters never record.
	Counts []uint64
	// Count and Sum mirror the histogram's totals at snapshot time.
	Count uint64
	Sum   float64
}

// Snapshot copies the histogram's current bucket state. Concurrent
// Observes may land between the individual loads; the overflow bucket is
// derived as Count minus the finite buckets and clamped at zero, so the
// snapshot is always internally consistent.
func (h *Histogram) Snapshot() BucketSnapshot {
	s := BucketSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)+1),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	var finite uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		finite += c
	}
	if s.Count > finite {
		s.Counts[len(h.bounds)] = s.Count - finite
	}
	return s
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindFloatGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindFloatGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with a fixed label schema and one child
// per label-value combination.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	bounds []float64 // histograms only
	mu     sync.RWMutex
	child  map[string]any // joined label values -> *Counter/*Gauge/*Histogram
}

func (f *family) get(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	m, ok := f.child[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.child[key]; ok {
		return m
	}
	switch f.kind {
	case kindCounter:
		m = new(Counter)
	case kindGauge:
		m = new(Gauge)
	case kindFloatGauge:
		m = new(FloatGauge)
	default:
		m = newHistogram(f.bounds)
	}
	f.child[key] = m
	return m
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; use NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family

	// Now supplies the clock for timed instrumentation; overridable in
	// tests. Defaults to time.Now.
	Now func() time.Time
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), Now: time.Now}
}

// lookup returns the family, creating it on first use. Re-registration
// with a different kind or label schema panics: that is a programming
// error, not a runtime condition.
func (r *Registry) lookup(name, help string, k kind, labels []string, bounds []float64) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{name: name, help: help, kind: k, labels: labels, bounds: bounds, child: make(map[string]any)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != k || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s with %d labels (was %s with %d)",
			name, k, len(labels), f.kind, len(f.labels)))
	}
	return f
}

// Counter returns the unlabeled counter with the given name, creating
// it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter, nil, nil).get(nil).(*Counter)
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge, nil, nil).get(nil).(*Gauge)
}

// Histogram returns the unlabeled histogram with the given name.
// Buckets are upper bounds in ascending order; nil selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.lookup(name, help, kindHistogram, nil, buckets).get(nil).(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, kindCounter, labels, nil)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).(*Counter) }

// FloatGauge returns the unlabeled float gauge with the given name.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	return r.lookup(name, help, kindFloatGauge, nil, nil).get(nil).(*FloatGauge)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.lookup(name, help, kindGauge, labels, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).(*Gauge) }

// FloatGaugeVec is a float gauge family with labels.
type FloatGaugeVec struct{ f *family }

// FloatGaugeVec returns the labeled float gauge family with the given
// name.
func (r *Registry) FloatGaugeVec(name, help string, labels ...string) *FloatGaugeVec {
	return &FloatGaugeVec{r.lookup(name, help, kindFloatGauge, labels, nil)}
}

// With returns the child float gauge for the given label values.
func (v *FloatGaugeVec) With(values ...string) *FloatGauge { return v.f.get(values).(*FloatGauge) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with the given
// name. Nil buckets selects DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.lookup(name, help, kindHistogram, labels, buckets)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).(*Histogram) }

// ---- Exposition ----

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// labelString renders {a="x",b="y"}, optionally with an extra le pair.
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, n, escapeLabel(values[i]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if sb.Len() > 1 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, extra[i], escapeLabel(extra[i+1]))
	}
	sb.WriteByte('}')
	return sb.String()
}

// WriteTo renders the registry in Prometheus text exposition format
// (version 0.0.4). Families and children are emitted in sorted order so
// output is deterministic. Families with no children yet still emit
// their HELP/TYPE header, announcing the schema before first use.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics renders the registry in an OpenMetrics-flavoured
// text format: identical to WriteTo except that histogram exemplars
// (recorded via ObserveExemplar) are appended to the +Inf bucket line
// as `# {trace_id="..."} value` and the output is terminated with
// `# EOF`. Strict 0.0.4 scrapers should use WriteTo; the Handler
// negotiates via the Accept header.
func (r *Registry) WriteOpenMetrics(w io.Writer) (int64, error) {
	return r.writeExposition(w, true)
}

func (r *Registry) writeExposition(w io.Writer, openMetrics bool) (int64, error) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	var total int64
	wr := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	for _, f := range fams {
		if f.help != "" {
			if err := wr("# HELP %s %s\n", f.name, f.help); err != nil {
				return total, err
			}
		}
		if err := wr("# TYPE %s %s\n", f.name, f.kind); err != nil {
			return total, err
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.child))
		for k := range f.child {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.child[k]
		}
		f.mu.RUnlock()
		for i, key := range keys {
			var values []string
			if len(f.labels) > 0 {
				values = strings.Split(key, "\x00")
			}
			ls := labelString(f.labels, values)
			switch m := children[i].(type) {
			case *Counter:
				if err := wr("%s%s %d\n", f.name, ls, m.Value()); err != nil {
					return total, err
				}
			case *Gauge:
				if err := wr("%s%s %d\n", f.name, ls, m.Value()); err != nil {
					return total, err
				}
			case *FloatGauge:
				if err := wr("%s%s %s\n", f.name, ls, formatFloat(m.Value())); err != nil {
					return total, err
				}
			case *Histogram:
				cum := uint64(0)
				for bi, bound := range m.bounds {
					cum += m.counts[bi].Load()
					ls := labelString(f.labels, values, "le", formatFloat(bound))
					if err := wr("%s_bucket%s %d\n", f.name, ls, cum); err != nil {
						return total, err
					}
				}
				ls := labelString(f.labels, values, "le", "+Inf")
				exemplar := ""
				if openMetrics {
					if e, ok := m.Exemplar(); ok {
						exemplar = fmt.Sprintf(" # {trace_id=\"%s\"} %s", escapeLabel(e.TraceID), formatFloat(e.Value))
					}
				}
				if err := wr("%s_bucket%s %d%s\n", f.name, ls, m.Count(), exemplar); err != nil {
					return total, err
				}
				if err := wr("%s_sum%s %s\n", f.name, labelString(f.labels, values), formatFloat(m.Sum())); err != nil {
					return total, err
				}
				if err := wr("%s_count%s %d\n", f.name, labelString(f.labels, values), m.Count()); err != nil {
					return total, err
				}
			}
		}
	}
	if openMetrics {
		if err := wr("# EOF\n"); err != nil {
			return total, err
		}
	}
	return total, nil
}

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape target. Scrapers that advertise OpenMetrics support in the
// Accept header additionally receive histogram exemplars.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			_, _ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
