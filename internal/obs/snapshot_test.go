package obs

import (
	"strings"
	"testing"
)

func TestFloatGauge(t *testing.T) {
	r := NewRegistry()
	g := r.FloatGauge("gc_cpu_fraction", "gc cpu")
	g.Set(0.25)
	if v := g.Value(); v != 0.25 {
		t.Errorf("Value = %v, want 0.25", v)
	}
	// FloatGauges render as gauges in the exposition.
	var sb strings.Builder
	r.WriteTo(&sb)
	out := sb.String()
	if !strings.Contains(out, "# TYPE gc_cpu_fraction gauge") {
		t.Errorf("exposition missing gauge TYPE:\n%s", out)
	}
	if !strings.Contains(out, "gc_cpu_fraction 0.25") {
		t.Errorf("exposition missing value:\n%s", out)
	}
}

func TestFloatGaugeVec(t *testing.T) {
	r := NewRegistry()
	vec := r.FloatGaugeVec("slo_burn", "burn", "slo", "window")
	vec.With("latency", "5m").Set(0.5)
	vec.With("latency", "1h").Set(2)
	var sb strings.Builder
	r.WriteTo(&sb)
	out := sb.String()
	if !strings.Contains(out, `slo_burn{slo="latency",window="5m"} 0.5`) {
		t.Errorf("exposition missing labeled sample:\n%s", out)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 0.5, 1})

	s := h.Snapshot()
	if s.Count != 0 || len(s.Counts) != 4 {
		t.Fatalf("empty snapshot = %+v, want 4 counts (3 finite + overflow)", s)
	}

	h.Observe(0.05) // bucket 0
	h.Observe(0.3)  // bucket 1
	h.Observe(0.7)  // bucket 2
	h.Observe(5)    // overflow: above the largest bound
	h.Observe(5)

	s = h.Snapshot()
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	want := []uint64{1, 1, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("Counts[%d] = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Sum < 11 || s.Sum > 11.1 {
		t.Errorf("Sum = %v, want ~11.05", s.Sum)
	}
	if len(s.Bounds) != 3 || s.Bounds[2] != 1 {
		t.Errorf("Bounds = %v", s.Bounds)
	}
}
