package slo

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

func snap(bounds []float64, counts ...uint64) obs.BucketSnapshot {
	s := obs.BucketSnapshot{Bounds: bounds, Counts: counts}
	for _, c := range counts {
		s.Count += c
	}
	return s
}

func TestQuantileEmpty(t *testing.T) {
	if q := Quantile(obs.BucketSnapshot{}, 0.5); !math.IsNaN(q) {
		t.Errorf("empty snapshot: got %v, want NaN", q)
	}
	s := snap([]float64{1, 2}, 3, 4, 0)
	if q := Quantile(s, -0.1); !math.IsNaN(q) {
		t.Errorf("q<0: got %v, want NaN", q)
	}
	if q := Quantile(s, 1.1); !math.IsNaN(q) {
		t.Errorf("q>1: got %v, want NaN", q)
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	// All mass in one bucket [0, 1]: quantiles interpolate linearly
	// through it, assuming a uniform distribution inside the bucket.
	s := snap([]float64{1}, 10, 0)
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 0.5},
		{1.0, 1.0},
		{0.1, 0.1},
	} {
		if got := Quantile(s, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(single, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileInterpolation(t *testing.T) {
	// Mass split across buckets (0,1], (1,2], (2,4]; the median lands
	// inside (1,2] and interpolates against that bucket's count.
	s := snap([]float64{1, 2, 4}, 2, 10, 8, 0) // Count = 20
	// rank(0.5) = 10; bucket (1,2] spans cumulative (2,12]:
	// 1 + (2-1)*(10-2)/10 = 1.8.
	if got := Quantile(s, 0.5); math.Abs(got-1.8) > 1e-9 {
		t.Errorf("Quantile(0.5) = %v, want 1.8", got)
	}
	// rank(0.9) = 18; bucket (2,4] spans (12,20]: 2 + 2*(18-12)/8 = 3.5.
	if got := Quantile(s, 0.9); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("Quantile(0.9) = %v, want 3.5", got)
	}
}

func TestQuantileOverflow(t *testing.T) {
	// 80% of the mass is past the largest bound: high quantiles land in
	// the overflow bucket and degrade to the largest finite bound — the
	// estimator reports the largest value it can vouch for.
	s := snap([]float64{1, 2}, 1, 1, 8)
	if got := Quantile(s, 0.99); got != 2 {
		t.Errorf("overflow quantile = %v, want largest bound 2", got)
	}
	// A low quantile still resolves inside the finite buckets.
	if got := Quantile(s, 0.1); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Quantile(0.1) = %v, want 1.0", got)
	}
}

func TestGoodCount(t *testing.T) {
	s := snap([]float64{0.1, 0.25, 1}, 5, 3, 2, 1) // Count = 11
	for _, tc := range []struct {
		threshold float64
		want      uint64
	}{
		{0.25, 8}, // exact bound: buckets <= 0.25
		{0.5, 10}, // straddles (0.25,1]: whole bucket rounds up to good
		{0.05, 5}, // straddles (0,0.1]
		{2, 10},   // all finite buckets good; overflow is always bad
		{0.1, 5},  // exact first bound
	} {
		if got := GoodCount(s, tc.threshold); got != tc.want {
			t.Errorf("GoodCount(%v) = %d, want %d", tc.threshold, got, tc.want)
		}
	}
}

func TestTrackerBurnRate(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("req_seconds", "request latency", []float64{0.25, 1})
	tr := NewTracker(reg)
	now := time.Unix(1000, 0)
	tr.Now = func() time.Time { return now }

	// 90% under 250ms: the error budget is 10%.
	obj := Objective{Name: "latency", Target: 0.9, Threshold: 0.25}
	tr.Track(obj, h)

	// Baseline: no traffic yet.
	reps := tr.Evaluate()
	if len(reps) != 1 || len(reps[0].Windows) != 2 {
		t.Fatalf("reports = %+v", reps)
	}
	if w := reps[0].Windows; w[0].Window != 5*time.Minute || w[1].Window != time.Hour {
		t.Fatalf("windows = %v and %v, want 5m and 1h", w[0].Window, w[1].Window)
	}
	if w := reps[0].Windows[0]; w.Count != 0 || !w.Met {
		t.Errorf("empty window = %+v, want count 0, met", w)
	}

	// 100 requests, 5 over threshold: error rate 5%, burn 0.5 (within
	// the 10% budget).
	for i := 0; i < 95; i++ {
		h.Observe(0.1)
	}
	for i := 0; i < 5; i++ {
		h.Observe(0.9)
	}
	now = now.Add(time.Minute)
	reps = tr.Evaluate()
	w := reps[0].Windows[0]
	if w.Count != 100 {
		t.Fatalf("window count = %d, want 100", w.Count)
	}
	if math.Abs(w.ErrorRate-0.05) > 1e-9 || math.Abs(w.BurnRate-0.5) > 1e-9 {
		t.Errorf("error %v burn %v, want 0.05 / 0.5", w.ErrorRate, w.BurnRate)
	}
	if !w.Met || !reps[0].Met {
		t.Error("burn 0.5 should meet the objective")
	}

	// 20 more requests, all bad: the rolling window now holds 120 with
	// 25 bad → error ~20.8%, burn ~2.08 → burning.
	for i := 0; i < 20; i++ {
		h.Observe(0.9)
	}
	now = now.Add(time.Minute)
	reps = tr.Evaluate()
	w = reps[0].Windows[0]
	if w.Count != 120 {
		t.Fatalf("window count = %d, want 120", w.Count)
	}
	if w.Met || reps[0].Met {
		t.Errorf("burn %v should violate the objective", w.BurnRate)
	}

	// Advance past the short window with no traffic: the old errors age
	// out of it and its burn rate resets, while the hour still holds
	// them.
	now = now.Add(6 * time.Minute)
	tr.Evaluate()
	now = now.Add(6 * time.Minute)
	reps = tr.Evaluate()
	w = reps[0].Windows[0]
	if w.Count != 0 || !w.Met {
		t.Errorf("after idle window: %+v, want empty and met", w)
	}
	if long := reps[0].Windows[1]; long.Count != 120 || long.Met || reps[0].Met {
		t.Errorf("hour window after 14 idle minutes: %+v, want 120 observations, burning", long)
	}

	if got := tr.Reports(); len(got) != 1 {
		t.Errorf("Reports() = %d entries, want 1", len(got))
	}
}

func TestTrackerQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("q_seconds", "latency", []float64{0.1, 0.5, 1})
	tr := NewTracker(reg)
	now := time.Unix(2000, 0)
	tr.Now = func() time.Time { return now }
	tr.Track(Objective{Name: "q", Target: 0.99, Threshold: 0.5}, h)

	for i := 0; i < 100; i++ {
		h.Observe(0.05) // all in the first bucket
	}
	now = now.Add(time.Minute)
	rep := tr.Evaluate()[0]
	if math.IsNaN(rep.P50) || rep.P50 > 0.1 {
		t.Errorf("P50 = %v, want <= 0.1", rep.P50)
	}
	if rep.P99 > 0.1 {
		t.Errorf("P99 = %v, want <= 0.1", rep.P99)
	}
}
