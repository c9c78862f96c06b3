// Package slo turns the obs package's fixed-bucket histograms into
// service-level signals: a quantile estimator over bucket snapshots and
// a rolling multi-window burn-rate tracker for one latency objective.
//
// An Objective says "Target fraction of requests complete within
// Threshold seconds" (e.g. 99% under 250ms). The Tracker snapshots its
// histograms on every Evaluate, diffs against snapshots from
// window-ago, and computes per-window error rates and burn rates:
//
//	error rate = fraction of observations above Threshold in the window
//	burn rate  = error rate / (1 - Target)
//
// A burn rate of 1 spends the error budget exactly as fast as the SLO
// allots; sustained rates above 1 forecast a violation (the multi-window
// convention from the SRE workbook — a short window catches fast burns,
// a long window catches slow leaks). Results are exported as slo_*
// gauges and kept for /statusz. A window with no requests estimates its
// quantiles as NaN, and slo_latency_seconds says NaN too rather than
// keeping the last busy window's values.
//
// Histogram observations above the largest finite bound land in no
// finite bucket; Quantile and the error-rate computation treat them as
// an overflow (+Inf) bucket, so a histogram whose buckets are too small
// degrades to conservative estimates instead of silently losing mass.
package slo

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
)

// Quantile estimates the q-quantile (0 <= q <= 1) of a histogram from a
// bucket snapshot, with linear interpolation inside the winning bucket
// (the same estimate Prometheus's histogram_quantile gives). The lower
// edge of the first bucket is taken as 0, so estimates assume
// non-negative observations — true for every latency histogram here.
//
// An empty snapshot or an out-of-range q returns NaN. A quantile landing
// in the overflow (+Inf) bucket returns the largest finite bound: the
// estimator cannot see past the bucket layout, so it reports the largest
// value it can vouch for.
func Quantile(s obs.BucketSnapshot, q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	if len(s.Bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1 // the quantile is at least the first observation
	}
	var cum float64
	for i, bound := range s.Bounds {
		prev := cum
		cum += float64(s.Counts[i])
		if cum >= rank {
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			inBucket := float64(s.Counts[i])
			if inBucket == 0 {
				return bound
			}
			return lower + (bound-lower)*(rank-prev)/inBucket
		}
	}
	// The rank lands in the overflow bucket.
	return s.Bounds[len(s.Bounds)-1]
}

// GoodCount returns how many observations in the snapshot were <=
// threshold, counting whole buckets: the threshold is rounded up to the
// nearest bucket bound, so a threshold between bounds attributes the
// whole straddling bucket to "good". Pick thresholds on bucket bounds
// for exact accounting.
func GoodCount(s obs.BucketSnapshot, threshold float64) uint64 {
	var good uint64
	for i, bound := range s.Bounds {
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		if bound <= threshold {
			good += s.Counts[i]
			continue
		}
		if lower < threshold {
			good += s.Counts[i] // straddling bucket rounds up to good
		}
		break
	}
	return good
}

// sub returns the element-wise difference cur - old (clamped at zero),
// i.e. the observations recorded between the two snapshots.
func sub(cur, old obs.BucketSnapshot) obs.BucketSnapshot {
	out := obs.BucketSnapshot{Bounds: cur.Bounds, Counts: make([]uint64, len(cur.Counts))}
	for i := range cur.Counts {
		var o uint64
		if i < len(old.Counts) {
			o = old.Counts[i]
		}
		if cur.Counts[i] > o {
			out.Counts[i] = cur.Counts[i] - o
		}
	}
	if cur.Count > old.Count {
		out.Count = cur.Count - old.Count
	}
	out.Sum = cur.Sum - old.Sum
	return out
}

// Objective is one latency SLO: Target fraction of requests within
// Threshold seconds.
type Objective struct {
	// Name labels the slo_* metrics and the /statusz row.
	Name string
	// Target is the good fraction required, in (0, 1) — 0.99 means 99%.
	Target float64
	// Threshold is the latency bound in seconds defining "good". Align
	// it with a histogram bucket bound for exact accounting.
	Threshold float64
}

// WindowReport is one rolling window's burn-rate evaluation.
type WindowReport struct {
	Window    time.Duration
	Count     uint64  // observations in the window
	ErrorRate float64 // bad / total (0 when the window is empty)
	BurnRate  float64 // ErrorRate / (1 - Target)
	Met       bool    // BurnRate <= 1
}

// Report is the objective's full evaluation.
type Report struct {
	Objective Objective
	Windows   []WindowReport
	// P50/P95/P99 are latency quantiles over the longest window (NaN
	// when it holds no observation).
	P50, P95, P99 float64
	// Met is true when every window's burn rate is within budget.
	Met bool
}

// String renders the report as one /statusz-friendly line.
func (r Report) String() string {
	s := fmt.Sprintf("%s (%.4g%% < %gs): p50=%s p95=%s p99=%s",
		r.Objective.Name, 100*r.Objective.Target, r.Objective.Threshold,
		fmtQuantile(r.P50), fmtQuantile(r.P95), fmtQuantile(r.P99))
	for _, w := range r.Windows {
		verdict := "OK"
		if !w.Met {
			verdict = "BURNING"
		}
		s += fmt.Sprintf(" · %s burn %.2f %s", w.Window, w.BurnRate, verdict)
	}
	return s
}

// fmtQuantile renders a latency quantile, or "-" before any traffic
// (an empty window estimates to NaN).
func fmtQuantile(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.4gs", v)
}

// timedSnapshot is one merged snapshot with its capture time.
type timedSnapshot struct {
	at time.Time
	s  obs.BucketSnapshot
}

// windows are the rolling evaluation windows the objective is judged
// over, shortest first: the short one catches fast burns, the long one
// slow leaks.
var windows = [...]time.Duration{5 * time.Minute, time.Hour}

// interval is the cadence of the background loop Start runs.
const interval = 15 * time.Second

// Tracker evaluates one objective over histograms on a cadence. Create
// with NewTracker, then either call Evaluate on your own schedule or
// Start a background loop.
type Tracker struct {
	// Now supplies the clock; overridable in tests. Defaults to time.Now.
	Now func() time.Time

	obj   Objective
	hists []*obs.Histogram

	burn    *obs.FloatGaugeVec // slo_burn_rate{slo,window}
	errRate *obs.FloatGaugeVec // slo_error_rate{slo,window}
	quant   *obs.FloatGaugeVec // slo_latency_seconds{slo,quantile}
	met     *obs.GaugeVec      // slo_met{slo}

	mu   sync.Mutex
	ring []timedSnapshot
	last Report

	stopOnce sync.Once
	done     chan struct{}
}

// NewTracker tracks obj over hists (their snapshots are summed; they
// must share a bucket layout), evaluated over 5 m and 1 h windows and
// exported as slo_* metrics into reg.
func NewTracker(reg *obs.Registry, obj Objective, hists ...*obs.Histogram) *Tracker {
	t := &Tracker{
		Now:     time.Now,
		obj:     obj,
		hists:   hists,
		burn:    reg.FloatGaugeVec("slo_burn_rate", "Error-budget burn rate per rolling window (1 = spending exactly the budget).", "slo", "window"),
		errRate: reg.FloatGaugeVec("slo_error_rate", "Fraction of observations over the SLO threshold per rolling window.", "slo", "window"),
		quant:   reg.FloatGaugeVec("slo_latency_seconds", "Estimated latency quantiles over the longest rolling window.", "slo", "quantile"),
		met:     reg.GaugeVec("slo_met", "Whether every window's burn rate is within budget (1 yes, 0 no).", "slo"),
		done:    make(chan struct{}),
	}
	// Seed the ring with the histograms' current state so the first
	// Evaluate reports observations since now, not an empty diff. The
	// seed's time is never read: it is every window's baseline until a
	// later sample is old enough to take its place.
	t.ring = []timedSnapshot{{s: t.snapshot()}}
	return t
}

// snapshot sums the tracked histograms' current buckets.
func (t *Tracker) snapshot() obs.BucketSnapshot {
	var out obs.BucketSnapshot
	for _, h := range t.hists {
		s := h.Snapshot()
		if out.Counts == nil {
			out.Bounds, out.Counts = s.Bounds, make([]uint64, len(s.Counts))
		}
		for i := range s.Counts {
			if i < len(out.Counts) {
				out.Counts[i] += s.Counts[i]
			}
		}
		out.Count += s.Count
		out.Sum += s.Sum
	}
	return out
}

// Evaluate snapshots the histograms, computes per-window burn rates,
// exports the slo_* gauges, and returns (and retains, for Report) the
// evaluation.
func (t *Tracker) Evaluate() Report {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := timedSnapshot{at: now, s: t.snapshot()}
	maxW := windows[len(windows)-1]
	t.ring = append(t.ring, cur)
	// Prune samples older than the longest window (keeping one beyond
	// the boundary so a full window is always diffable).
	for len(t.ring) > 2 && now.Sub(t.ring[1].at) >= maxW {
		t.ring = t.ring[1:]
	}

	name := t.obj.Name
	rep := Report{Objective: t.obj, Met: true}
	budget := 1 - t.obj.Target
	for _, w := range windows {
		d := sub(cur.s, oldestWithin(t.ring, now, w).s)
		wr := WindowReport{Window: w, Count: d.Count, Met: true}
		if d.Count > 0 {
			good := GoodCount(d, t.obj.Threshold)
			wr.ErrorRate = float64(d.Count-good) / float64(d.Count)
			if budget > 0 {
				wr.BurnRate = wr.ErrorRate / budget
			} else if wr.ErrorRate > 0 {
				wr.BurnRate = math.Inf(1)
			}
			wr.Met = wr.BurnRate <= 1
		}
		rep.Met = rep.Met && wr.Met
		rep.Windows = append(rep.Windows, wr)
		t.burn.With(name, w.String()).Set(wr.BurnRate)
		t.errRate.With(name, w.String()).Set(wr.ErrorRate)
	}
	longest := sub(cur.s, oldestWithin(t.ring, now, maxW).s)
	rep.P50 = Quantile(longest, 0.50)
	rep.P95 = Quantile(longest, 0.95)
	rep.P99 = Quantile(longest, 0.99)
	t.quant.With(name, "0.5").Set(rep.P50)
	t.quant.With(name, "0.95").Set(rep.P95)
	t.quant.With(name, "0.99").Set(rep.P99)
	if rep.Met {
		t.met.With(name).Set(1)
	} else {
		t.met.With(name).Set(0)
	}
	t.last = rep
	return rep
}

// oldestWithin picks the baseline snapshot for a window ending now: the
// newest sample at least window old, or the oldest sample during
// warm-up.
func oldestWithin(ring []timedSnapshot, now time.Time, window time.Duration) timedSnapshot {
	best := ring[0]
	for _, ts := range ring[1:] {
		if now.Sub(ts.at) >= window {
			best = ts
		} else {
			break
		}
	}
	return best
}

// Report returns the evaluation from the last Evaluate (the zero Report
// before the first).
func (t *Tracker) Report() Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

func (t *Tracker) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

// Start evaluates every 15 s until Stop.
func (t *Tracker) Start() {
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-t.done:
				return
			case <-tick.C:
				t.Evaluate()
			}
		}
	}()
}

// Stop ends the background loop started by Start. Idempotent.
func (t *Tracker) Stop() {
	t.stopOnce.Do(func() { close(t.done) })
}
