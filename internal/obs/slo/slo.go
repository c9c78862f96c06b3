// Package slo turns the obs package's fixed-bucket histograms into
// service-level signals: a quantile estimator over bucket snapshots and
// a rolling multi-window burn-rate tracker for latency objectives.
//
// An Objective says "Target fraction of requests complete within
// Threshold seconds" (e.g. 99% under 250ms). The Tracker snapshots the
// tracked histograms on every Evaluate, diffs against snapshots from
// window-ago, and computes per-window error rates and burn rates:
//
//	error rate = fraction of observations above Threshold in the window
//	burn rate  = error rate / (1 - Target)
//
// A burn rate of 1 spends the error budget exactly as fast as the SLO
// allots; sustained rates above 1 forecast a violation (the multi-window
// convention from the SRE workbook — a short window catches fast burns,
// a long window catches slow leaks). Results are exported as slo_*
// gauges and kept for /statusz.
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

// merge sums snapshots from several histograms sharing a bucket layout
// (e.g. every /v1 route's latency histogram) into one.
func merge(snaps []obs.BucketSnapshot) obs.BucketSnapshot {
	if len(snaps) == 0 {
		return obs.BucketSnapshot{}
	}
	out := obs.BucketSnapshot{Bounds: snaps[0].Bounds, Counts: make([]uint64, len(snaps[0].Counts))}
	for _, s := range snaps {
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

// Budget returns the error budget 1 - Target.
func (o Objective) Budget() float64 { return 1 - o.Target }

// WindowReport is one rolling window's burn-rate evaluation.
type WindowReport struct {
	Window    time.Duration
	Covered   time.Duration // actual span of the diffed snapshots (< Window during warm-up)
	Count     uint64        // observations in the window
	ErrorRate float64       // bad / total (0 when the window is empty)
	BurnRate  float64       // ErrorRate / budget
	Met       bool          // BurnRate <= 1
}

// Report is one objective's full evaluation.
type Report struct {
	Objective Objective
	Windows   []WindowReport
	// P50/P95/P99 are latency quantiles over the longest window.
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

// tracked is one objective under observation.
type tracked struct {
	obj   Objective
	hists []*obs.Histogram
	ring  []timedSnapshot
}

// windows are the rolling evaluation windows every objective is judged
// over, shortest first: the short one catches fast burns, the long one
// slow leaks.
var windows = [...]time.Duration{5 * time.Minute, time.Hour}

// interval is the cadence of the background loop Start runs.
const interval = 15 * time.Second

// Tracker evaluates objectives over histograms on a cadence. Create
// with NewTracker, add objectives with Track, then either call Evaluate
// on your own schedule or Start a background loop.
type Tracker struct {
	// Now supplies the clock; overridable in tests. Defaults to time.Now.
	Now func() time.Time

	reg *obs.Registry

	burn    *obs.FloatGaugeVec // slo_burn_rate{slo,window}
	errRate *obs.FloatGaugeVec // slo_error_rate{slo,window}
	quant   *obs.FloatGaugeVec // slo_latency_seconds{slo,quantile}
	met     *obs.GaugeVec      // slo_met{slo}

	mu      sync.Mutex
	tracked []*tracked
	last    []Report

	stopOnce sync.Once
	done     chan struct{}
}

// NewTracker creates a tracker exporting slo_* metrics into reg.
func NewTracker(reg *obs.Registry) *Tracker {
	return &Tracker{
		Now:     time.Now,
		reg:     reg,
		burn:    reg.FloatGaugeVec("slo_burn_rate", "Error-budget burn rate per rolling window (1 = spending exactly the budget).", "slo", "window"),
		errRate: reg.FloatGaugeVec("slo_error_rate", "Fraction of observations over the SLO threshold per rolling window.", "slo", "window"),
		quant:   reg.FloatGaugeVec("slo_latency_seconds", "Estimated latency quantiles over the longest rolling window.", "slo", "quantile"),
		met:     reg.GaugeVec("slo_met", "Whether every window's burn rate is within budget (1 yes, 0 no).", "slo"),
		done:    make(chan struct{}),
	}
}

// Track registers an objective over one or more histograms (their
// snapshots are summed; they must share a bucket layout), evaluated
// over 5 m and 1 h windows.
func (t *Tracker) Track(obj Objective, hists ...*obs.Histogram) {
	// Seed the ring with the histograms' current state so the first
	// Evaluate reports observations since Track, not an empty diff.
	snaps := make([]obs.BucketSnapshot, len(hists))
	for i, h := range hists {
		snaps[i] = h.Snapshot()
	}
	seed := timedSnapshot{at: t.now(), s: merge(snaps)}
	t.mu.Lock()
	t.tracked = append(t.tracked, &tracked{obj: obj, hists: hists, ring: []timedSnapshot{seed}})
	t.mu.Unlock()
}

// Evaluate snapshots every tracked histogram, computes per-window burn
// rates, exports the slo_* gauges, and returns (and retains, for
// Reports) the evaluations.
func (t *Tracker) Evaluate() []Report {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	reports := make([]Report, 0, len(t.tracked))
	for _, tr := range t.tracked {
		snaps := make([]obs.BucketSnapshot, len(tr.hists))
		for i, h := range tr.hists {
			snaps[i] = h.Snapshot()
		}
		cur := timedSnapshot{at: now, s: merge(snaps)}
		maxW := windows[len(windows)-1]
		tr.ring = append(tr.ring, cur)
		// Prune samples older than the longest window (keeping one beyond
		// the boundary so a full window is always diffable).
		for len(tr.ring) > 2 && now.Sub(tr.ring[1].at) >= maxW {
			tr.ring = tr.ring[1:]
		}

		rep := Report{Objective: tr.obj, Met: true}
		budget := tr.obj.Budget()
		for _, w := range windows {
			old := oldestWithin(tr.ring, now, w)
			d := sub(cur.s, old.s)
			wr := WindowReport{Window: w, Covered: now.Sub(old.at), Count: d.Count, Met: true}
			if d.Count > 0 {
				good := GoodCount(d, tr.obj.Threshold)
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
			t.burn.With(tr.obj.Name, w.String()).Set(wr.BurnRate)
			t.errRate.With(tr.obj.Name, w.String()).Set(wr.ErrorRate)
		}
		longest := sub(cur.s, oldestWithin(tr.ring, now, maxW).s)
		rep.P50 = Quantile(longest, 0.50)
		rep.P95 = Quantile(longest, 0.95)
		rep.P99 = Quantile(longest, 0.99)
		for _, q := range []struct {
			l string
			v float64
		}{{"0.5", rep.P50}, {"0.95", rep.P95}, {"0.99", rep.P99}} {
			if !math.IsNaN(q.v) {
				t.quant.With(tr.obj.Name, q.l).Set(q.v)
			}
		}
		if rep.Met {
			t.met.With(tr.obj.Name).Set(1)
		} else {
			t.met.With(tr.obj.Name).Set(0)
		}
		reports = append(reports, rep)
	}
	t.last = reports
	return reports
}

// oldestWithin picks the baseline snapshot for a window ending now: the
// newest sample at least window old, or the oldest sample during
// warm-up (the report's Covered field says what was actually spanned).
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

// Reports returns the evaluations from the last Evaluate (nil before the
// first).
func (t *Tracker) Reports() []Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Report(nil), t.last...)
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
