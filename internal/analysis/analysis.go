// Package analysis computes every table and figure of the paper's
// evaluation from a detection result and the longitudinal zone database:
//
//	Table 1  non-hijackable renaming idioms
//	Table 2  hijackable renaming idioms
//	Table 3  hijackable vs hijacked totals
//	Table 4  top bulk hijackers by controlling nameserver
//	Table 5  remediation deltas vs the organic baseline
//	Table 6  protected idioms adopted after outreach
//	Fig. 3   new hijackable domains per month
//	Fig. 4   new hijacked domains per month
//	Fig. 5   hijack value vs number of delegated domains
//	Fig. 6   time-to-exploit CDFs (nameservers and domains)
//	Fig. 7   hijackable/hijacked duration CDFs
//
// plus the §3.2 candidate funnel, the §4 accident timeline, and the §5.6
// partially-hijacked population.
package analysis

import (
	"sort"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/whois"
	"repro/internal/zonedb"
)

// Analysis evaluates one detection result.
type Analysis struct {
	res *detect.Result
	// db is the view pinned by New: every table and figure of one
	// Analysis reads the same generation, lock-free.
	db *zonedb.View

	// exclude lists nameservers to drop from all analyses — the paper
	// excludes the Namecheap-accident names on the strength of direct
	// communication with the registrar, an input external to detection.
	exclude map[dnsname.Name]bool

	// window bounds the longitudinal analyses (the paper's Apr 2011 -
	// Sep 2020).
	window dates.Range

	// who is the registrar-of-record history; optional, required only by
	// the attribution analyses (WithWHOIS).
	who *whois.History
}

// WithWHOIS attaches registrar-of-record history, enabling attribution
// analyses such as RemediationAttribution. Returns a for chaining.
func (a *Analysis) WithWHOIS(h *whois.History) *Analysis {
	a.who = h
	return a
}

// New creates an Analysis over res and db's published view with the given
// observation window. excludeNS may be nil.
func New(res *detect.Result, db *zonedb.DB, window dates.Range, excludeNS []dnsname.Name) *Analysis {
	ex := make(map[dnsname.Name]bool, len(excludeNS))
	for _, ns := range excludeNS {
		ex[ns] = true
	}
	return &Analysis{res: res, db: db.View(), exclude: ex, window: window}
}

// Window returns the analysis window.
func (a *Analysis) Window() dates.Range { return a.window }

// each iterates the included sacrificial nameservers.
func (a *Analysis) each(fn func(s *detect.Sacrificial)) {
	for i := range a.res.Sacrificial {
		s := &a.res.Sacrificial[i]
		if a.exclude[s.NS] {
			continue
		}
		fn(s)
	}
}

// inWindow reports whether the nameserver was created inside the
// analysis window.
func (a *Analysis) inWindow(s *detect.Sacrificial) bool {
	return a.window.Contains(s.Created)
}

// CDF is an empirical distribution over integer samples (days).
type CDF struct {
	samples []int
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []int) *CDF {
	s := make([]int, len(samples))
	copy(s, samples)
	sort.Ints(s)
	return &CDF{samples: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.samples) }

// At returns P(X <= x).
func (c *CDF) At(x int) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	i := sort.SearchInts(c.samples, x+1)
	return float64(i) / float64(len(c.samples))
}

// Quantile returns the smallest sample s with At(s) >= p.
func (c *CDF) Quantile(p float64) int {
	if len(c.samples) == 0 {
		return 0
	}
	i := int(p*float64(len(c.samples))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.samples) {
		i = len(c.samples) - 1
	}
	return c.samples[i]
}

// Samples returns the sorted samples (owned by the CDF).
func (c *CDF) Samples() []int { return c.samples }

// Points renders the CDF as (x, fraction) pairs, one per distinct value,
// suitable for plotting or CSV emission.
func (c *CDF) Points() [][2]float64 {
	var out [][2]float64
	n := len(c.samples)
	for i := 0; i < n; {
		j := i
		for j < n && c.samples[j] == c.samples[i] {
			j++
		}
		out = append(out, [2]float64{float64(c.samples[i]), float64(j) / float64(n)})
		i = j
	}
	return out
}

// MonthlySeries is a per-month count series (Figures 3 and 4).
type MonthlySeries struct {
	Months []dates.Month
	Counts []int
}

// Total sums the series.
func (m *MonthlySeries) Total() int {
	t := 0
	for _, c := range m.Counts {
		t += c
	}
	return t
}

// TrendSlope fits a least-squares line to the counts and returns its
// slope in domains/month — negative when the series trends downward
// (Figure 3's finding).
func (m *MonthlySeries) TrendSlope() float64 {
	n := float64(len(m.Counts))
	if n < 2 {
		return 0
	}
	var sumX, sumY, sumXY, sumXX float64
	for i, c := range m.Counts {
		x, y := float64(i), float64(c)
		sumX += x
		sumY += y
		sumXY += x * y
		sumXX += x * x
	}
	denom := n*sumXX - sumX*sumX
	if denom == 0 {
		return 0
	}
	return (n*sumXY - sumX*sumY) / denom
}

// newMonthlySeries allocates a zeroed series over the window.
func (a *Analysis) newMonthlySeries() *MonthlySeries {
	months := dates.MonthsBetween(a.window.First.Month(), a.window.Last.Month())
	return &MonthlySeries{Months: months, Counts: make([]int, len(months))}
}

// bump increments the month bucket containing day, ignoring days outside
// the window.
func (m *MonthlySeries) bump(day dates.Day) {
	if len(m.Months) == 0 {
		return
	}
	idx := int(day.Month() - m.Months[0])
	if idx >= 0 && idx < len(m.Counts) {
		m.Counts[idx]++
	}
}
