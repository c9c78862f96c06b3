package analysis

import (
	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
)

// ExposureSnapshot counts the live exposure on one day: sacrificial
// nameservers that still have delegated domains, split into vulnerable
// (domain registrable) and hijacked (domain registered by an outside
// party).
type ExposureSnapshot struct {
	Date              dates.Day
	VulnerableNS      int
	HijackedNS        int
	VulnerableDomains int
	HijackedDomains   int
}

// SnapshotOn computes the exposure as of day. A sacrificial nameserver
// "disappears" when it has no delegated domains left (§7.1).
func (a *Analysis) SnapshotOn(day dates.Day) ExposureSnapshot {
	snap := ExposureSnapshot{Date: day}
	vulnDomains := make(map[dnsname.Name]bool)
	hijDomains := make(map[dnsname.Name]bool)
	a.each(func(s *detect.Sacrificial) {
		if !s.Hijackable() || s.Created > day {
			return
		}
		live := 0
		for _, d := range s.Domains {
			if d.Spans.Contains(day) {
				live++
			}
		}
		if live == 0 {
			return
		}
		hijackedNow := s.Hijacked() && s.HijackedOn <= day && a.db.DomainRegisteredOn(s.RegDomain, day)
		if hijackedNow {
			snap.HijackedNS++
		} else {
			snap.VulnerableNS++
		}
		for _, d := range s.Domains {
			if !d.Spans.Contains(day) {
				continue
			}
			if hijackedNow {
				hijDomains[d.Name] = true
			} else {
				vulnDomains[d.Name] = true
			}
		}
	})
	snap.VulnerableDomains = len(vulnDomains)
	snap.HijackedDomains = len(hijDomains)
	return snap
}

// Table5 compares the exposure before and after the notification
// campaign, with the equivalent period a year earlier as the organic
// baseline (§7.1).
type Table5 struct {
	Before ExposureSnapshot // notification start (Sep 2020)
	After  ExposureSnapshot // follow-up (Feb 2021)
	// BaselineBefore/After cover Sep 2019 -> Feb 2020.
	BaselineBefore ExposureSnapshot
	BaselineAfter  ExposureSnapshot
	// Remediated is the gross disappearance across the notification
	// period; Organic is the same measure a year earlier.
	Remediated Disappearance
	Organic    Disappearance
}

// DeltaNS returns the post-notification change in vulnerable nameservers
// (negative = remediated).
func (t *Table5) DeltaNS() int { return t.After.VulnerableNS - t.Before.VulnerableNS }

// DeltaDomains returns the post-notification change in vulnerable domains.
func (t *Table5) DeltaDomains() int {
	return t.After.VulnerableDomains - t.Before.VulnerableDomains
}

// Disappearance counts gross remediation between two days: vulnerable
// nameservers (and their domains) present at the first day that are gone
// by the second — the measure the paper uses for the organic baseline
// ("we saw the disappearance of 4K sacrificial nameservers and 11K
// affected domains").
type Disappearance struct {
	From, To dates.Day
	NS       int
	Domains  int
}

// DisappearedBetween computes gross disappearance of vulnerable exposure
// between from and to.
func (a *Analysis) DisappearedBetween(from, to dates.Day) Disappearance {
	d := Disappearance{From: from, To: to}
	domainsGone := make(map[dnsname.Name]bool)
	domainsStill := make(map[dnsname.Name]bool)
	a.each(func(s *detect.Sacrificial) {
		if !s.Hijackable() || s.Created > from {
			return
		}
		if s.Hijacked() && s.HijackedOn <= from && a.db.DomainRegisteredOn(s.RegDomain, from) {
			return // hijacked, not vulnerable, at the start of the period
		}
		liveFrom, liveTo := 0, 0
		for _, dm := range s.Domains {
			if dm.Spans.Contains(from) {
				liveFrom++
				if dm.Spans.Contains(to) {
					liveTo++
					domainsStill[dm.Name] = true
				} else {
					domainsGone[dm.Name] = true
				}
			}
		}
		if liveFrom > 0 && liveTo == 0 {
			d.NS++
		}
	})
	for name := range domainsGone {
		if !domainsStill[name] {
			d.Domains++
		}
	}
	return d
}

// AttributionRow credits remediated domains to the registrar sponsoring
// them at notification time.
type AttributionRow struct {
	Registrar string
	Domains   int
}

// RemediationAttribution breaks the notification-period disappearance
// down by sponsoring registrar (§7.1: "nearly 60% of the domains
// remediated ... were a result of such actions from GoDaddy"). Requires
// WithWHOIS; returns nil otherwise.
func (a *Analysis) RemediationAttribution(notification, followup dates.Day) []AttributionRow {
	if a.who == nil {
		return nil
	}
	counts := make(map[string]int)
	seen := make(map[dnsname.Name]bool)
	a.each(func(s *detect.Sacrificial) {
		if !s.Hijackable() || s.Created > notification {
			return
		}
		for _, dm := range s.Domains {
			if seen[dm.Name] {
				continue
			}
			if dm.Spans.Contains(notification) && !dm.Spans.Contains(followup) {
				seen[dm.Name] = true
				rr := a.who.RegistrarOn(dm.Name, notification)
				if rr == "" {
					rr = "(unknown)"
				}
				counts[rr]++
			}
		}
	})
	rows := make([]AttributionRow, 0, len(counts))
	for rr, n := range counts {
		rows = append(rows, AttributionRow{Registrar: rr, Domains: n})
	}
	sortAttribution(rows)
	return rows
}

func sortAttribution(rows []AttributionRow) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0; j-- {
			a, b := rows[j-1], rows[j]
			if b.Domains > a.Domains || (b.Domains == a.Domains && b.Registrar < a.Registrar) {
				rows[j-1], rows[j] = b, a
			} else {
				break
			}
		}
	}
}

// Table5 computes the remediation comparison for the given notification
// and follow-up dates.
func (a *Analysis) Table5(notification, followup dates.Day) *Table5 {
	yearBackN := notification.AddYears(-1)
	yearBackF := followup.AddYears(-1)
	return &Table5{
		Before:         a.SnapshotOn(notification),
		After:          a.SnapshotOn(followup),
		BaselineBefore: a.SnapshotOn(yearBackN),
		BaselineAfter:  a.SnapshotOn(yearBackF),
		Remediated:     a.DisappearedBetween(notification, followup),
		Organic:        a.DisappearedBetween(yearBackN, yearBackF),
	}
}
