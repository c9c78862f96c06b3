package analysis

import (
	"sort"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/idioms"
	"repro/internal/interval"
)

// IdiomRow is one row of Table 1 or Table 2.
type IdiomRow struct {
	Idiom           idioms.ID
	Registrar       string
	Nameservers     int
	AffectedDomains int
	// Example shows one generated renaming for hijackable idioms
	// (Table 2's last column).
	Example string
}

// IdiomTable is Table 1 (non-hijackable) or Table 2 (hijackable).
type IdiomTable struct {
	Rows []IdiomRow
	// TotalNameservers and TotalDomains deduplicate across rows: a
	// domain affected by two idioms counts once in the total.
	TotalNameservers int
	TotalDomains     int
}

// idiomTable aggregates sacrificial nameservers by idiom for one class.
func (a *Analysis) idiomTable(class idioms.Class) *IdiomTable {
	type agg struct {
		ns      int
		domains map[dnsname.Name]bool
		example string
	}
	perIdiom := make(map[idioms.ID]*agg)
	allDomains := make(map[dnsname.Name]bool)
	total := 0
	a.each(func(s *detect.Sacrificial) {
		if s.Class != class || !a.inWindow(s) {
			return
		}
		g := perIdiom[s.Idiom]
		if g == nil {
			g = &agg{domains: make(map[dnsname.Name]bool)}
			perIdiom[s.Idiom] = g
		}
		g.ns++
		total++
		if g.example == "" {
			g.example = string(s.NS)
		}
		for _, d := range s.Domains {
			g.domains[d.Name] = true
			allDomains[d.Name] = true
		}
	})
	t := &IdiomTable{TotalNameservers: total, TotalDomains: len(allDomains)}
	for _, id := range idioms.ByClass(class) {
		g := perIdiom[id.ID]
		if g == nil {
			continue
		}
		t.Rows = append(t.Rows, IdiomRow{
			Idiom:           id.ID,
			Registrar:       id.Registrar,
			Nameservers:     g.ns,
			AffectedDomains: len(g.domains),
			Example:         g.example,
		})
	}
	return t
}

// Table1 reports the non-hijackable sink-domain idioms.
func (a *Analysis) Table1() *IdiomTable { return a.idiomTable(idioms.NonHijackable) }

// Table2 reports the hijackable random-name idioms.
func (a *Analysis) Table2() *IdiomTable { return a.idiomTable(idioms.Hijackable) }

// Table6 reports the protected idioms adopted after the notification
// campaign. Unlike Tables 1-2 it covers the full data range (the paper
// reports it "as of September 2021").
func (a *Analysis) Table6() *IdiomTable {
	saved := a.window
	a.window = dates.NewRange(saved.First, saved.Last.Add(400))
	t := a.idiomTable(idioms.Protected)
	a.window = saved
	return t
}

// Table3Row summarizes hijackable vs hijacked counts.
type Table3 struct {
	HijackableNS      int
	HijackedNS        int
	HijackableDomains int
	HijackedDomains   int
}

// NSFraction returns the hijacked share of hijackable nameservers.
func (t *Table3) NSFraction() float64 {
	if t.HijackableNS == 0 {
		return 0
	}
	return float64(t.HijackedNS) / float64(t.HijackableNS)
}

// DomainFraction returns the hijacked share of hijackable domains.
func (t *Table3) DomainFraction() float64 {
	if t.HijackableDomains == 0 {
		return 0
	}
	return float64(t.HijackedDomains) / float64(t.HijackableDomains)
}

// Table3 computes the hijacking summary (§5.1): a domain is hijacked if
// it delegated to a hijacked sacrificial nameserver while the
// nameserver's domain was registered to the hijacker.
func (a *Analysis) Table3() *Table3 {
	t := &Table3{}
	hijackable := make(map[dnsname.Name]bool)
	hijacked := make(map[dnsname.Name]bool)
	a.each(func(s *detect.Sacrificial) {
		if !s.Hijackable() || !a.inWindow(s) {
			return
		}
		t.HijackableNS++
		isHijacked := s.Hijacked() && a.window.Contains(s.HijackedOn)
		if isHijacked {
			t.HijackedNS++
		}
		for _, d := range s.Domains {
			hijackable[d.Name] = true
			if isHijacked && d.Spans.Last() >= s.HijackedOn {
				hijacked[d.Name] = true
			}
		}
	})
	t.HijackableDomains = len(hijackable)
	t.HijackedDomains = len(hijacked)
	return t
}

// HijackerRow is one row of Table 4: a bulk hijacker identified by the
// registered domain of the controlling nameservers it installs.
type HijackerRow struct {
	NSDomain dnsname.Name
	NS       int // sacrificial nameserver domains registered
	Domains  int // distinct domains hijacked
}

// Table4 attributes hijacked sacrificial nameservers to bulk hijackers by
// the nameservers installed on the registered sacrificial domains — the
// only attribution signal zone data offers (§6.2).
func (a *Analysis) Table4(top int) []HijackerRow {
	type agg struct {
		ns      int
		domains map[dnsname.Name]bool
	}
	groups := make(map[dnsname.Name]*agg)
	a.each(func(s *detect.Sacrificial) {
		if !s.Hijacked() || !a.inWindow(s) {
			return
		}
		// Controlling nameservers: the NS records installed on the
		// registered sacrificial domain at (or after) the hijack.
		// Variants like protectdelegation.{ca,eu,com} group by their
		// second-level label, as the paper presents them.
		controllers := make(map[dnsname.Name]bool)
		a.db.EachNSOf(s.RegDomain, func(ns dnsname.Name, spans *interval.Set) bool {
			if spans.Last() >= s.HijackedOn {
				if reg, ok := dnsname.RegisteredDomain(ns); ok {
					key := reg
					if sld, ok := dnsname.SecondLevelLabel(ns); ok {
						key = dnsname.Name(sld)
					}
					controllers[key] = true
				}
			}
			return true
		})
		for c := range controllers {
			g := groups[c]
			if g == nil {
				g = &agg{domains: make(map[dnsname.Name]bool)}
				groups[c] = g
			}
			g.ns++
			for _, d := range s.Domains {
				if d.Spans.Last() >= s.HijackedOn {
					g.domains[d.Name] = true
				}
			}
		}
	})
	rows := make([]HijackerRow, 0, len(groups))
	for c, g := range groups {
		rows = append(rows, HijackerRow{NSDomain: c, NS: g.ns, Domains: len(g.domains)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Domains != rows[j].Domains {
			return rows[i].Domains > rows[j].Domains
		}
		return rows[i].NSDomain < rows[j].NSDomain
	})
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	return rows
}
