package analysis

import (
	"sort"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/idioms"
	"repro/internal/interval"
	"repro/internal/resolve"
)

// PartialStats reports the §5.6 population: domains that, on the given
// day, delegate to at least one hijackable sacrificial nameserver AND at
// least one working nameserver — owners with functioning nameservice who
// likely have no idea they are exposed.
type PartialStats struct {
	Date dates.Day
	// FullyExposed domains have only sacrificial nameservers left.
	FullyExposed int
	// PartiallyExposed domains keep at least one resolvable nameserver.
	PartiallyExposed int
	// PartiallyHijacked counts partially exposed domains whose
	// sacrificial nameserver is registered by an outside party.
	PartiallyHijacked int
}

// Partial computes the partially-exposed population on day.
func (a *Analysis) Partial(day dates.Day) PartialStats {
	stats := PartialStats{Date: day}
	static := resolve.NewStatic(a.db)
	type state struct {
		partial  bool
		hijacked bool
	}
	exposed := make(map[dnsname.Name]*state)
	a.each(func(s *detect.Sacrificial) {
		if !s.Hijackable() || s.Created > day {
			return
		}
		hijackedNow := s.Hijacked() && s.HijackedOn <= day && a.db.DomainRegisteredOn(s.RegDomain, day)
		for _, d := range s.Domains {
			if !d.Spans.Contains(day) {
				continue
			}
			st := exposed[d.Name]
			if st == nil {
				st = &state{}
				exposed[d.Name] = st
				// Partial if any OTHER nameserver of the domain resolves.
				for _, ns := range a.db.NSOn(d.Name, day) {
					if a.res.Lookup(ns) != nil {
						continue
					}
					if static.ResolvableOn(ns, day) {
						st.partial = true
						break
					}
				}
			}
			if hijackedNow {
				st.hijacked = true
			}
		}
	})
	for _, st := range exposed {
		if st.partial {
			stats.PartiallyExposed++
			if st.hijacked {
				stats.PartiallyHijacked++
			}
		} else {
			stats.FullyExposed++
		}
	}
	return stats
}

// AccidentReport reconstructs the §4 Namecheap timeline from zone data,
// given the accident nameserver names (external knowledge, as in the
// paper).
type AccidentReport struct {
	// Day is the accident date (first appearance of the accident names).
	Day dates.Day
	// PeakDomains is the number of domains delegated to accident names
	// on the accident day.
	PeakDomains int
	// AfterThreeDays counts domains still delegated three days later.
	AfterThreeDays int
	// Residual counts domains still delegated at the end of observation.
	Residual int
}

// Accident computes the accident timeline. accidentNS lists the renamed
// host names; endOfData is the last observed day.
func (a *Analysis) Accident(accidentNS []dnsname.Name, endOfData dates.Day) *AccidentReport {
	rep := &AccidentReport{Day: dates.None}
	for _, ns := range accidentNS {
		if f := a.db.NSFirstSeen(ns); f != dates.None && (rep.Day == dates.None || f < rep.Day) {
			rep.Day = f
		}
	}
	if rep.Day == dates.None {
		return rep
	}
	peak := make(map[dnsname.Name]bool)
	after := make(map[dnsname.Name]bool)
	residual := make(map[dnsname.Name]bool)
	for _, ns := range accidentNS {
		a.db.EachDomainOf(ns, func(domain dnsname.Name, spans *interval.Set) bool {
			if spans.Contains(rep.Day) {
				peak[domain] = true
			}
			if spans.Contains(rep.Day.Add(3)) {
				after[domain] = true
			}
			if spans.Contains(endOfData) {
				residual[domain] = true
			}
			return true
		})
	}
	rep.PeakDomains = len(peak)
	rep.AfterThreeDays = len(after)
	rep.Residual = len(residual)
	return rep
}

// PopularExposure counts how many of the popular domains (the Alexa
// Top-1M stand-in) were ever hijackable inside the window (§5.6's ~500
// of the Top 1M).
func (a *Analysis) PopularExposure(popular map[dnsname.Name]bool) int {
	seen := make(map[dnsname.Name]bool)
	a.each(func(s *detect.Sacrificial) {
		if !s.Hijackable() || !a.inWindow(s) {
			return
		}
		for _, d := range s.Domains {
			if popular[d.Name] {
				seen[d.Name] = true
			}
		}
	})
	return len(seen)
}

// Funnel re-exports the detection funnel for reporting alongside the
// analyses.
func (a *Analysis) Funnel() detect.Funnel { return a.res.Funnel }

// TimelineRow summarizes one idiom's era: when its sacrificial names
// first and last appeared, and how many were created.
type TimelineRow struct {
	Idiom       idioms.ID
	Registrar   string
	Class       idioms.Class
	FirstSeen   dates.Day
	LastSeen    dates.Day
	Nameservers int
}

// IdiomTimeline reconstructs the idiom eras the paper narrates in §4
// (GoDaddy's PLEASEDROPTHISHOST giving way to DROPTHISHOST in 2015,
// Enom's 123.BIZ to random names in 2012, the protected idioms appearing
// only after the notification campaign) purely from detection output.
func (a *Analysis) IdiomTimeline() []TimelineRow {
	byIdiom := make(map[idioms.ID]*TimelineRow)
	a.each(func(s *detect.Sacrificial) {
		row := byIdiom[s.Idiom]
		if row == nil {
			id := idioms.Lookup(s.Idiom)
			row = &TimelineRow{
				Idiom: s.Idiom, FirstSeen: s.Created, LastSeen: s.Created,
			}
			if id != nil {
				row.Registrar, row.Class = id.Registrar, id.Class
			}
			byIdiom[s.Idiom] = row
		}
		if s.Created < row.FirstSeen {
			row.FirstSeen = s.Created
		}
		if s.Created > row.LastSeen {
			row.LastSeen = s.Created
		}
		row.Nameservers++
	})
	rows := make([]TimelineRow, 0, len(byIdiom))
	for _, r := range byIdiom {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].FirstSeen != rows[j].FirstSeen {
			return rows[i].FirstSeen < rows[j].FirstSeen
		}
		return rows[i].Idiom < rows[j].Idiom
	})
	return rows
}
