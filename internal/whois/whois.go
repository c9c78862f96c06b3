// Package whois provides registrar-of-record history for domains — the
// role DomainTools WHOIS history plays in the paper's methodology
// (identifying which registrar managed a nameserver's domain at the time
// of a rename).
//
// The history is append-only: each record states that a registrar became
// the sponsor of a domain on a given day. Lookups return the sponsor in
// effect on any day.
package whois

import (
	"sort"

	"repro/internal/dates"
	"repro/internal/dnsname"
)

// Record is one sponsorship change event.
type Record struct {
	Day       dates.Day
	Registrar string
}

// History is a WHOIS history database. The zero value is empty and ready
// to use via New.
type History struct {
	byDomain map[dnsname.Name][]Record
}

// New returns an empty history database.
func New() *History {
	return &History{byDomain: make(map[dnsname.Name][]Record)}
}

// Observe records that registrar became the sponsor of domain on day.
// Observations may arrive out of order; Lookup sorts lazily on first use
// per domain via the invariant check below, so Observe keeps records
// sorted on insert instead.
func (h *History) Observe(domain dnsname.Name, day dates.Day, registrar string) {
	recs := h.byDomain[domain]
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Day > day })
	recs = append(recs, Record{})
	copy(recs[i+1:], recs[i:])
	recs[i] = Record{Day: day, Registrar: registrar}
	h.byDomain[domain] = recs
}

// RegistrarOn returns the sponsor of domain in effect on day, or "" when
// the domain has no history on or before day.
func (h *History) RegistrarOn(domain dnsname.Name, day dates.Day) string {
	recs := h.byDomain[domain]
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Day > day })
	if i == 0 {
		return ""
	}
	return recs[i-1].Registrar
}
