package zonedb

import (
	"sort"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
	"repro/internal/interval"
)

// tables is the complete fact state of one generation: the interval maps,
// the open-fact maps, and the traversal indexes. It is embedded by both
// the DB's private build generation (mutable, guarded by the DB mutex)
// and the published View (immutable). Every query is defined here once so
// the two stay behaviourally identical.
type tables struct {
	edges     map[Edge]*interval.Set
	openEdges map[Edge]dates.Day

	domains     map[dnsname.Name]*interval.Set
	openDomains map[dnsname.Name]dates.Day

	glue     map[dnsname.Name]*interval.Set
	openGlue map[dnsname.Name]dates.Day

	// byNS and byDomain index edge keys for traversal.
	byNS     map[dnsname.Name][]Edge
	byDomain map[dnsname.Name][]Edge

	// zones tracks which zones were ever observed (a domain name
	// determines its zone, but keeping the set makes zone listing cheap).
	zones map[dnsname.Name]bool

	closed   bool
	closeDay dates.Day
}

func newTables() tables {
	return tables{
		edges:       make(map[Edge]*interval.Set),
		openEdges:   make(map[Edge]dates.Day),
		domains:     make(map[dnsname.Name]*interval.Set),
		openDomains: make(map[dnsname.Name]dates.Day),
		glue:        make(map[dnsname.Name]*interval.Set),
		openGlue:    make(map[dnsname.Name]dates.Day),
		byNS:        make(map[dnsname.Name][]Edge),
		byDomain:    make(map[dnsname.Name][]Edge),
		zones:       make(map[dnsname.Name]bool),
	}
}

// View is one immutable published generation of the zone database.
// Readers obtain a View with DB.View() and hold it for a whole operation
// — an API request, a resolution run, a full detection pass — so every
// query they make observes the same consistent state, no matter how many
// ingests publish behind them. All methods are safe for concurrent use
// without locking.
type View struct {
	tables
	epoch  uint64
	change *Change // see Advance
}

// Epoch returns the view's publication sequence number. Epochs increase
// by one per publish on a given DB; two views with the same epoch from
// the same DB are the same view.
func (v *View) Epoch() uint64 { return v.epoch }

// Closed reports whether the view's generation was sealed by Close (or
// CloseZones); queries on an unclosed view see only intervals already
// ended by removal events.
func (v *View) Closed() bool { return v.closed }

// CloseDay returns the day the generation was sealed at (the latest
// zone's last day under CloseZones), or dates.None if never sealed.
func (v *View) CloseDay() dates.Day {
	if !v.closed {
		return dates.None
	}
	return v.closeDay
}

// Advance returns what the view changed from the epoch before it, when it
// is a plain dated advance of that epoch (see Change), and nil otherwise:
// the first view of a database, one published by CloseZones or Adopt, one
// whose parent was not sealed through a single day, or one that recorded
// a back- or future-dated event. A consumer holding epoch-1's answer can
// extend it from the listed facts alone; given nil it derives its answer
// from the whole view, as it would for any view.
func (v *View) Advance() *Change { return v.change }

// EdgeSpans returns the presence intervals of a delegation edge, or nil.
func (t *tables) EdgeSpans(domain, ns dnsname.Name) *interval.Set {
	return t.edges[Edge{Domain: domain, NS: ns}]
}

// DomainSpans returns the registration intervals of a domain, or nil if
// the domain was never observed.
func (t *tables) DomainSpans(domain dnsname.Name) *interval.Set {
	return t.domains[domain]
}

// GlueSpans returns the glue-presence intervals of a host, or nil.
func (t *tables) GlueSpans(host dnsname.Name) *interval.Set {
	return t.glue[host]
}

// DomainRegisteredOn reports whether domain was registered on day.
func (t *tables) DomainRegisteredOn(domain dnsname.Name, day dates.Day) bool {
	s, ok := t.domains[domain]
	return ok && s.Contains(day)
}

// DomainFirstSeen returns the first day domain was observed registered,
// or dates.None.
func (t *tables) DomainFirstSeen(domain dnsname.Name) dates.Day {
	s, ok := t.domains[domain]
	if !ok {
		return dates.None
	}
	return s.First()
}

// DomainFirstSeenAfter returns the first day >= from on which domain was
// registered, or dates.None.
func (t *tables) DomainFirstSeenAfter(domain dnsname.Name, from dates.Day) dates.Day {
	s, ok := t.domains[domain]
	if !ok {
		return dates.None
	}
	return s.NextOnOrAfter(from)
}

// NSFirstSeen returns the first day any domain delegated to ns, or
// dates.None if ns never appeared.
func (t *tables) NSFirstSeen(ns dnsname.Name) dates.Day {
	first := dates.None
	for _, e := range t.byNS[ns] {
		if f := t.edges[e].First(); f != dates.None && (first == dates.None || f < first) {
			first = f
		}
	}
	return first
}

// DomainsOf returns every domain that ever delegated to ns, sorted.
func (t *tables) DomainsOf(ns dnsname.Name) []dnsname.Name {
	edges := t.byNS[ns]
	out := make([]dnsname.Name, 0, len(edges))
	for _, e := range edges {
		out = append(out, e.Domain)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EdgesOf returns the delegation edges pointing at ns. The slice is owned
// by the store and must not be modified.
func (t *tables) EdgesOf(ns dnsname.Name) []Edge { return t.byNS[ns] }

// EachNSOf calls fn for every nameserver domain ever delegated to, with
// the presence intervals of that edge, in unspecified order, stopping if
// fn returns false. It allocates nothing.
func (t *tables) EachNSOf(domain dnsname.Name, fn func(ns dnsname.Name, spans *interval.Set) bool) {
	for _, e := range t.byDomain[domain] {
		if !fn(e.NS, t.edges[e]) {
			return
		}
	}
}

// NSOn returns the nameserver set of domain on day, sorted.
func (t *tables) NSOn(domain dnsname.Name, day dates.Day) []dnsname.Name {
	var out []dnsname.Name
	for _, e := range t.byDomain[domain] {
		if t.edges[e].Contains(day) {
			out = append(out, e.NS)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EachEdgeSpans calls fn for every delegation edge ever observed,
// with its sealed presence intervals, in unspecified order, stopping if
// fn returns false. Facts still open (never sealed by Close/CloseZones)
// appear with whatever intervals their past add/remove cycles recorded,
// which may be empty. The delta layer walks this to bucket interval
// boundaries by day.
func (t *tables) EachEdgeSpans(fn func(e Edge, spans *interval.Set) bool) {
	for e, s := range t.edges {
		if !fn(e, s) {
			return
		}
	}
}

// EachDomainSpans calls fn for every domain ever observed registered,
// with its sealed registration intervals, in unspecified order, stopping
// if fn returns false.
func (t *tables) EachDomainSpans(fn func(domain dnsname.Name, spans *interval.Set) bool) {
	for d, s := range t.domains {
		if !fn(d, s) {
			return
		}
	}
}

// EachGlueSpans calls fn for every host ever observed with glue, with
// its sealed glue-presence intervals, in unspecified order, stopping if
// fn returns false.
func (t *tables) EachGlueSpans(fn func(host dnsname.Name, spans *interval.Set) bool) {
	for h, s := range t.glue {
		if !fn(h, s) {
			return
		}
	}
}

// Nameservers calls fn for every nameserver name ever observed in a
// delegation, in unspecified order, stopping if fn returns false.
func (t *tables) Nameservers(fn func(ns dnsname.Name) bool) {
	for ns := range t.byNS {
		if !fn(ns) {
			return
		}
	}
}

// Domains calls fn for every domain ever observed registered, in
// unspecified order, stopping if fn returns false.
func (t *tables) Domains(fn func(domain dnsname.Name) bool) {
	for d := range t.domains {
		if !fn(d) {
			return
		}
	}
}

// NumNameservers returns the number of distinct nameserver names ever
// observed.
func (t *tables) NumNameservers() int { return len(t.byNS) }

// NumDomains returns the number of distinct domains ever observed.
func (t *tables) NumDomains() int { return len(t.domains) }

// Zones returns the observed zones, sorted.
func (t *tables) Zones() []dnsname.Name {
	out := make([]dnsname.Name, 0, len(t.zones))
	for z := range t.zones {
		out = append(out, z)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SnapshotOn reconstructs the zone file of one TLD on one day, as if the
// daily snapshot had been archived.
func (t *tables) SnapshotOn(zone dnsname.Name, day dates.Day) *dnszone.Snapshot {
	snap := dnszone.NewSnapshot(zone, day)
	perDomain := make(map[dnsname.Name][]dnsname.Name)
	for e, spans := range t.edges {
		if e.Domain.TLD() != zone {
			continue
		}
		if spans.Contains(day) || t.openContains(e, day) {
			perDomain[e.Domain] = append(perDomain[e.Domain], e.NS)
		}
	}
	for d, ns := range perDomain {
		snap.AddDelegation(d, ns...)
	}
	// Glue addresses are not retained by the DB (only presence), so the
	// snapshot records presence with a reserved-documentation address.
	for h, spans := range t.glue {
		if h.TLD() != zone {
			continue
		}
		if spans.Contains(day) {
			snap.AddGlue(h, docAddr)
		}
	}
	snap.Sort()
	return snap
}

func (t *tables) openContains(e Edge, day dates.Day) bool {
	start, open := t.openEdges[e]
	if !open {
		return false
	}
	return day >= start
}
