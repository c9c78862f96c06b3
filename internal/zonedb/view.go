package zonedb

import (
	"maps"
	"sort"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
	"repro/internal/interval"
)

// tables is the complete fact state of one generation: the fact maps, the
// traversal indexes and the seal days. It is embedded by both the DB's
// private build generation (mutable, guarded by the DB mutex) and the
// published View (immutable). Every query is defined here once so the two
// stay behaviourally identical.
type tables struct {
	edges   map[Edge]fact
	domains map[dnsname.Name]fact
	glue    map[dnsname.Name]fact

	// byNS and byDomain index edge keys for traversal.
	byNS     map[dnsname.Name][]Edge
	byDomain map[dnsname.Name][]Edge

	// zones tracks which zones were ever observed (a domain name
	// determines its zone, but keeping the set makes zone listing cheap).
	zones map[dnsname.Name]bool

	closed   bool
	closeDay dates.Day

	// sealAll is the latest day a Close sealed every zone through, and
	// sealZone per zone the latest day a CloseZones naming it did; see
	// sealedThrough. Both only move forward. CloseZones and absorb write a
	// copy of the sealZone map, never the one a View may hold.
	sealAll  dates.Day
	sealZone map[dnsname.Name]dates.Day

	// eager holds the keys of the eager facts (see fact), and shown counts
	// per zone the open facts that are not eager, whose open span readers
	// see. Close reads these instead of the fact maps (see book). Each map
	// is nil until its first entry.
	eager eagerKeys
	shown map[dnsname.Name]int
}

// eagerKeys is a set of fact keys per table.
type eagerKeys struct {
	edges         map[Edge]bool
	domains, glue map[dnsname.Name]bool
}

func (k eagerKeys) any() bool { return len(k.edges)+len(k.domains)+len(k.glue) > 0 }

func (k eagerKeys) clone() eagerKeys {
	return eagerKeys{edges: maps.Clone(k.edges), domains: maps.Clone(k.domains), glue: maps.Clone(k.glue)}
}

// mark puts k in the set *s, or takes it out.
func mark[K comparable](s *map[K]bool, k K, on bool) {
	switch {
	case on && *s == nil:
		*s = map[K]bool{k: true}
	case on:
		(*s)[k] = true
	default:
		delete(*s, k)
	}
}

func newTables() tables {
	return tables{
		edges:    make(map[Edge]fact),
		domains:  make(map[dnsname.Name]fact),
		glue:     make(map[dnsname.Name]fact),
		byNS:     make(map[dnsname.Name][]Edge),
		byDomain: make(map[dnsname.Name][]Edge),
		zones:    make(map[dnsname.Name]bool),
		sealAll:  dates.None,
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
// Like every set a query returns, it must not be modified.
func (t *tables) EdgeSpans(domain, ns dnsname.Name) *interval.Set {
	f, ok := t.edges[Edge{Domain: domain, NS: ns}]
	if !ok {
		return nil
	}
	return t.spansOf(f, domain).set(nil)
}

// DomainSpans returns the registration intervals of a domain, or nil if
// the domain was never observed.
func (t *tables) DomainSpans(domain dnsname.Name) *interval.Set {
	f, ok := t.domains[domain]
	if !ok {
		return nil
	}
	return t.spansOf(f, domain).set(nil)
}

// GlueSpans returns the glue-presence intervals of a host, or nil.
func (t *tables) GlueSpans(host dnsname.Name) *interval.Set {
	f, ok := t.glue[host]
	if !ok {
		return nil
	}
	return t.spansOf(f, host).set(nil)
}

// GlueOn reports whether host had glue on day.
func (t *tables) GlueOn(host dnsname.Name, day dates.Day) bool {
	f, ok := t.glue[host]
	return ok && t.spansOf(f, host).contains(day)
}

// DomainRegisteredOn reports whether domain was registered on day.
func (t *tables) DomainRegisteredOn(domain dnsname.Name, day dates.Day) bool {
	f, ok := t.domains[domain]
	return ok && t.spansOf(f, domain).contains(day)
}

// DomainFirstSeen returns the first day domain was observed registered,
// or dates.None.
func (t *tables) DomainFirstSeen(domain dnsname.Name) dates.Day {
	f, ok := t.domains[domain]
	if !ok {
		return dates.None
	}
	return t.spansOf(f, domain).first()
}

// DomainFirstSeenAfter returns the first day >= from on which domain was
// registered, or dates.None.
func (t *tables) DomainFirstSeenAfter(domain dnsname.Name, from dates.Day) dates.Day {
	f, ok := t.domains[domain]
	if !ok {
		return dates.None
	}
	return t.spansOf(f, domain).nextOnOrAfter(from)
}

// NSFirstSeen returns the first day any domain delegated to ns, or
// dates.None if ns never appeared.
func (t *tables) NSFirstSeen(ns dnsname.Name) dates.Day {
	first := dates.None
	for _, e := range t.byNS[ns] {
		if f := t.spansOf(t.edges[e], e.Domain).first(); f != dates.None && (first == dates.None || f < first) {
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
// fn returns false. The sets are fn's to keep; a call allocates at most a
// few times, however many edges it visits.
func (t *tables) EachNSOf(domain dnsname.Name, fn func(ns dnsname.Name, spans *interval.Set) bool) {
	edges := t.byDomain[domain]
	a := slab{facts: len(edges)}
	for _, e := range edges {
		if !fn(e.NS, t.spansOf(t.edges[e], domain).set(&a)) {
			return
		}
	}
}

// EachDomainOf calls fn for every domain ever delegated to ns, with the
// presence intervals of that edge, in EdgesOf order, stopping if fn
// returns false. It allocates as EachNSOf does.
func (t *tables) EachDomainOf(ns dnsname.Name, fn func(domain dnsname.Name, spans *interval.Set) bool) {
	edges := t.byNS[ns]
	a := slab{facts: len(edges)}
	for _, e := range edges {
		if !fn(e.Domain, t.spansOf(t.edges[e], e.Domain).set(&a)) {
			return
		}
	}
}

// EachNSOn calls fn for every nameserver domain was delegated to on day,
// in unspecified order, stopping if fn returns false. It allocates
// nothing.
func (t *tables) EachNSOn(domain dnsname.Name, day dates.Day, fn func(ns dnsname.Name) bool) {
	for _, e := range t.byDomain[domain] {
		if t.spansOf(t.edges[e], domain).contains(day) && !fn(e.NS) {
			return
		}
	}
}

// NSOn returns the nameserver set of domain on day, sorted.
func (t *tables) NSOn(domain dnsname.Name, day dates.Day) []dnsname.Name {
	var out []dnsname.Name
	t.EachNSOn(domain, day, func(ns dnsname.Name) bool {
		out = append(out, ns)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EachEdgeSpans calls fn for every delegation edge ever observed, with
// its presence intervals, in unspecified order, stopping if fn returns
// false. A fact still open in a zone no Close or CloseZones sealed appears
// with whatever intervals its past add/remove cycles recorded, which may
// be empty. The sets are fn's to keep; a walk allocates a few times, not
// once per fact. The delta layer walks this to bucket interval boundaries
// by day.
func (t *tables) EachEdgeSpans(fn func(e Edge, spans *interval.Set) bool) {
	a := slab{facts: len(t.edges)}
	for e, f := range t.edges {
		if !fn(e, t.spansOf(f, e.Domain).set(&a)) {
			return
		}
	}
}

// EachDomainSpans calls fn for every domain ever observed registered,
// with its registration intervals, in unspecified order, stopping if fn
// returns false. It allocates as EachEdgeSpans does.
func (t *tables) EachDomainSpans(fn func(domain dnsname.Name, spans *interval.Set) bool) {
	eachSpans(t, t.domains, fn)
}

// EachGlueSpans calls fn for every host ever observed with glue, with its
// glue-presence intervals, in unspecified order, stopping if fn returns
// false. It allocates as EachEdgeSpans does.
func (t *tables) EachGlueSpans(fn func(host dnsname.Name, spans *interval.Set) bool) {
	eachSpans(t, t.glue, fn)
}

func eachSpans(t *tables, m map[dnsname.Name]fact, fn func(dnsname.Name, *interval.Set) bool) {
	a := slab{facts: len(m)}
	for n, f := range m {
		if !fn(n, t.spansOf(f, n).set(&a)) {
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
// daily snapshot had been archived. An open fact shows through its zone's
// sealed-through day and no further, so past that day a delegation and
// its glue are missing alike: the day was not observed.
func (t *tables) SnapshotOn(zone dnsname.Name, day dates.Day) *dnszone.Snapshot {
	snap := dnszone.NewSnapshot(zone, day)
	perDomain := make(map[dnsname.Name][]dnsname.Name)
	for e, f := range t.edges {
		if e.zone() == zone && t.spansOf(f, e.Domain).contains(day) {
			perDomain[e.Domain] = append(perDomain[e.Domain], e.NS)
		}
	}
	for d, ns := range perDomain {
		snap.AddDelegation(d, ns...)
	}
	// Glue addresses are not retained by the DB (only presence), so the
	// snapshot records presence with a reserved-documentation address.
	for h, f := range t.glue {
		if h.TLD() == zone && t.spansOf(f, h).contains(day) {
			snap.AddGlue(h, docAddr)
		}
	}
	snap.Sort()
	return snap
}
