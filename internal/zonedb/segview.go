package zonedb

import (
	"repro/internal/dnsname"
	"repro/internal/interval"
)

// segFacts is a loaded generation's facts in its segment's shape: the
// payload's name table, each table's keys in key order with their sets,
// and an index from each name to where its facts lie, one per role a
// name plays: a domain, and a host (a nameserver or a glue host). Every
// set is closed — a fact the tables hold for it has no open span — so a
// read needs no seal day. A keyed read is one hash and, for the edges of
// a name, a walk of one contiguous run.
type segFacts struct {
	names            *Names
	edges            segEdgeTable
	domains, glue    segNameTable
	asDomain, asHost map[dnsname.Name]segKey
}

// Names is a segment's name table: every name its facts mention, and
// its zones, once each in byte order, so that a name's id is its
// position and ids compare as their names do. It is held as one string
// and where each name ends in it; every name a loaded view hands out is a
// substring of that string. It keeps the ids of the zones and the facts
// loaded with it, whose role indexes find a name's id.
type Names struct {
	text  string
	ends  []uint32
	zones []int32
	facts *segFacts
}

// Len returns the number of names in the table.
func (n *Names) Len() int { return len(n.ends) }

// Name returns the name whose id is id.
func (n *Names) Name(id int32) dnsname.Name {
	start := uint32(0)
	if id > 0 {
		start = n.ends[id-1]
	}
	return dnsname.Name(n.text[start:n.ends[id]])
}

// ID returns name's id, and -1 and false if name is not in the table.
// A name is in it because a fact mentions it, and the role index of the
// facts loaded with the table that holds it answers with one hash (the
// hosts' first, the names a resolver chase asks after most), or because
// it is a zone: a name in neither index is looked for among the zones
// alone.
func (n *Names) ID(name dnsname.Name) (int32, bool) {
	s := n.facts
	if k, ok := s.asHost[name]; ok {
		return s.glue.idOf(k), true
	}
	if k, ok := s.asDomain[name]; ok {
		return s.domains.idOf(k), true
	}
	for _, id := range n.zones {
		if n.Name(id) == name {
			return id, true
		}
	}
	return -1, false
}

// segKey is where a loaded generation holds one name's facts in one role:
// the position of its set in the role's table (domains for a domain, glue
// for a host) or, where it has none, the complement of its name id (^id,
// which is negative), and the key positions of its edges in the role:
// edges.keys[run[0]:run[1]] as a domain, and edges.byNS[run[0]:run[1]]
// as a nameserver.
type segKey struct {
	set int32
	run [2]int32
}

// roleIndex returns the names that play the role whose keys keys holds
// per name id, with their keys.
func roleIndex(names *Names, keys []segKey) map[dnsname.Name]segKey {
	n := 0
	for _, k := range keys {
		if k.set >= 0 || k.run[1] > k.run[0] {
			n++
		}
	}
	m := make(map[dnsname.Name]segKey, n)
	for id, k := range keys {
		if k.set >= 0 || k.run[1] > k.run[0] {
			m[names.Name(int32(id))] = k
		}
	}
	return m
}

// segNameTable is a loaded domain or glue table: the keys, ascending, as
// their ids in the name table, and key k's set at sets[k].
type segNameTable struct {
	ids  []int32
	sets []interval.Set
}

// segEdgeTable is the loaded edge table: the keys in payload order —
// sorted by (domain, ns) — with key k's set at sets[k] and its ns's id at
// nsIDs[k], and the key positions stably sorted by ns.
type segEdgeTable struct {
	keys  []Edge
	sets  []interval.Set
	nsIDs []int32
	byNS  []int32

	nDomains, nNS int // names with edges as a domain, as a nameserver
}

// idOf returns the name id of the name whose key in the table's role is
// k.
func (t *segNameTable) idOf(k segKey) int32 {
	if k.set >= 0 {
		return t.ids[k.set]
	}
	return ^k.set
}

// fact returns what the table holds at position k, if k is one.
func (t *segNameTable) fact(k int32) (fact, bool) {
	if k < 0 {
		return fact{}, false
	}
	return fact{spans: &t.sets[k]}, true
}

// each is the Each*Spans walk of the table, whose ids are in names: its
// sets, in key order.
func (t *segNameTable) each(names *Names, fn func(dnsname.Name, *interval.Set) bool) {
	for k, id := range t.ids {
		if !fn(names.Name(id), &t.sets[k]) {
			return
		}
	}
}

// eachID is each with the keys as their ids.
func (t *segNameTable) eachID(fn func(int32, *interval.Set) bool) {
	for k, id := range t.ids {
		if !fn(id, &t.sets[k]) {
			return
		}
	}
}

// facts returns the table, whose ids are in names, as a fact map.
func (t *segNameTable) facts(names *Names) map[dnsname.Name]fact {
	m := make(map[dnsname.Name]fact, len(t.ids))
	for k, id := range t.ids {
		m[names.Name(id)] = fact{spans: &t.sets[k]}
	}
	return m
}

// each is EachEdgeSpans over the table: its sets, in key order.
func (e *segEdgeTable) each(fn func(Edge, *interval.Set) bool) {
	for k := range e.keys {
		if !fn(e.keys[k], &e.sets[k]) {
			return
		}
	}
}

// eachID is each with the keys as their names' ids in names: the ns's as
// the decode read it, and the domain's where a cursor over names, moved
// on past the ids before it, meets the key's domain — the keys are in
// domain order, and the domain is the very substring of the table's text
// the cursor makes, whose comparison stops at its pointer.
func (e *segEdgeTable) eachID(names *Names, fn func(domain, ns int32, spans *interval.Set) bool) {
	id := int32(0)
	for k := range e.keys {
		for names.Name(id) != e.keys[k].Domain {
			id++
		}
		if !fn(id, e.nsIDs[k], &e.sets[k]) {
			return
		}
	}
}

// sortByNS fills byNS with a stable counting sort of the key positions
// by ns, and turns the number of edges each name is the nameserver of,
// which the decode left in hosts[id].run[1], into its run of byNS.
func (e *segEdgeTable) sortByNS(hosts []segKey) {
	var end int32
	for id := range hosts {
		r := &hosts[id].run
		n := r[1]
		r[0], r[1] = end, end // the fill below moves r[1] to the run's end
		end += n
	}
	for k, ns := range e.nsIDs {
		r := &hosts[ns].run
		e.byNS[r[1]] = int32(k)
		r[1]++
	}
}

// eachNS calls fn with every name that is the nameserver of an edge, in
// name order, stopping if fn returns false.
func (e *segEdgeTable) eachNS(fn func(dnsname.Name) bool) {
	for i, k := range e.byNS {
		if ns := e.keys[k].NS; (i == 0 || ns != e.keys[e.byNS[i-1]].NS) && !fn(ns) {
			return
		}
	}
}

// unpack gives loaded tables the fact maps and traversal indexes every
// other generation holds, built from the segment's shape, and drops the
// shape: the first write after a load runs it (thaw), and the View
// published before keeps the shape. The sets stay the load's, shared
// with that View until a write owns them. byDomain's slices are runs of
// the key table and byNS's runs of a copy sorted by ns, so both are in
// the order that appending each edge, in key order, to its two index
// slices produces. Each is capped at its length, so a writer's append
// reallocates rather than growing into its neighbour.
func (t *tables) unpack() {
	s := t.seg
	e := &s.edges
	t.edges = make(map[Edge]fact, len(e.keys))
	for k, key := range e.keys {
		t.edges[key] = fact{spans: &e.sets[k]}
	}
	t.domains, t.glue = s.domains.facts(s.names), s.glue.facts(s.names)
	sorted := make([]Edge, len(e.byNS))
	for i, k := range e.byNS {
		sorted[i] = e.keys[k]
	}
	t.byDomain = runs(e.keys, e.nDomains, func(e Edge) dnsname.Name { return e.Domain })
	t.byNS = runs(sorted, e.nNS, func(e Edge) dnsname.Name { return e.NS })
	t.seg = nil
}

// runs returns the runs of edges that share a name, by that name, each
// capped at its length; there are n of them.
func runs(edges []Edge, n int, name func(Edge) dnsname.Name) map[dnsname.Name][]Edge {
	m := make(map[dnsname.Name][]Edge, n)
	for i := 0; i < len(edges); {
		j := i + 1
		for j < len(edges) && name(edges[j]) == name(edges[i]) {
			j++
		}
		m[name(edges[i])] = edges[i:j:j]
		i = j
	}
	return m
}

// The primitives below are where the two forms of the fact tables
// differ: the maps a writer keeps, and a loaded segment's shape. Every
// read goes through them, save the few that branch on the form once
// themselves: the Each*Spans walks, Nameservers and the counts.

// edgeFact returns the fact the tables hold for edge (domain, ns).
func (t *tables) edgeFact(domain, ns dnsname.Name) (fact, bool) {
	if t.seg == nil {
		f, ok := t.edges[Edge{Domain: domain, NS: ns}]
		return f, ok
	}
	r := t.edgesOfDomain(domain)
	for i, e := range r.edges {
		if e.NS == ns {
			return fact{spans: &r.sets[i]}, true
		}
	}
	return fact{}, false
}

// domainFact returns the fact the tables hold for domain.
func (t *tables) domainFact(domain dnsname.Name) (fact, bool) {
	if t.seg == nil {
		f, ok := t.domains[domain]
		return f, ok
	}
	k, ok := t.seg.asDomain[domain]
	if !ok {
		return fact{}, false
	}
	return t.seg.domains.fact(k.set)
}

// glueFact returns the fact the tables hold for host's glue.
func (t *tables) glueFact(host dnsname.Name) (fact, bool) {
	if t.seg == nil {
		f, ok := t.glue[host]
		return f, ok
	}
	k, ok := t.seg.asHost[host]
	if !ok {
		return fact{}, false
	}
	return t.seg.glue.fact(k.set)
}

// edgeRun is the edges of one name as a domain or as a nameserver, in
// its index's order, with their facts: a live index slice and the edge
// map, a loaded run of keys and their sets, or a loaded run of key
// positions.
type edgeRun struct {
	edges []Edge
	facts map[Edge]fact  // live: the edges' facts
	sets  []interval.Set // loaded, by domain: edges[i]'s set is sets[i]
	at    []int32        // loaded, by nameserver: positions in keyed
	keyed *segEdgeTable
}

func (r *edgeRun) len() int {
	if r.keyed != nil {
		return len(r.at)
	}
	return len(r.edges)
}

// edge returns the run's i'th edge and its fact.
func (r *edgeRun) edge(i int) (Edge, fact) {
	switch {
	case r.keyed != nil:
		k := r.at[i]
		return r.keyed.keys[k], fact{spans: &r.keyed.sets[k]}
	case r.sets != nil:
		return r.edges[i], fact{spans: &r.sets[i]}
	}
	e := r.edges[i]
	return e, r.facts[e]
}

// edgesOfDomain returns the edges domain is the domain of.
func (t *tables) edgesOfDomain(domain dnsname.Name) edgeRun {
	if t.seg == nil {
		return edgeRun{edges: t.byDomain[domain], facts: t.edges}
	}
	r, e := t.seg.asDomain[domain].run, &t.seg.edges
	return edgeRun{edges: e.keys[r[0]:r[1]], sets: e.sets[r[0]:r[1]]}
}

// edgesOfNS returns the edges ns is the nameserver of.
func (t *tables) edgesOfNS(ns dnsname.Name) edgeRun {
	if t.seg == nil {
		return edgeRun{edges: t.byNS[ns], facts: t.edges}
	}
	r := t.seg.asHost[ns].run
	return edgeRun{at: t.seg.edges.byNS[r[0]:r[1]], keyed: &t.seg.edges}
}

// eachEdgeFact, eachDomainFact and eachGlueFact call fn with each key of
// their table and its fact, in unspecified order, stopping if fn returns
// false.
func (t *tables) eachEdgeFact(fn func(Edge, fact) bool) {
	if t.seg == nil {
		eachFact(t.edges, fn)
		return
	}
	t.seg.edges.each(func(e Edge, s *interval.Set) bool { return fn(e, fact{spans: s}) })
}

func (t *tables) eachDomainFact(fn func(dnsname.Name, fact) bool) {
	if t.seg == nil {
		eachFact(t.domains, fn)
		return
	}
	t.seg.domains.each(t.seg.names, func(n dnsname.Name, s *interval.Set) bool { return fn(n, fact{spans: s}) })
}

func (t *tables) eachGlueFact(fn func(dnsname.Name, fact) bool) {
	if t.seg == nil {
		eachFact(t.glue, fn)
		return
	}
	t.seg.glue.each(t.seg.names, func(n dnsname.Name, s *interval.Set) bool { return fn(n, fact{spans: s}) })
}

func eachFact[K comparable](m map[K]fact, fn func(K, fact) bool) {
	for k, f := range m {
		if !fn(k, f) {
			return
		}
	}
}

// numEdges and numGlue count the keys of their tables.
func (t *tables) numEdges() int {
	if t.seg == nil {
		return len(t.edges)
	}
	return len(t.seg.edges.keys)
}

func (t *tables) numGlue() int {
	if t.seg == nil {
		return len(t.glue)
	}
	return len(t.seg.glue.ids)
}
