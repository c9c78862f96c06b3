package zonedb

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
	"repro/internal/interval"
)

// Absorb is absorb, for the tests outside the package.
func (db *DB) Absorb(other *DB) { db.absorb(other) }

// RichDB, SeedDB and EmptyClosedDB are the package tests' sealed
// databases, for the tests outside the package.
var RichDB, SeedDB, EmptyClosedDB = richDB, seedDB, emptyClosedDB

// WalksInKeyOrder returns nil when each of the loaded view v's Each*Spans
// walks yields the keys of its fact map in key order (CompareEdges for
// edges, name order for domains and glue), each with the very set the
// map holds for it, and otherwise says where the first walk strays.
func WalksInKeyOrder(v *View) error {
	t := &v.tables
	if err := walksInKeyOrder(t, "edges", t.edges, t.EachEdgeSpans, CompareEdges, func(e Edge) dnsname.Name { return e.Domain }); err != nil {
		return err
	}
	named := func(n dnsname.Name) dnsname.Name { return n }
	if err := walksInKeyOrder(t, "domains", t.domains, t.EachDomainSpans, dnsname.Compare, named); err != nil {
		return err
	}
	return walksInKeyOrder(t, "glue", t.glue, t.EachGlueSpans, dnsname.Compare, named)
}

func walksInKeyOrder[K comparable](t *tables, table string, m map[K]fact, walk func(func(K, *interval.Set) bool), cmp func(a, b K) int, nameOf func(K) dnsname.Name) error {
	want := make([]K, 0, len(m))
	for k := range m {
		want = append(want, k)
	}
	slices.SortFunc(want, cmp)
	var err error
	i := 0
	walk(func(k K, s *interval.Set) bool {
		switch {
		case i >= len(want):
			err = fmt.Errorf("%s: the walk yields %v past the map's %d keys", table, k, len(want))
		case k != want[i]:
			err = fmt.Errorf("%s: the walk's key %d is %v, want %v", table, i, k, want[i])
		case s != t.spansOf(m[k], nameOf(k)).set(nil):
			err = fmt.Errorf("%s: the walk yields %v with another set than the map holds", table, k)
		}
		i++
		return err == nil
	})
	if err == nil && i < len(want) {
		err = fmt.Errorf("%s: the walk yields %d keys, the map holds %d", table, i, len(want))
	}
	return err
}

// SharesFactMaps reports whether two views hold the same fact maps: a
// Close that did not thaw the database publishes its parent's.
func SharesFactMaps(a, b *View) bool {
	same := func(x, y any) bool { return reflect.ValueOf(x).UnsafePointer() == reflect.ValueOf(y).UnsafePointer() }
	return same(a.edges, b.edges) && same(a.domains, b.domains) && same(a.glue, b.glue)
}

// ViewOfSpans publishes tables that hold exactly the given spans, and no
// open fact, as the view of a fresh database. The sets are copied.
func ViewOfSpans(closed bool, closeDay dates.Day, zones []dnsname.Name, edges map[Edge]*interval.Set, domains, glue map[dnsname.Name]*interval.Set) *View {
	t := newTables()
	own := func(s *interval.Set) fact {
		c := s.Clone()
		return fact{spans: &c}
	}
	for e, s := range edges {
		t.edges[e] = own(s)
		t.byNS[e.NS] = append(t.byNS[e.NS], e)
		t.byDomain[e.Domain] = append(t.byDomain[e.Domain], e)
	}
	for n, s := range domains {
		t.domains[n] = own(s)
	}
	for n, s := range glue {
		t.glue[n] = own(s)
	}
	for _, z := range zones {
		t.zones[z] = true
	}
	t.closed, t.closeDay = closed, closeDay
	db := New()
	db.mu.Lock()
	db.gen = &generation{tables: t, horizon: unknownDay}
	db.publishLocked(nil)
	db.mu.Unlock()
	return db.View()
}

// SnapshotOnReference is SnapshotOn as it was before the zone index: a
// walk of every edge and glue host, grouped in a map and sorted by
// Snapshot.Sort. It is the oracle the index and the filtered walk are
// held to.
func (v *View) SnapshotOnReference(zone dnsname.Name, day dates.Day) *dnszone.Snapshot {
	t := &v.tables
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
	for h, f := range t.glue {
		if h.TLD() == zone && t.spansOf(f, h).contains(day) {
			snap.AddGlue(h, docAddr)
		}
	}
	snap.Sort()
	return snap
}
