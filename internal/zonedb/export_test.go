package zonedb

import (
	"reflect"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
	"repro/internal/interval"
)

// Absorb is absorb, for the tests outside the package.
func (db *DB) Absorb(other *DB) { db.absorb(other) }

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
