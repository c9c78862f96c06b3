package zonedb

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"

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
// walks yields the keys of the fact map the first write would build from
// it (unpack) in key order (CompareEdges for edges, name order for
// domains and glue), each with the very set that map holds for it, and
// otherwise says where the first walk strays.
func WalksInKeyOrder(v *View) error {
	t := &v.tables
	maps := v.tables
	if maps.seg != nil {
		maps.unpack()
	}
	if err := walksInKeyOrder(t, "edges", maps.edges, t.EachEdgeSpans, CompareEdges, func(e Edge) dnsname.Name { return e.Domain }); err != nil {
		return err
	}
	named := func(n dnsname.Name) dnsname.Name { return n }
	if err := walksInKeyOrder(t, "domains", maps.domains, t.EachDomainSpans, dnsname.Compare, named); err != nil {
		return err
	}
	return walksInKeyOrder(t, "glue", maps.glue, t.EachGlueSpans, dnsname.Compare, named)
}

// IDsName returns nil when the id walks of v name what its Each*Spans
// walks do: on a loaded view, its name table ascends strictly, ID answers
// each name's position (a zone's too) and no for a name the table lacks
// (a prefix, a suffix and a one-byte change of each of its first 100
// names, where the table lacks them), and each id walk yields, key for
// key and with the very sets, the ids of the keys its Each*Spans twin
// yields; on any other view there is no table and the id walks yield
// nothing. Otherwise it says where they part.
func IDsName(v *View) error {
	names := v.Names()
	if names == nil {
		n := 0
		v.EachEdgeIDs(func(_, _ int32, _ *interval.Set) bool { n++; return true })
		v.EachDomainIDs(func(int32, *interval.Set) bool { n++; return true })
		v.EachGlueIDs(func(int32, *interval.Set) bool { n++; return true })
		if n > 0 {
			return fmt.Errorf("a view without a name table walks %d facts by id", n)
		}
		return nil
	}
	for id := int32(1); id < int32(names.Len()); id++ {
		if names.Name(id-1) >= names.Name(id) {
			return fmt.Errorf("name %d %q does not sort after %q", id, names.Name(id), names.Name(id-1))
		}
	}
	for id := int32(0); id < int32(names.Len()); id++ {
		if got, ok := names.ID(names.Name(id)); !ok || got != id {
			return fmt.Errorf("ID(%q) = %d, %v; want %d", names.Name(id), got, ok, id)
		}
	}
	for id := int32(0); id < int32(min(names.Len(), 100)); id++ {
		name := string(names.Name(id))
		changed := []byte(name)
		changed[len(changed)/2] ^= 1
		for _, other := range []string{name[:len(name)-1], name + "a", string(changed)} {
			want, in := sort.Find(names.Len(), func(i int) int { return strings.Compare(other, string(names.Name(int32(i)))) })
			if got, ok := names.ID(dnsname.Name(other)); ok != in || in && got != int32(want) {
				return fmt.Errorf("ID(%q) = %d, %v; the table holds it %v, at %d", other, got, ok, in, want)
			}
		}
	}
	type key struct {
		names [2]dnsname.Name
		set   *interval.Set
	}
	var byName, byID []key
	v.EachEdgeSpans(func(e Edge, s *interval.Set) bool {
		byName = append(byName, key{[2]dnsname.Name{e.Domain, e.NS}, s})
		return true
	})
	v.EachEdgeIDs(func(d, ns int32, s *interval.Set) bool {
		byID = append(byID, key{[2]dnsname.Name{names.Name(d), names.Name(ns)}, s})
		return true
	})
	for _, table := range []struct {
		byName func(func(dnsname.Name, *interval.Set) bool)
		byID   func(func(int32, *interval.Set) bool)
	}{{v.EachDomainSpans, v.EachDomainIDs}, {v.EachGlueSpans, v.EachGlueIDs}} {
		table.byName(func(n dnsname.Name, s *interval.Set) bool {
			byName = append(byName, key{[2]dnsname.Name{n}, s})
			return true
		})
		table.byID(func(id int32, s *interval.Set) bool {
			byID = append(byID, key{[2]dnsname.Name{names.Name(id)}, s})
			return true
		})
	}
	if len(byID) != len(byName) {
		return fmt.Errorf("the id walks yield %d facts, the name walks %d", len(byID), len(byName))
	}
	for i := range byName {
		if byID[i] != byName[i] {
			return fmt.Errorf("fact %d: the id walk names %v, the name walk %v", i, byID[i].names, byName[i].names)
		}
	}
	return nil
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

// SharesFactMaps reports whether two views hold the same fact tables —
// the same maps, or the same loaded segment: a Close that did not thaw
// the database publishes its parent's.
func SharesFactMaps(a, b *View) bool {
	same := func(x, y any) bool { return reflect.ValueOf(x).UnsafePointer() == reflect.ValueOf(y).UnsafePointer() }
	return same(a.edges, b.edges) && same(a.domains, b.domains) && same(a.glue, b.glue) && a.seg == b.seg
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
	t.eachEdgeFact(func(e Edge, f fact) bool {
		if e.zone() == zone && t.spansOf(f, e.Domain).contains(day) {
			perDomain[e.Domain] = append(perDomain[e.Domain], e.NS)
		}
		return true
	})
	for d, ns := range perDomain {
		snap.AddDelegation(d, ns...)
	}
	t.eachGlueFact(func(h dnsname.Name, f fact) bool {
		if h.TLD() == zone && t.spansOf(f, h).contains(day) {
			snap.AddGlue(h, docAddr)
		}
		return true
	})
	snap.Sort()
	return snap
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// TextReference returns a database holding v's sealed facts, built the
// way every database that was not loaded is: the reference text parser
// records them into the fact maps. It is the map path a loaded view is
// held to.
func TextReference(v *View) (*DB, error) {
	var buf bytes.Buffer
	if err := v.WriteArchive(&buf); err != nil {
		return nil, err
	}
	return readArchive(buf.String())
}

// Unpacked returns a view of v's facts in the fact maps: for a loaded
// view, the maps the first write would build from it, over the very
// names and sets the load decoded.
func Unpacked(v *View) *View {
	u := *v
	if u.seg != nil {
		u.unpack()
	}
	return &u
}

// AnswerNames returns every name v's facts mention — zones, domains,
// nameservers and glue hosts — sorted, plus a few no fact mentions.
func AnswerNames(v *View) []dnsname.Name {
	names := append(v.Zones(), "absent.invalid", "zzzz.com", "a")
	v.EachEdgeSpans(func(e Edge, _ *interval.Set) bool {
		names = append(names, e.Domain, e.NS)
		return true
	})
	each := func(n dnsname.Name, _ *interval.Set) bool {
		names = append(names, n)
		return true
	}
	v.EachDomainSpans(each)
	v.EachGlueSpans(each)
	slices.Sort(names)
	return slices.Compact(names)
}

// Answers renders what every read of v says about names: each keyed
// read of each name, on the days around each of its spans' ends, the
// traversal walks, the name listings and counts, the archive and segment
// encodings, and each zone's snapshot on a few days. exact renders each
// walk in its own order and every set as it is returned; otherwise
// walks are sorted, keys whose spans are empty are left out, and so are
// the counts, so that a view recorded by events reads as the view loaded
// from its segment does.
func Answers(v *View, names []dnsname.Name, exact bool) string {
	var b []byte
	day := func(b []byte, d dates.Day) []byte { return strconv.AppendInt(append(b, ' '), int64(d), 10) }
	set := func(b []byte, s *interval.Set) []byte {
		if s == nil || !exact && s.Empty() {
			return append(b, " nil"...)
		}
		b = append(b, " {"...)
		for _, r := range s.Spans() {
			b = day(day(b, r.First), r.Last)
		}
		return append(b, " }"...)
	}
	str := func(b []byte, ss ...dnsname.Name) []byte {
		for _, s := range ss {
			b = append(append(b, ' '), s...)
		}
		return b
	}
	// lines writes one line per item; only an exact rendering keeps the
	// walk's order.
	lines := func(prefix string, ls []string) {
		if !exact {
			slices.Sort(ls)
		}
		for _, l := range ls {
			b = append(append(append(b, prefix...), l...), '\n')
		}
	}
	for _, n := range names {
		b = str(append(b, "name"...), n)
		b = set(append(b, " domain"...), v.DomainSpans(n))
		b = set(append(b, " glue"...), v.GlueSpans(n))
		b = day(day(b, v.DomainFirstSeen(n)), v.NSFirstSeen(n))
		b = append(b, '\n')
		var days []dates.Day
		probe := func(s *interval.Set) {
			if s == nil {
				return
			}
			for _, r := range s.Spans() {
				days = append(days, r.First-1, r.First, r.Last, r.Last+1)
			}
		}
		probe(v.DomainSpans(n))
		probe(v.GlueSpans(n))
		var nsOf, domainOf, edgesOf, domainsOf, edges []string
		nss := []dnsname.Name{n, "absent.invalid"}
		v.EachNSOf(n, func(ns dnsname.Name, s *interval.Set) bool {
			if exact || !s.Empty() {
				nsOf = append(nsOf, string(set(str(nil, ns), s)))
				nss = append(nss, ns)
			}
			probe(s)
			return true
		})
		v.EachDomainOf(n, func(dom dnsname.Name, s *interval.Set) bool {
			if exact || !s.Empty() {
				domainOf = append(domainOf, string(set(str(nil, dom), s)))
			}
			return true
		})
		for _, e := range v.EdgesOf(n) {
			if exact || !v.EdgeSpans(e.Domain, e.NS).Empty() {
				edgesOf = append(edgesOf, string(str(nil, e.Domain, e.NS)))
			}
		}
		for _, dom := range v.DomainsOf(n) {
			if exact || !v.EdgeSpans(dom, n).Empty() {
				domainsOf = append(domainsOf, string(dom))
			}
		}
		for _, ns := range nss {
			edges = append(edges, string(set(str(nil, ns), v.EdgeSpans(n, ns))))
		}
		lines(" ns-of", nsOf)
		lines(" domain-of", domainOf)
		lines(" edges-of", edgesOf)
		lines(" domains-of ", domainsOf)
		lines(" edge", edges)
		days = append(days, dates.None, v.CloseDay(), v.CloseDay()+1)
		slices.Sort(days)
		for _, d := range slices.Compact(days) {
			var on []dnsname.Name
			v.EachNSOn(n, d, func(ns dnsname.Name) bool {
				on = append(on, ns)
				return true
			})
			if !exact {
				slices.Sort(on)
			}
			b = day(append(b, " on"...), d)
			b = strconv.AppendBool(append(b, " glue "...), v.GlueOn(n, d))
			b = strconv.AppendBool(append(b, " registered "...), v.DomainRegisteredOn(n, d))
			b = day(append(b, " next"...), v.DomainFirstSeenAfter(n, d))
			b = str(append(b, " ns"...), v.NSOn(n, d)...)
			b = append(str(append(b, " each"...), on...), '\n')
		}
	}

	listed := func(what string, each func(func(dnsname.Name) bool), spans func(dnsname.Name) bool) {
		var ls []dnsname.Name
		each(func(n dnsname.Name) bool {
			if exact || spans(n) {
				ls = append(ls, n)
			}
			return true
		})
		slices.Sort(ls)
		b = append(str(append(b, what...), ls...), '\n')
	}
	listed("nameservers", v.Nameservers, func(ns dnsname.Name) bool { return v.NSFirstSeen(ns) != dates.None })
	listed("domains", v.Domains, func(d dnsname.Name) bool { return !v.DomainSpans(d).Empty() })
	if exact {
		b = fmt.Appendf(b, "counts %d nameservers, %d domains\n", v.NumNameservers(), v.NumDomains())
	}
	b = fmt.Appendf(b, "zones %v closed %t close %s\n", v.Zones(), v.Closed(), v.CloseDay())

	var archive, segment bytes.Buffer
	b = fmt.Appendf(b, "archive %v\n%s", v.WriteArchive(&archive), archive.Bytes())
	b = fmt.Appendf(b, "segment %v %x\n", v.WriteSegment(&segment), segment.Bytes())
	var snaps bytes.Buffer
	x := v.ZoneIndex()
	for i, zone := range v.Zones() {
		for _, d := range []dates.Day{v.CloseDay() - 1, v.CloseDay()} {
			snap := x.SnapshotOn(zone, d)
			if i < 4 {
				// The walk of the whole view, for the first few zones.
				if whole := v.SnapshotOn(zone, d); !reflect.DeepEqual(whole, snap) {
					fmt.Fprintf(&snaps, "snapshot %s %s: the walk and the index differ\n", zone, d)
				}
			}
			if err := snap.Write(&snaps); err != nil {
				fmt.Fprintf(&snaps, "snapshot %s %s: %v\n", zone, d, err)
			}
		}
	}
	return string(b) + snaps.String()
}
