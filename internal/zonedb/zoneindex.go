package zonedb

import (
	"maps"
	"slices"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
)

// ZoneIndex lists a view's delegation edges and glue hosts by zone,
// sorted by key, so a zone's snapshot visits that zone's facts and no
// other and emits them in order. It holds each fact as the view does,
// with its key, in slices of exactly the zone's size: 48 bytes an edge
// and 32 a glue host. It is immutable and safe for concurrent use; it
// keeps its view alive.
//
// A view does not keep its index: whoever renders many snapshots of one
// view (a server, for the epoch it serves; a dump of every zone-day)
// builds one with View.ZoneIndex, or extends the index of the epoch
// before with Extend, and holds it as long as it needs it.
type ZoneIndex struct {
	v     *View
	zones map[dnsname.Name]*zoneFacts
}

// zoneFacts is one zone's facts with their keys, each table sorted by
// key. An index extended from another shares the zones the epoch did not
// write.
type zoneFacts struct {
	edges []keyed[Edge]
	glue  []keyed[dnsname.Name]
}

// keyed is one fact with its key.
type keyed[K comparable] struct {
	k K
	f fact
}

func byEdge(a, b keyed[Edge]) int         { return CompareEdges(a.k, b.k) }
func byName(a, b keyed[dnsname.Name]) int { return dnsname.Compare(a.k, b.k) }

// ZoneIndex builds the view's zone index: one walk over its edges and one
// over its glue, then a sort of each zone's share. A loaded view walks its
// key order and places each zone's share stably, so each sort finds its
// share in order already.
func (v *View) ZoneIndex() *ZoneIndex {
	x := &ZoneIndex{v: v, zones: make(map[dnsname.Name]*zoneFacts, len(v.zones))}
	zone := func(z dnsname.Name) *zoneFacts {
		zf := x.zones[z]
		if zf == nil {
			zf = &zoneFacts{}
			x.zones[z] = zf
		}
		return zf
	}
	var edges []keyed[Edge]
	var glue []keyed[dnsname.Name]
	var edgeSlots, glueSlots map[dnsname.Name][2]int
	if v.seg != nil {
		edges, edgeSlots = byZoneInOrder(v.numEdges(), v.eachEdgeFact, Edge.zone)
		glue, glueSlots = byZoneInOrder(v.numGlue(), v.eachGlueFact, dnsname.Name.TLD)
	} else {
		edges, edgeSlots = byZone(v.edges, Edge.zone)
		glue, glueSlots = byZone(v.glue, dnsname.Name.TLD)
	}
	for z, r := range edgeSlots {
		zf := zone(z)
		zf.edges = edges[r[0]:r[1]:r[1]]
		slices.SortFunc(zf.edges, byEdge)
	}
	for z, r := range glueSlots {
		zf := zone(z)
		zf.glue = glue[r[0]:r[1]:r[1]]
		slices.SortFunc(zf.glue, byName)
	}
	return x
}

// zoneGroups numbers the zones of a table's keys in the order a walk meets
// them, and counts each zone's keys.
type zoneGroups struct {
	idOf  map[dnsname.Name]int32
	zones []dnsname.Name
	count []int
}

// add counts one key of zone z and returns z's group.
func (g *zoneGroups) add(z dnsname.Name) int32 {
	id, ok := g.idOf[z]
	if !ok {
		if g.idOf == nil {
			g.idOf = make(map[dnsname.Name]int32)
		}
		id = int32(len(g.zones))
		g.idOf[z] = id
		g.zones, g.count = append(g.zones, z), append(g.count, 0)
	}
	g.count[id]++
	return id
}

// layout lays the groups out side by side in group order, and returns
// each group's first slot and each zone's slots.
func (g *zoneGroups) layout() (start []int, slots map[dnsname.Name][2]int) {
	start = make([]int, len(g.count))
	slots = make(map[dnsname.Name][2]int, len(g.zones))
	for id, sum := 0, 0; id < len(g.count); id++ {
		start[id] = sum
		sum += g.count[id]
		slots[g.zones[id]] = [2]int{start[id], sum}
	}
	return start, slots
}

// byZone returns m's facts with their keys in one slice of exactly
// len(m), grouped by the zone zoneOf gives each key, and where each
// zone's group lies in it. It walks m once, then moves each entry into
// its group in place (an American-flag pass), so it holds no second copy.
func byZone[K comparable](m map[K]fact, zoneOf func(K) dnsname.Name) ([]keyed[K], map[dnsname.Name][2]int) {
	out := make([]keyed[K], 0, len(m))
	ids := make([]int32, 0, len(m)) // the group of each entry of out
	var g zoneGroups
	for k, f := range m {
		out = append(out, keyed[K]{k, f})
		ids = append(ids, g.add(zoneOf(k)))
	}
	next, slots := g.layout() // each group's next unplaced slot
	ends := make([]int, len(next))
	for id := range next {
		ends[id] = next[id] + g.count[id]
	}
	for id := range next {
		for next[id] < ends[id] {
			i := next[id]
			to := int(ids[i])
			if to == id {
				next[id]++
				continue
			}
			j := next[to]
			next[to]++
			out[i], out[j] = out[j], out[i]
			ids[i], ids[j] = ids[j], ids[i]
		}
	}
	return out, slots
}

// byZoneInOrder is byZone for a loaded table of n keys, which each walks
// in key order: a count, then a stable placement, so each zone's group
// keeps key order.
func byZoneInOrder[K comparable](n int, each func(func(K, fact) bool), zoneOf func(K) dnsname.Name) ([]keyed[K], map[dnsname.Name][2]int) {
	ids := make([]int32, 0, n)
	var g zoneGroups
	each(func(k K, _ fact) bool {
		ids = append(ids, g.add(zoneOf(k)))
		return true
	})
	next, slots := g.layout()
	out := make([]keyed[K], n)
	i := 0
	each(func(k K, f fact) bool {
		out[next[ids[i]]] = keyed[K]{k, f}
		next[ids[i]]++
		i++
		return true
	})
	return out, slots
}

// Extend returns the zone index of v given x, the index of the epoch
// before it, when v is a plain dated advance of that epoch
// (View.Advance), and false otherwise, when the caller builds v's. It
// reads from v only the facts whose value may differ from x's — the keys
// the epoch wrote, and the eager facts of either view, which a Close
// seals fact by fact — and copies only the zones they fall in: the cost
// of the change and of the zones it touched. An advance was written
// after any load, so v's facts are in its maps.
func (x *ZoneIndex) Extend(v *View) (*ZoneIndex, bool) {
	ch := v.Advance()
	if ch == nil || x.v.Epoch()+1 != v.Epoch() || x.v.CloseDay() != ch.ParentClose {
		return nil, false
	}
	y := &ZoneIndex{v: v, zones: maps.Clone(x.zones)}
	touched := func(z dnsname.Name) *zoneFacts {
		zf := &zoneFacts{}
		if was := y.zones[z]; was != nil {
			*zf = *was
		}
		y.zones[z] = zf
		return zf
	}
	for z, keys := range refreshed(ch.Edges, x.v.eager.edges, v.eager.edges, Edge.zone, CompareEdges) {
		zf := touched(z)
		zf.edges = merged(zf.edges, keys, v.edges, CompareEdges)
	}
	for z, keys := range refreshed(ch.Glue, x.v.eager.glue, v.eager.glue, dnsname.Name.TLD, dnsname.Compare) {
		zf := touched(z)
		zf.glue = merged(zf.glue, keys, v.glue, dnsname.Compare)
	}
	return y, true
}

// refreshed returns written and the keys of both eager sets, grouped by
// zone, each group sorted and duplicate-free.
func refreshed[K comparable](written []K, eagerWas, eagerNow map[K]bool, zoneOf func(K) dnsname.Name, cmp func(a, b K) int) map[dnsname.Name][]K {
	out := make(map[dnsname.Name][]K)
	add := func(k K) { z := zoneOf(k); out[z] = append(out[z], k) }
	for _, k := range written {
		add(k)
	}
	for k := range eagerWas {
		add(k)
	}
	for k := range eagerNow {
		add(k)
	}
	for z, keys := range out {
		slices.SortFunc(keys, cmp)
		out[z] = slices.Compact(keys)
	}
	return out
}

// merged returns a zone's sorted facts with the facts of keys, which are
// sorted, read from m: replaced where old holds the key, inserted where
// not, in a new slice of exactly the result's size.
func merged[K comparable](old []keyed[K], keys []K, m map[K]fact, cmp func(a, b K) int) []keyed[K] {
	n := len(old)
	for _, k := range keys {
		if _, found := slices.BinarySearchFunc(old, k, func(e keyed[K], k K) int { return cmp(e.k, k) }); !found {
			n++
		}
	}
	out := make([]keyed[K], 0, n)
	for _, k := range keys {
		i, found := slices.BinarySearchFunc(old, k, func(e keyed[K], k K) int { return cmp(e.k, k) })
		out = append(out, old[:i]...)
		out = append(out, keyed[K]{k, m[k]})
		if found {
			i++
		}
		old = old[i:]
	}
	return append(out, old...)
}

// SnapshotOn is View.SnapshotOn, visiting only zone's facts: the same
// snapshot, at the cost of the zone rather than the database.
func (x *ZoneIndex) SnapshotOn(zone dnsname.Name, day dates.Day) *dnszone.Snapshot {
	zf := x.zones[zone]
	if zf == nil {
		zf = &zoneFacts{}
	}
	sealed := x.v.sealedThrough(zone)
	var edges []Edge
	for _, e := range zf.edges {
		if e.f.shown(sealed).contains(day) {
			edges = append(edges, e.k)
		}
	}
	var hosts []dnsname.Name
	for _, g := range zf.glue {
		if g.f.shown(sealed).contains(day) {
			hosts = append(hosts, g.k)
		}
	}
	return snapshotOf(zone, day, edges, hosts)
}

// snapshotOf returns the snapshot of zone on day that holds the given
// delegation edges and glue hosts, both sorted by key.
func snapshotOf(zone dnsname.Name, day dates.Day, edges []Edge, hosts []dnsname.Name) *dnszone.Snapshot {
	snap := dnszone.NewSnapshot(zone, day)
	ns := make([]dnsname.Name, len(edges))
	for i := 0; i < len(edges); {
		j := i
		for ; j < len(edges) && edges[j].Domain == edges[i].Domain; j++ {
			ns[j] = edges[j].NS
		}
		snap.AddDelegation(edges[i].Domain, ns[i:j:j]...)
		i = j
	}
	// Glue addresses are not retained by the DB (only presence), so the
	// snapshot records presence with a reserved-documentation address.
	for _, h := range hosts {
		snap.AddGlue(h, docAddr)
	}
	return snap
}
