package zonedb

import (
	"hash/fnv"

	"repro/internal/dnsname"
)

// ShardOf maps a zone to its owning shard among n — FNV-32a of the zone
// name mod n. This is the single partition function for the system:
// parallel ingest uses it for zone-affine workers, dzdbd -shard-id uses
// it to project its slice of the fact space, and the cluster coordinator
// uses it to route single-zone queries to the owning shard. All three
// must agree, which is why it lives here.
func ShardOf(zone dnsname.Name, n int) int {
	h := fnv.New32a()
	h.Write([]byte(zone))
	return int(h.Sum32() % uint32(n))
}

// FilterZones projects the view onto the zones for which keep returns
// true, returning a fresh DB holding exactly those facts. Edges, open
// facts, domains, and glue follow their zone (the TLD of the fact's
// name); the traversal indexes are rebuilt from the kept edges.
//
// The projection preserves the source view's closed flag and close day
// VERBATIM — it does not re-derive a close day from the kept zones.
// That is load-bearing for the delta feed: a shard whose own zones all
// went quiet before the global close day must still record remove
// events at zoneLast+1 exactly as the unsharded database does, or the
// merged per-shard feeds would diverge from a single node's. Interval
// sets are shared with the source view (they are immutable once
// published); the returned DB clones on first mutation like any
// post-publish generation.
func (v *View) FilterZones(keep func(zone dnsname.Name) bool) *DB {
	t := newTables()
	for e, s := range v.edges {
		if keep(e.Domain.TLD()) {
			t.edges[e] = s
			t.byNS[e.NS] = append(t.byNS[e.NS], e)
			t.byDomain[e.Domain] = append(t.byDomain[e.Domain], e)
		}
	}
	for e, d := range v.openEdges {
		if keep(e.Domain.TLD()) {
			t.openEdges[e] = d
		}
	}
	for d, s := range v.domains {
		if keep(d.TLD()) {
			t.domains[d] = s
		}
	}
	for d, day := range v.openDomains {
		if keep(d.TLD()) {
			t.openDomains[d] = day
		}
	}
	for h, s := range v.glue {
		if keep(h.TLD()) {
			t.glue[h] = s
		}
	}
	for h, day := range v.openGlue {
		if keep(h.TLD()) {
			t.openGlue[h] = day
		}
	}
	for z := range v.zones {
		if keep(z) {
			t.zones[z] = true
		}
	}
	t.closed = v.closed
	t.closeDay = v.closeDay
	db := &DB{gen: &generation{tables: t, frozen: true, horizon: unknownDay}}
	db.mu.Lock()
	db.publishLocked(nil)
	db.mu.Unlock()
	return db
}

// FilterShard is FilterZones specialised to the ShardOf partition:
// the returned DB holds shard id's slice of an n-way partition.
func (v *View) FilterShard(id, n int) *DB {
	return v.FilterZones(func(zone dnsname.Name) bool { return ShardOf(zone, n) == id })
}
