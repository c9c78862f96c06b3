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
// true, returning a fresh DB holding exactly those facts. Edges, domains
// and glue follow their zone (the TLD of the fact's name); the traversal
// indexes are rebuilt from the kept edges.
//
// The projection preserves the source view's closed flag, close day and
// seal days VERBATIM — it does not re-derive a close day from the kept
// zones. That is load-bearing for the delta feed: a shard whose own zones
// all went quiet before the global close day must still record remove
// events at zoneLast+1 exactly as the unsharded database does, or the
// merged per-shard feeds would diverge from a single node's. Interval
// sets are shared with the source view (they are immutable once
// published); the returned DB clones on first mutation like any
// post-publish generation.
func (v *View) FilterZones(keep func(zone dnsname.Name) bool) *DB {
	t := newTables()
	for e, f := range v.edges {
		if keep(e.zone()) {
			t.edges[e] = f
			t.byNS[e.NS] = append(t.byNS[e.NS], e)
			t.byDomain[e.Domain] = append(t.byDomain[e.Domain], e)
			book(&t, &t.eager.edges, e, e.zone(), f, 1)
		}
	}
	filterFacts(&t, t.domains, v.domains, &t.eager.domains, keep)
	filterFacts(&t, t.glue, v.glue, &t.eager.glue, keep)
	for z := range v.zones {
		if keep(z) {
			t.zones[z] = true
		}
	}
	t.closed, t.closeDay = v.closed, v.closeDay
	t.sealAll, t.sealZone = v.sealAll, v.sealZone
	db := &DB{gen: &generation{tables: t, frozen: true, horizon: unknownDay}}
	db.mu.Lock()
	db.publishLocked(nil)
	db.mu.Unlock()
	return db
}

// filterFacts copies the facts of src whose zone keep keeps into dst, one
// of t's tables, whose eager keys are keys.
func filterFacts(t *tables, dst, src map[dnsname.Name]fact, keys *map[dnsname.Name]bool, keep func(zone dnsname.Name) bool) {
	for n, f := range src {
		if keep(n.TLD()) {
			dst[n] = f
			book(t, keys, n, n.TLD(), f, 1)
		}
	}
}

// FilterShard is FilterZones specialised to the ShardOf partition:
// the returned DB holds shard id's slice of an n-way partition.
func (v *View) FilterShard(id, n int) *DB {
	return v.FilterZones(func(zone dnsname.Name) bool { return ShardOf(zone, n) == id })
}
