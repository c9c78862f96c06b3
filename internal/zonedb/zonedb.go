// Package zonedb implements the study's longitudinal zone database — the
// equivalent of CAIDA-DZDB built from nine years of daily TLD zone files.
//
// Rather than storing 3,400 daily snapshots, the DB records the day
// intervals during which each zone-visible fact held: a delegation edge
// (domain -> nameserver), a domain's registration, or a glue record. The
// registry reports changes as they happen (registry.Recorder), and the DB
// closes the affected interval; the result is bit-identical to diffing
// daily snapshots at one-day granularity, at event cost instead of
// snapshot cost. View.SnapshotOn reconstructs any single day's zone file.
//
// A fact still present is stored as the day its span opened; the tables
// carry the day each zone is sealed through, and readers see an open
// span through its zone's day. Sealing therefore costs the zones, not
// the facts: Close moves one day, CloseZones one per zone. Only a fact
// opened inside days already sealed (a back-dated event) is sealed fact
// by fact, and the tables list those facts so a seal visits no other.
//
// # Snapshot isolation
//
// The DB is an epoch store. Writers — the registry.Recorder mutators and
// the snapshot Ingester — build into a private generation; Close (or
// CloseZones) seals the generation and publishes it as an immutable
// *View with a single atomic pointer flip. Readers call View() once and
// hold the result for their whole operation: every query against that
// View is lock-free, safe under concurrent ingestion, and can never
// observe a half-ingested day. Adopt swaps in an independently rebuilt
// database the same way, which is how dzdbd keeps serving reads during a
// full re-ingest.
//
// The View is the only read API: the DB itself has no query methods, so
// nothing can read the writer's half-built generation, and a DB that
// recorded events but was never closed reads as what it publishes — the
// empty view.
//
// The View deliberately exposes only zone-derivable queries. The detector
// is built exclusively on this interface plus WHOIS, never on simulator
// ground truth.
package zonedb

import (
	"maps"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
)

// Edge identifies a delegation edge in a zone. The tags are its form in
// the /v1/deltas feed.
type Edge struct {
	Domain dnsname.Name `json:"domain"`
	NS     dnsname.Name `json:"ns"`
}

// docAddr stands in for glue addresses in reconstructed snapshots; the DB
// retains glue presence, not the address bytes, which the methodology
// never consults.
var docAddr = netip.MustParseAddr("192.0.2.1")

// generation is the DB's private build state: the fact tables plus the
// copy-on-write bookkeeping that keeps published Views immutable.
type generation struct {
	tables

	// frozen marks the top-level maps as shared with the most recently
	// published View; the first mutation afterwards clones them (thaw).
	frozen bool
	// owned, when non-nil, records which interval sets were allocated or
	// cloned since the last publish and are therefore safe to mutate in
	// place. nil means every set is owned (the generation has never been
	// published).
	owned map[*interval.Set]bool

	// change, when non-nil, collects the keys the Recorder methods write
	// while this generation is still a candidate advance of the last
	// published View: that view was sealed through change.ParentClose for
	// every fact, and no event since was dated on or before it. Anything
	// else that writes the tables drops it, and bulk ingest into a fresh
	// DB never has one.
	change *Change
	// horizon is the latest day an event of this generation's lineage was
	// dated, unknownDay when its tables were not built by events alone.
	// Close compares it with its day: a fact recorded past the close day
	// means the view is not sealed through it.
	horizon dates.Day
}

// unknownDay is the horizon of tables loaded from bytes or projected from
// another view: no Close day is late enough to vouch for them.
const unknownDay = dates.Day(1<<31 - 1)

// Change says what a View that is a plain dated advance of the epoch
// before it changed: the database was sealed through ParentClose for
// every fact at epoch-1, Close moved it to a later day, and every event
// in between was dated after ParentClose and no later than the new close
// day. The keys are the facts those events wrote, sorted and
// duplicate-free; every other fact's spans are the parent's, extended
// through the new close day where they reached ParentClose. It is
// read-only, and holds nothing of the parent but its close day.
type Change struct {
	ParentClose dates.Day
	Edges       []Edge
	Domains     []dnsname.Name
	Glue        []dnsname.Name
}

// saw notes an event dated day that changed the tables, and returns the
// lists to record its key in — nil when the epoch is not tracked, which a
// back-dated event makes it.
func (g *generation) saw(day dates.Day) *Change {
	if day > g.horizon {
		g.horizon = day
	}
	if g.change != nil && day <= g.change.ParentClose {
		g.change = nil
	}
	return g.change
}

// own returns s with r added: s itself when this generation allocated or
// cloned it since the last publish, else a copy that it now owns (and a
// new set when s is nil), so a published View never sees the write.
func (g *generation) own(s *interval.Set, r dates.Range) *interval.Set {
	if s == nil || g.owned != nil && !g.owned[s] {
		var c interval.Set
		if s != nil {
			c = s.Clone()
		}
		s = &c
		if g.owned != nil {
			g.owned[s] = true
		}
	}
	s.Add(r)
	return s
}

// opened returns f, keyed k in zone, with an open span starting on day:
// eager when zone is already sealed through day. keys is its table's set
// of eager keys.
func opened[K comparable](g *generation, keys *map[K]bool, k K, zone dnsname.Name, f fact, day dates.Day) fact {
	f.start, f.open, f.eager = day, true, day <= g.sealedThrough(zone)
	book(&g.tables, keys, k, zone, f, 1)
	return f
}

// ended returns f, keyed k in zone, with its open span ended on day-1, or
// on the day zone is sealed through if that is later: a seal already
// showed those days. An eager fact's spans already hold what seals showed
// of it.
func ended[K comparable](g *generation, keys *map[K]bool, k K, zone dnsname.Name, f fact, day dates.Day) fact {
	book(&g.tables, keys, k, zone, f, -1)
	last := day - 1
	if !f.eager {
		last = dates.Max(last, g.sealedThrough(zone))
	}
	if last >= f.start {
		f.spans = g.own(f.spans, dates.NewRange(f.start, last))
	}
	f.open, f.eager = false, false
	return f
}

// thaw clones the generation's top-level maps so mutations stop being
// visible to the last published View. Interval sets and index slices are
// still shared; sets are cloned lazily by own, and index slices are only
// ever appended to (readers never see past their own length).
func (g *generation) thaw() {
	if !g.frozen {
		return
	}
	g.edges = cloneMap(g.edges)
	g.domains = cloneMap(g.domains)
	g.glue = cloneMap(g.glue)
	g.byNS = cloneMap(g.byNS)
	g.byDomain = cloneMap(g.byDomain)
	g.zones = cloneMap(g.zones)
	g.eager = g.eager.clone()
	g.shown = maps.Clone(g.shown)
	g.owned = make(map[*interval.Set]bool)
	g.frozen = false
}

func cloneMap[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// DB is the longitudinal zone database handle. Create with New, feed it
// as a registry.Recorder (or through an Ingester), then call Close to
// seal and publish; View hands out the published immutable snapshot.
type DB struct {
	mu    sync.Mutex // guards gen and epoch
	gen   *generation
	epoch uint64
	cur   atomic.Pointer[View]

	// hookMu guards hooks, separately from mu so registration can never
	// deadlock against a publish in flight.
	hookMu sync.Mutex
	hooks  []func(*View)
}

// New returns an empty DB with an empty View published.
func New() *DB {
	db := &DB{gen: &generation{tables: newTables(), horizon: dates.None}}
	db.mu.Lock()
	db.publishLocked(nil)
	db.mu.Unlock()
	return db
}

// View returns the most recently published immutable snapshot of the
// database. The result is never nil: before the first Close it is an
// empty view. Holding a View pins one consistent generation; it never
// changes under the caller, no matter what writers do afterwards.
func (db *DB) View() *View { return db.cur.Load() }

// OnPublish registers fn to run after every subsequent publish — each
// Close, CloseZones, or Adopt — with the freshly published View. Hooks
// run synchronously on the publishing goroutine, outside the DB's write
// lock, in registration order; a hook may therefore query the DB freely
// but should stay cheap relative to the publish cadence. The serving
// layer uses this to recompute hot aggregates and flush response caches
// the moment a new epoch lands.
func (db *DB) OnPublish(fn func(*View)) {
	db.hookMu.Lock()
	db.hooks = append(db.hooks, fn)
	db.hookMu.Unlock()
}

// firePublish invokes the registered publish hooks with v. Callers must
// NOT hold db.mu.
func (db *DB) firePublish(v *View) {
	db.hookMu.Lock()
	hooks := db.hooks
	db.hookMu.Unlock()
	for _, fn := range hooks {
		fn(v)
	}
}

// writable returns the build generation ready for mutation, thawing it
// if it is still shared with the last published View.
func (db *DB) writable() *generation {
	db.gen.thaw()
	return db.gen
}

// publishLocked seals map ownership and flips the published view pointer;
// advance is what the view reports as its change from the epoch before,
// nil unless Close found it a plain dated advance. Callers must hold
// db.mu.
func (db *DB) publishLocked(advance *Change) {
	g := db.gen
	db.epoch++
	v := &View{tables: g.tables, epoch: db.epoch, change: advance}
	g.frozen = true
	g.owned = nil
	g.change = nil
	db.cur.Store(v)
}

// Adopt atomically replaces db's published contents with other's current
// state — the whole-database swap dzdbd performs after a background
// re-ingest. Readers holding an old View keep it; View() calls after
// Adopt see other's data. other (typically a freshly Finished ingester
// DB) must not be mutated concurrently with the call; afterwards both
// handles are independently usable.
func (db *DB) Adopt(other *DB) {
	other.mu.Lock()
	og := other.gen
	// other's tables are sealed through one day for every fact exactly
	// when its last Close left it tracking and nothing was written since.
	sealed := og.frozen && og.change != nil
	og.frozen = true
	og.owned = nil
	t, horizon := og.tables, og.horizon
	other.mu.Unlock()

	db.mu.Lock()
	db.gen = &generation{tables: t, frozen: true, horizon: horizon}
	db.publishLocked(nil)
	if sealed {
		db.gen.change = &Change{ParentClose: t.closeDay}
	}
	v := db.cur.Load()
	db.mu.Unlock()
	db.firePublish(v)
}

// absorb merges other's fact tables into db — the parallel-ingest shard
// merge. The shards are zone-disjoint, so every table except the byNS
// index (one nameserver can serve many zones) is a plain union; byNS
// appends. other must be quiescent and is dead after the call.
func (db *DB) absorb(other *DB) {
	other.mu.Lock()
	og := other.gen
	other.mu.Unlock()

	db.mu.Lock()
	defer db.mu.Unlock()
	g := db.writable()
	g.change = nil
	g.horizon = dates.Max(g.horizon, og.horizon)
	g.sealZone = maps.Clone(g.sealZone) // absorbFacts may raise a zone's day
	absorbFacts(g, &og.tables, g.edges, og.edges, &g.eager.edges, Edge.zone)
	absorbFacts(g, &og.tables, g.domains, og.domains, &g.eager.domains, dnsname.Name.TLD)
	absorbFacts(g, &og.tables, g.glue, og.glue, &g.eager.glue, dnsname.Name.TLD)
	for ns, es := range og.byNS {
		g.byNS[ns] = append(g.byNS[ns], es...)
	}
	for d, es := range og.byDomain {
		g.byDomain[d] = append(g.byDomain[d], es...)
	}
	for z := range og.zones {
		g.zones[z] = true
	}
}

// absorbFacts copies from's facts into dst; keys is dst's set of eager
// keys. An open fact's zone takes from's sealed-through day where that is
// later than g's: the zone is from's alone, so no fact of g's reads it.
// Where g's day is later, the fact is first put as from's seal left it:
// the open span it showed is written into its spans, it reopens the day
// after, and it is eager if g's zone is sealed through that day.
func absorbFacts[K comparable](g *generation, from *tables, dst, src map[K]fact, keys *map[K]bool, zone func(K) dnsname.Name) {
	for k, f := range src {
		z := zone(k)
		if s := from.sealedThrough(z); f.open && s > g.sealedThrough(z) {
			if g.sealZone == nil {
				g.sealZone = make(map[dnsname.Name]dates.Day)
			}
			g.sealZone[z] = s
		} else if f.open && s < g.sealedThrough(z) {
			if tail := from.spansOf(f, z).tail; !tail.Empty() {
				f.spans, f.start = g.own(f.spans, tail), tail.Last+1
			}
			f.eager = f.start <= g.sealedThrough(z)
		}
		book(&g.tables, keys, k, z, f, 1)
		if f.spans != nil && g.owned != nil {
			g.owned[f.spans] = true
		}
		dst[k] = f
	}
}

// markZone records zone as observed (internal ingester hook for
// header-only snapshots).
func (db *DB) markZone(zone dnsname.Name) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.writable().zones[zone] = true
}

// DelegationAdded implements registry.Recorder.
func (db *DB) DelegationAdded(zone, domain, ns dnsname.Name, day dates.Day) {
	db.mu.Lock()
	defer db.mu.Unlock()
	g := db.writable()
	g.zones[zone] = true
	e := Edge{Domain: domain, NS: ns}
	f, seen := g.edges[e]
	if f.open {
		return // duplicate add; ignore
	}
	if !seen {
		g.byNS[ns] = append(g.byNS[ns], e)
		g.byDomain[domain] = append(g.byDomain[domain], e)
	}
	g.edges[e] = opened(g, &g.eager.edges, e, domain.TLD(), f, day)
	if c := g.saw(day); c != nil {
		c.Edges = append(c.Edges, e)
	}
}

// DelegationRemoved implements registry.Recorder. The edge was last
// visible on day-1.
func (db *DB) DelegationRemoved(zone, domain, ns dnsname.Name, day dates.Day) {
	db.mu.Lock()
	defer db.mu.Unlock()
	g := db.writable()
	e, seen := g.storedEdge(domain, ns)
	f := g.edges[e]
	if !seen || !f.open {
		return
	}
	g.edges[e] = ended(g, &g.eager.edges, e, domain.TLD(), f, day)
	if c := g.saw(day); c != nil {
		c.Edges = append(c.Edges, e)
	}
}

// DomainAdded implements registry.Recorder.
func (db *DB) DomainAdded(zone, domain dnsname.Name, day dates.Day) {
	db.mu.Lock()
	defer db.mu.Unlock()
	g := db.writable()
	g.zones[zone] = true
	if add(g, g.domains, &g.eager.domains, domain, day) {
		if c := g.saw(day); c != nil {
			c.Domains = append(c.Domains, domain)
		}
	}
}

// DomainRemoved implements registry.Recorder.
func (db *DB) DomainRemoved(zone, domain dnsname.Name, day dates.Day) {
	db.mu.Lock()
	defer db.mu.Unlock()
	g := db.writable()
	if remove(g, g.domains, &g.eager.domains, domain, day) {
		if c := g.saw(day); c != nil {
			c.Domains = append(c.Domains, domain)
		}
	}
}

// GlueAdded implements registry.Recorder.
func (db *DB) GlueAdded(zone, host dnsname.Name, day dates.Day) {
	db.mu.Lock()
	defer db.mu.Unlock()
	g := db.writable()
	g.zones[zone] = true
	if add(g, g.glue, &g.eager.glue, host, day) {
		if c := g.saw(day); c != nil {
			c.Glue = append(c.Glue, host)
		}
	}
}

// GlueRemoved implements registry.Recorder.
func (db *DB) GlueRemoved(zone, host dnsname.Name, day dates.Day) {
	db.mu.Lock()
	defer db.mu.Unlock()
	g := db.writable()
	if remove(g, g.glue, &g.eager.glue, host, day) {
		if c := g.saw(day); c != nil {
			c.Glue = append(c.Glue, host)
		}
	}
}

// add opens name's span in m (whose eager keys are keys) on day and
// reports whether it was not open already.
func add(g *generation, m map[dnsname.Name]fact, keys *map[dnsname.Name]bool, name dnsname.Name, day dates.Day) bool {
	f := m[name]
	if f.open {
		return false
	}
	m[name] = opened(g, keys, name, name.TLD(), f, day)
	return true
}

// remove ends name's open span in m (whose eager keys are keys) on day-1
// and reports whether it had one. The entry is written under a copy of
// name: writing a map entry stores its key anew, and the caller's string
// may pin more than itself (the ingester's is a slice of the day's zone
// file).
func remove(g *generation, m map[dnsname.Name]fact, keys *map[dnsname.Name]bool, name dnsname.Name, day dates.Day) bool {
	f := m[name]
	if !f.open {
		return false
	}
	name = cloneName(name)
	m[name] = ended(g, keys, name, name.TLD(), f, day)
	return true
}

// storedEdge returns edge (domain, ns) made of the strings the tables hold
// it by, for writing its entry without storing the caller's (see remove).
func (t *tables) storedEdge(domain, ns dnsname.Name) (Edge, bool) {
	for _, e := range t.byDomain[domain] {
		if e.NS == ns {
			return e, true
		}
	}
	return Edge{}, false
}

// sealEager seals each eager fact through lastFor(its zone): the days
// from its open day through lastFor are written into its spans and it
// reopens the day after — unless lastFor reaches its zone's sealed-through
// day, when it stops being eager and its open span shows like any other.
// A zone lastFor gives no day (dates.None) is left as it is. It visits the
// eager keys only, and must run before the seal days move.
// Callers hold db.mu and have thawed the generation.
func (g *generation) sealEager(lastFor func(zone dnsname.Name) dates.Day) {
	sealEagerIn(g, g.edges, g.eager.edges, Edge.zone, lastFor)
	sealEagerIn(g, g.domains, g.eager.domains, dnsname.Name.TLD, lastFor)
	sealEagerIn(g, g.glue, g.eager.glue, dnsname.Name.TLD, lastFor)
}

func sealEagerIn[K comparable](g *generation, m map[K]fact, keys map[K]bool, zone func(K) dnsname.Name, lastFor func(dnsname.Name) dates.Day) {
	for k := range keys {
		f, z := m[k], zone(k)
		switch last := lastFor(z); {
		case last == dates.None:
			continue
		case last >= g.sealedThrough(z):
			book(&g.tables, &keys, k, z, f, -1)
			f.eager = false
			book(&g.tables, &keys, k, z, f, 1)
		case last >= f.start:
			f.spans, f.start = g.own(f.spans, dates.NewRange(f.start, last)), last+1
		}
		m[k] = f
	}
}

// Close ends observation on lastDay: every still-open fact is recorded as
// present through lastDay, or through the later day an earlier Close
// sealed it through. It costs the zones and the change, not the database:
// the seal moves the day every zone is sealed through, and readers show
// an open fact's span through its zone's day (see fact). A Close with no
// write since the last publish publishes the same tables under the new
// day. The exception is an eager fact (an event back-dated into sealed
// days, or absorbed from a database sealed through an earlier day): while
// one is open, Close also writes the days it seals into each eager fact —
// O(zones + change + eager facts) — and, with nothing written since the
// last publish, first clones the fact maps, which costs the database. The
// sealed generation is published, so View() reflects it afterwards. Close
// may be called again with a later day after further events.
//
// When the view published before this one was itself sealed through one
// day for every fact, lastDay is later, and every event in between was
// dated after that day and no later than lastDay, the new view is an
// advance of it (View.Advance) and says which facts it wrote.
func (db *DB) Close(lastDay dates.Day) {
	db.mu.Lock()
	g := db.gen
	if g.eager.any() {
		db.writable().sealEager(func(dnsname.Name) dates.Day { return lastDay })
	}
	g.sealAll = dates.Max(g.sealAll, lastDay)
	sealed := g.horizon <= lastDay && !g.openPast(lastDay)
	g.closed = true
	g.closeDay = lastDay
	advance := g.change
	if advance != nil && (!sealed || lastDay <= advance.ParentClose) {
		advance = nil
	}
	if advance != nil {
		advance.Edges = sortedSet(advance.Edges, CompareEdges)
		advance.Domains = sortedSet(advance.Domains, dnsname.Compare)
		advance.Glue = sortedSet(advance.Glue, dnsname.Compare)
	}
	db.publishLocked(advance)
	if sealed {
		g.change = &Change{ParentClose: lastDay}
	}
	v := db.cur.Load()
	db.mu.Unlock()
	db.firePublish(v)
}

// sortedSet sorts s and drops its repeats, in place.
func sortedSet[T comparable](s []T, cmp func(a, b T) int) []T {
	slices.SortFunc(s, cmp)
	return slices.Compact(s)
}

// CloseZones is Close with a per-zone last observation day — the shape a
// snapshot ingest needs when zones end on different days (a zone whose
// series went dark mid-study must not have its facts extended through
// other zones' later days). Facts in zones absent from last are left
// open. The database's close day becomes the latest day in last. Like
// Close it costs the zones, not the facts, save the eager facts it seals
// (see Close). The view is never an advance, nor a parent of one: zones
// end on their own days.
func (db *DB) CloseZones(last map[dnsname.Name]dates.Day) {
	db.mu.Lock()
	g := db.gen
	if g.eager.any() {
		db.writable().sealEager(func(zone dnsname.Name) dates.Day {
			if d, ok := last[zone]; ok {
				return d
			}
			return dates.None
		})
	}
	sealZone := maps.Clone(g.sealZone)
	if sealZone == nil {
		sealZone = make(map[dnsname.Name]dates.Day, len(last))
	}
	latest := dates.None
	for zone, d := range last {
		if was, ok := sealZone[zone]; !ok || d > was {
			sealZone[zone] = d
		}
		latest = dates.Max(latest, d)
	}
	g.sealZone = sealZone
	g.closed = true
	g.closeDay = latest
	db.publishLocked(nil)
	v := db.cur.Load()
	db.mu.Unlock()
	db.firePublish(v)
}
