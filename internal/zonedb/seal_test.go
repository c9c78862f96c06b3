package zonedb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/sim"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// The reference model of the seal. Until Close learned to move each
// zone's sealed-through day, it sealed eagerly: every still-open fact had
// the days through the close day added to its set, and its open day moved
// past them (sealLocked and sealOne). refTable and refDB are that code
// over plain maps, with the Advance bookkeeping Close kept around it, and
// TestSealEquivalence and FuzzSeal hold the database to it.

// refTable is one fact table of the model: every key ever added, with the
// spans sealed or ended so far, and the open keys' open day.
type refTable[K comparable] struct {
	spans map[K]*interval.Set
	open  map[K]dates.Day
}

func newRefTable[K comparable]() refTable[K] {
	return refTable[K]{spans: map[K]*interval.Set{}, open: map[K]dates.Day{}}
}

// apply records an add or a remove of k dated day and reports whether it
// changed anything.
func (r refTable[K]) apply(add bool, k K, day dates.Day) bool {
	start, open := r.open[k]
	switch {
	case add && !open:
		if r.spans[k] == nil {
			r.spans[k] = &interval.Set{}
		}
		r.open[k] = day
		return true
	case !add && open:
		delete(r.open, k)
		if day-1 >= start {
			r.spans[k].Add(dates.NewRange(start, day-1))
		}
		return true
	}
	return false
}

// seal extends every open fact through its zone's last day (none: left
// open) and reports whether each now stands sealed through that day.
func (r refTable[K]) seal(zone func(K) dnsname.Name, lastFor func(dnsname.Name) dates.Day) bool {
	all := true
	for k, start := range r.open {
		last := lastFor(zone(k))
		if last == dates.None {
			all = false
			continue
		}
		if last >= start {
			r.spans[k].Add(dates.NewRange(start, last))
			r.open[k] = last + 1
		}
		if start > last+1 {
			all = false
		}
	}
	return all
}

func (r refTable[K]) filter(zone func(K) dnsname.Name, keep func(dnsname.Name) bool, sealed bool) refTable[K] {
	out := newRefTable[K]()
	for k, s := range r.spans {
		if keep(zone(k)) && (!sealed || !s.Empty()) {
			out.spans[k] = s
		}
	}
	for k, d := range r.open {
		if keep(zone(k)) && !sealed {
			out.open[k] = d
		}
	}
	return out
}

func (r refTable[K]) union(o refTable[K]) {
	for k, s := range o.spans {
		r.spans[k] = s
	}
	for k, d := range o.open {
		r.open[k] = d
	}
}

func edgeZone(e zonedb.Edge) dnsname.Name { return e.Domain.TLD() }

// unknownDay is the model's horizon for tables it cannot date.
const unknownDay = dates.Day(1<<31 - 1)

type refDB struct {
	edges         refTable[zonedb.Edge]
	domains, glue refTable[dnsname.Name]
	zones         map[dnsname.Name]bool
	closed        bool
	closeDay      dates.Day
	horizon       dates.Day
	change        *zonedb.Change // the lineage's tracked change, nil when not tracked
	dirty         bool           // a Recorder method ran since the last publish
	advance       *zonedb.Change // the last publish's Advance
	leftPast      int            // Closes that found every event on or before their day, and a fact sealed past it
}

func newRef() *refDB {
	return &refDB{edges: newRefTable[zonedb.Edge](), domains: newRefTable[dnsname.Name](),
		glue: newRefTable[dnsname.Name](), zones: map[dnsname.Name]bool{}, horizon: dates.None}
}

func (r *refDB) saw(day dates.Day) *zonedb.Change {
	r.horizon = dates.Max(r.horizon, day)
	if r.change != nil && day <= r.change.ParentClose {
		r.change = nil
	}
	return r.change
}

func (r *refDB) seal(lastFor func(dnsname.Name) dates.Day) bool {
	a := r.edges.seal(edgeZone, lastFor)
	b := r.domains.seal(dnsname.Name.TLD, lastFor)
	c := r.glue.seal(dnsname.Name.TLD, lastFor)
	return a && b && c
}

func (r *refDB) publish(advance *zonedb.Change) {
	r.advance, r.change, r.dirty = advance, nil, false
}

func (r *refDB) close(last dates.Day) {
	all := r.seal(func(dnsname.Name) dates.Day { return last })
	if !all && r.horizon <= last {
		r.leftPast++
	}
	sealed := all && r.horizon <= last
	r.closed, r.closeDay = true, last
	advance := r.change
	if advance != nil && (!sealed || last <= advance.ParentClose) {
		advance = nil
	}
	if advance != nil {
		advance.Edges = sortedSet(advance.Edges, zonedb.CompareEdges)
		advance.Domains = sortedSet(advance.Domains, dnsname.Compare)
		advance.Glue = sortedSet(advance.Glue, dnsname.Compare)
	}
	r.publish(advance)
	if sealed {
		r.change = &zonedb.Change{ParentClose: last}
	}
}

func (r *refDB) closeZones(last map[dnsname.Name]dates.Day) {
	r.seal(func(z dnsname.Name) dates.Day {
		if d, ok := last[z]; ok {
			return d
		}
		return dates.None
	})
	latest := dates.None
	for _, d := range last {
		latest = dates.Max(latest, d)
	}
	r.closed, r.closeDay = true, latest
	r.publish(nil)
}

// project is the model of a database made from r's published view:
// FilterZones' (keep), or a segment's read back (sealed: no open fact,
// no key without spans).
func (r *refDB) project(keep func(dnsname.Name) bool, sealed bool) *refDB {
	out := newRef()
	out.edges = r.edges.filter(edgeZone, keep, sealed)
	out.domains = r.domains.filter(dnsname.Name.TLD, keep, sealed)
	out.glue = r.glue.filter(dnsname.Name.TLD, keep, sealed)
	for z := range r.zones {
		if keep(z) {
			out.zones[z] = true
		}
	}
	out.closed, out.closeDay, out.horizon = r.closed, r.closeDay, unknownDay
	return out
}

func (r *refDB) view() *zonedb.View {
	zones := make([]dnsname.Name, 0, len(r.zones))
	for z := range r.zones {
		zones = append(zones, z)
	}
	return zonedb.ViewOfSpans(r.closed, r.closeDay, zones, r.edges.spans, r.domains.spans, r.glue.spans)
}

func sortedSet[T comparable](s []T, cmp func(a, b T) int) []T {
	slices.SortFunc(s, cmp)
	return slices.Compact(s)
}

// sealScript plays one random sequence of operations into a database and
// the model side by side, and compares them after every publish.
type sealScript struct {
	tb    testing.TB
	pick  func(n int) int
	db    *zonedb.DB
	ref   *refDB
	day   dates.Day // the latest close day so far
	inUse []dnsname.Name
	spare []dnsname.Name
	prev  *delta.Index // the index of the database's last epoch, if closed
	drawn map[string]int
	// reach is how many days on either side of the latest close day check
	// asks about.
	reach int
}

func newSealScript(tb testing.TB, pick func(n int) int) *sealScript {
	return &sealScript{tb: tb, pick: pick, db: zonedb.New(), ref: newRef(), day: dates.Day(100),
		inUse: []dnsname.Name{"com", "net", "org"}, spare: []dnsname.Name{"biz", "info", "xyz"},
		drawn: map[string]int{}, reach: 5}
}

func (s *sealScript) chance(pct int) bool { return s.pick(100) < pct }

func domainIn(zone dnsname.Name, i int) dnsname.Name {
	return dnsname.Name(fmt.Sprintf("d%d.%s", i, zone))
}

func hostIn(zone dnsname.Name, i, j int) dnsname.Name {
	return dnsname.Name(fmt.Sprintf("ns%d.d%d.%s", j, i, zone))
}

// eventDay draws an event's date around the latest close day.
func (s *sealScript) eventDay() dates.Day {
	switch r := s.pick(10); {
	case r < 6:
		s.drawn["event dated the next day"]++
		return s.day + 1
	case r < 8:
		s.drawn["back-dated event"]++
		return s.day - dates.Day(s.pick(6))
	default:
		s.drawn["future-dated event"]++
		return s.day + 2 + dates.Day(s.pick(4))
	}
}

// factKey names one fact of the script's pools: kind 0 an edge from
// domain i to host j of domain k in nsZone, 1 domain i, 2 host j of
// domain i.
type factKey struct {
	kind, i, j, k int
	nsZone        dnsname.Name
}

func (s *sealScript) key() factKey {
	all := append(slices.Clone(s.inUse), s.spare...)
	return factKey{kind: s.pick(3), i: s.pick(4), j: s.pick(2), k: s.pick(4), nsZone: all[s.pick(len(all))]}
}

// event applies an add or a remove of the fact k names in zone, dated
// day, to db and model.
func event(db *zonedb.DB, ref *refDB, zone dnsname.Name, k factKey, add bool, day dates.Day) {
	ref.dirty = true
	if add {
		ref.zones[zone] = true
	}
	var changed bool
	switch k.kind {
	case 0:
		e := zonedb.Edge{Domain: domainIn(zone, k.i), NS: hostIn(k.nsZone, k.k, k.j)}
		if add {
			db.DelegationAdded(zone, e.Domain, e.NS, day)
		} else {
			db.DelegationRemoved(zone, e.Domain, e.NS, day)
		}
		if changed = ref.edges.apply(add, e, day); changed {
			if c := ref.saw(day); c != nil {
				c.Edges = append(c.Edges, e)
			}
		}
	case 1:
		n := domainIn(zone, k.i)
		if add {
			db.DomainAdded(zone, n, day)
		} else {
			db.DomainRemoved(zone, n, day)
		}
		if changed = ref.domains.apply(add, n, day); changed {
			if c := ref.saw(day); c != nil {
				c.Domains = append(c.Domains, n)
			}
		}
	default:
		h := hostIn(zone, k.i, k.j)
		if add {
			db.GlueAdded(zone, h, day)
		} else {
			db.GlueRemoved(zone, h, day)
		}
		if changed = ref.glue.apply(add, h, day); changed {
			if c := ref.saw(day); c != nil {
				c.Glue = append(c.Glue, h)
			}
		}
	}
}

// events plays a burst of n events in zones into db and model.
func (s *sealScript) events(db *zonedb.DB, ref *refDB, zones []dnsname.Name, n int) {
	for range n {
		zone, k := zones[s.pick(len(zones))], s.key()
		switch r := s.pick(20); {
		case r == 0:
			s.drawn["same-day add and remove"]++
			day := s.eventDay()
			event(db, ref, zone, k, true, day)
			event(db, ref, zone, k, false, day)
		case r == 1:
			s.drawn["duplicate add"]++
			day := s.eventDay()
			event(db, ref, zone, k, true, day)
			event(db, ref, zone, k, true, day+dates.Day(s.pick(3)))
		default:
			event(db, ref, zone, k, r < 13, s.eventDay())
		}
	}
}

// closeDay draws a Close day: later than the latest, the same, or
// earlier.
func (s *sealScript) closeDay() dates.Day {
	switch r := s.pick(10); {
	case r < 6:
		s.drawn["Close with a later day"]++
		return s.day + 1 + dates.Day(s.pick(3))
	case r < 8:
		s.drawn["Close with the same day"]++
		return s.day
	default:
		s.drawn["Close with an earlier day"]++
		return s.day - 1 - dates.Day(s.pick(3))
	}
}

// ragged draws a CloseZones map over zones: some absent, days around the
// latest close day.
func (s *sealScript) ragged(zones []dnsname.Name) map[dnsname.Name]dates.Day {
	last := map[dnsname.Name]dates.Day{}
	for _, z := range zones {
		if s.chance(25) {
			s.drawn["CloseZones with an absent zone"]++
			continue
		}
		last[z] = s.day - 2 + dates.Day(s.pick(6))
	}
	if len(last) == 0 {
		last[zones[0]] = s.day
	}
	s.drawn["CloseZones with ragged ends"]++
	return last
}

// other builds a second database and its model from a short history in
// zones, sealed or not, and written since or not.
func (s *sealScript) other(zones []dnsname.Name) (*zonedb.DB, *refDB) {
	db, ref := zonedb.New(), newRef()
	s.events(db, ref, zones, 1+s.pick(8))
	switch s.pick(3) {
	case 0:
		last := s.closeDay()
		db.Close(last)
		ref.close(last)
	case 1:
		last := s.ragged(zones)
		db.CloseZones(last)
		ref.closeZones(last)
	}
	if s.chance(30) {
		s.events(db, ref, zones, 1+s.pick(3))
	}
	return db, ref
}

func (s *sealScript) step() {
	switch r := s.pick(100); {
	case r < 40:
		s.events(s.db, s.ref, s.inUse, 1+s.pick(4))
	case r < 62:
		s.close(s.closeDay())
		if s.chance(25) {
			// Straight back to an earlier day: the seal had already shown
			// every open fact past it.
			s.drawn["Close with an earlier day right after"]++
			s.close(s.day - 1 - dates.Day(s.pick(2)))
		}
	case r < 70:
		last := s.ragged(s.inUse)
		s.db.CloseZones(last)
		s.ref.closeZones(last)
		for _, d := range last {
			s.day = dates.Max(s.day, d)
		}
		s.check("CloseZones")
	case r < 77:
		s.drawn["Adopt"]++
		db, ref := s.other(s.inUse)
		sealed := !ref.dirty && ref.change != nil
		s.db.Adopt(db)
		s.ref = ref
		s.ref.publish(nil)
		if sealed {
			s.ref.change = &zonedb.Change{ParentClose: ref.closeDay}
		}
		s.check("Adopt")
	case r < 84:
		if s.ref.dirty {
			return
		}
		s.drawn["FilterShard"]++
		id, n := s.pick(3), 1+s.pick(3)
		id %= n
		s.db = s.db.View().FilterShard(id, n)
		s.ref = s.ref.project(func(z dnsname.Name) bool { return zonedb.ShardOf(z, n) == id }, false)
		s.prev = nil
		s.check("FilterShard")
	case r < 92:
		if len(s.spare) == 0 {
			return
		}
		s.drawn["absorb"]++
		zone := s.spare[0]
		db, ref := s.other([]dnsname.Name{zone})
		s.spare, s.inUse = s.spare[1:], append(s.inUse, zone)
		s.absorb(db, ref)
	default:
		if s.ref.dirty || !s.ref.closed {
			return
		}
		s.drawn["segment round-trip"]++
		var buf bytes.Buffer
		if err := s.db.View().WriteSegment(&buf); err != nil {
			s.tb.Fatalf("WriteSegment: %v", err)
		}
		db, err := zonedb.ReadSegment(buf.Bytes())
		if err != nil {
			s.tb.Fatalf("ReadSegment: %v", err)
		}
		s.db = db
		s.ref = s.ref.project(func(dnsname.Name) bool { return true }, true)
		s.prev = nil
		s.check("segment round-trip")
	}
}

// absorb merges db, modelled by ref, into the script's database and model.
func (s *sealScript) absorb(db *zonedb.DB, ref *refDB) {
	s.db.Absorb(db)
	s.ref.edges.union(ref.edges)
	s.ref.domains.union(ref.domains)
	s.ref.glue.union(ref.glue)
	for z := range ref.zones {
		s.ref.zones[z] = true
	}
	s.ref.horizon = dates.Max(s.ref.horizon, ref.horizon)
	s.ref.change, s.ref.dirty = nil, true
}

func (s *sealScript) close(last dates.Day) {
	if s.ref.backDatedOpen() {
		s.drawn["Close over a back-dated add into sealed days"]++
	}
	left := s.ref.leftPast
	s.db.Close(last)
	s.ref.close(last)
	if s.ref.leftPast > left {
		s.drawn["Close leaving facts sealed past its day"]++
	}
	s.day = dates.Max(s.day, last)
	s.check("Close")
}

// backDatedOpen reports whether a fact of the model is open from a day
// its last Close already sealed: a Close over it is the seal's eager case.
func (r *refDB) backDatedOpen() bool {
	before := func(start dates.Day) bool { return r.closed && start <= r.closeDay }
	for _, start := range r.edges.open {
		if before(start) {
			return true
		}
	}
	for _, open := range []map[dnsname.Name]dates.Day{r.domains.open, r.glue.open} {
		for _, start := range open {
			if before(start) {
				return true
			}
		}
	}
	return false
}

// check compares the published view with the model's.
func (s *sealScript) check(after string) {
	s.tb.Helper()
	v, want := s.db.View(), s.ref.view()
	days := []dates.Day{s.day - 30, s.day - dates.Day(2*s.reach)}
	for d := s.day - dates.Day(s.reach); d <= s.day+dates.Day(s.reach); d++ {
		days = append(days, d)
	}
	if got, exp := s.dump(v, days), s.dump(want, days); got != exp {
		g, e := strings.Split(got, "\n"), strings.Split(exp, "\n")
		for i := range min(len(g), len(e)) {
			if g[i] != e[i] {
				s.tb.Fatalf("after %s: views differ at line %d\n got %s\nwant %s", after, i, g[i], e[i])
			}
		}
		s.tb.Fatalf("after %s: views differ in length (%d lines, want %d)", after, len(g), len(e))
	}
	if got := v.Advance(); !reflect.DeepEqual(got, s.ref.advance) {
		s.tb.Fatalf("after %s: Advance = %+v, want %+v", after, got, s.ref.advance)
	}
	if v.Advance() != nil {
		s.drawn["advance"]++
	}
	if !v.Closed() {
		s.prev = nil
		return
	}
	var got, exp bytes.Buffer
	if err := v.WriteSegment(&got); err != nil {
		s.tb.Fatalf("after %s: WriteSegment: %v", after, err)
	}
	if err := want.WriteSegment(&exp); err != nil {
		s.tb.Fatalf("after %s: model WriteSegment: %v", after, err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		s.tb.Fatalf("after %s: segment bytes differ", after)
	}
	idx, err := delta.Build(v)
	if err != nil {
		s.tb.Fatal(err)
	}
	wantIdx, err := delta.Build(want)
	if err != nil {
		s.tb.Fatal(err)
	}
	sameIndex(s.tb, "Build after "+after, idx, wantIdx)
	if ch := v.Advance(); ch != nil && s.prev != nil && s.prev.Epoch()+1 == v.Epoch() && s.prev.Last() == ch.ParentClose {
		ext, err := delta.Extend(s.prev, v)
		if err != nil {
			s.tb.Fatalf("after %s: Extend: %v", after, err)
		}
		sameIndex(s.tb, "Extend after "+after, ext, wantIdx)
		s.drawn["Extend"]++
	}
	s.prev = idx
}

func sameIndex(tb testing.TB, what string, got, want *delta.Index) {
	tb.Helper()
	if got.First() != want.First() || got.Last() != want.Last() || got.Days() != want.Days() {
		tb.Fatalf("%s: index [%s, %s] of %d days, want [%s, %s] of %d", what,
			got.First(), got.Last(), got.Days(), want.First(), want.Last(), want.Days())
	}
	if got.First() == dates.None {
		return
	}
	for d := got.First(); d <= got.Last(); d++ {
		if g, w := got.Day(d), want.Day(d); !reflect.DeepEqual(g, w) {
			tb.Fatalf("%s: %s is %+v, want %+v", what, d, g, w)
		}
	}
}

// dump renders everything a reader can ask v about the script's names on
// days, one answer a line.
func (s *sealScript) dump(v *zonedb.View, days []dates.Day) string {
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	v.EachEdgeSpans(func(e zonedb.Edge, sp *interval.Set) bool { add("E %s %s %s", e.Domain, e.NS, sp); return true })
	v.EachDomainSpans(func(n dnsname.Name, sp *interval.Set) bool { add("D %s %s", n, sp); return true })
	v.EachGlueSpans(func(n dnsname.Name, sp *interval.Set) bool { add("G %s %s", n, sp); return true })
	v.Nameservers(func(n dnsname.Name) bool { add("N %s", n); return true })
	v.Domains(func(n dnsname.Name) bool { add("R %s", n); return true })
	sort.Strings(lines)
	head := fmt.Sprintf("closed %v %s zones %v domains %d nameservers %d",
		v.Closed(), v.CloseDay(), v.Zones(), v.NumDomains(), v.NumNameservers())
	lines = append([]string{head}, lines...)

	var hosts []dnsname.Name
	all := append(slices.Clone(s.inUse), s.spare...)
	for _, zone := range all {
		for i := 0; i < 4; i++ {
			dom := domainIn(zone, i)
			add("domain %s spans %v first %s", dom, v.DomainSpans(dom), v.DomainFirstSeen(dom))
			var ns []string
			v.EachNSOf(dom, func(n dnsname.Name, sp *interval.Set) bool { ns = append(ns, fmt.Sprintf("%s %s", n, sp)); return true })
			sort.Strings(ns)
			add("  ns of %v", ns)
			for _, d := range days {
				var on []dnsname.Name
				v.EachNSOn(dom, d, func(n dnsname.Name) bool { on = append(on, n); return true })
				slices.Sort(on)
				add("  %s registered %v next %s ns %v each %v", d, v.DomainRegisteredOn(dom, d),
					v.DomainFirstSeenAfter(dom, d), v.NSOn(dom, d), on)
			}
			for j := 0; j < 2; j++ {
				hosts = append(hosts, hostIn(zone, i, j))
			}
		}
	}
	for _, h := range hosts {
		edges := slices.Clone(v.EdgesOf(h))
		slices.SortFunc(edges, zonedb.CompareEdges)
		add("host %s first %s glue %v edges %v domains %v", h, v.NSFirstSeen(h), v.GlueSpans(h), edges, v.DomainsOf(h))
		for _, e := range edges {
			add("  edge %s %v", e.Domain, v.EdgeSpans(e.Domain, h))
		}
		for _, d := range days {
			add("  %s glue %v", d, v.GlueOn(h, d))
		}
	}
	for _, zone := range all {
		for _, d := range days {
			var b strings.Builder
			if err := v.SnapshotOn(zone, d).Write(&b); err != nil {
				s.tb.Fatal(err)
			}
			add("snapshot %s %s\n%s", zone, d, b.String())
		}
	}
	return strings.Join(lines, "\n")
}

// TestSealEquivalence holds the database to the eager seal it replaced:
// random sequences of events (duplicate, same-day, back- and
// future-dated), Closes with later, the same and earlier days, ragged
// CloseZones, Adopt, FilterShard, absorb and segment round-trips, compared
// after every publish on every walk, getter and point query, SnapshotOn,
// the segment bytes, Advance, and the delta index built and extended.
func TestSealEquivalence(t *testing.T) {
	const seeds, steps = 32, 60
	drawn := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newSealScript(t, rng.Intn)
		for i := 0; i < steps; i++ {
			s.step()
		}
		for k, n := range s.drawn {
			drawn[k] += n
		}
	}
	for _, kind := range []string{
		"event dated the next day", "back-dated event", "future-dated event", "same-day add and remove",
		"duplicate add", "Close with a later day", "Close with the same day", "Close with an earlier day",
		"Close with an earlier day right after", "Close over a back-dated add into sealed days",
		"Close leaving facts sealed past its day", "CloseZones with ragged ends", "CloseZones with an absent zone",
		"Adopt", "FilterShard", "absorb", "segment round-trip", "advance", "Extend",
	} {
		if drawn[kind] == 0 {
			t.Errorf("no script drew %q", kind)
		}
	}
	t.Logf("%d seeds: %d Closes (%d advances, %d extended), %d over back-dated adds", seeds,
		drawn["Close with a later day"]+drawn["Close with the same day"]+drawn["Close with an earlier day"],
		drawn["advance"], drawn["Extend"], drawn["Close over a back-dated add into sealed days"])
}

// TestSealEagerCorner: a zone sealed past the close day whose only open
// fact was added back into its sealed days, and sealed to the day by
// this Close, stands sealed — the next epoch is an advance.
func TestSealEagerCorner(t *testing.T) {
	s := newSealScript(t, nil)
	a, b, c := factKey{kind: 1, i: 0}, factKey{kind: 1, i: 1}, factKey{kind: 1, i: 2}
	event(s.db, s.ref, "com", a, true, 1)
	s.close(10)
	event(s.db, s.ref, "com", a, false, 6)
	event(s.db, s.ref, "com", b, true, 5)
	s.close(8)
	event(s.db, s.ref, "com", c, true, 9)
	s.close(9)
	if s.db.View().Advance() == nil {
		t.Fatal("the epoch after a Close that left nothing open past its day is no advance")
	}
}

// TestSealAbsorbCorner: a fact absorbed from a database that sealed its
// zone through a later day than the next Close's stands sealed past that
// Close, so the epoch after it is no advance — though every event was
// dated on or before its day. The fact is an ordinary open fact when the
// absorbing database was sealed through an earlier day than the other,
// and eager when through a later one.
func TestSealAbsorbCorner(t *testing.T) {
	for _, sealedFirst := range []dates.Day{dates.None, 40} {
		s := newSealScript(t, nil)
		if sealedFirst != dates.None {
			s.close(sealedFirst)
		}
		other, ref := zonedb.New(), newRef()
		event(other, ref, "biz", factKey{kind: 1}, true, 5)
		other.Close(30)
		ref.close(30)
		s.absorb(other, ref)
		s.close(10)
		event(s.db, s.ref, "com", factKey{kind: 1}, true, 11)
		s.close(11)
		if c := s.db.View().Advance(); c != nil {
			t.Fatalf("sealed through %s first: the epoch after a Close that left biz sealed through day 30 is an advance: %+v",
				sealedFirst, c)
		}
	}
}

// FuzzSeal is TestSealEquivalence's script driven by the fuzzer's bytes.
func FuzzSeal(f *testing.F) {
	f.Add([]byte{0, 50, 1, 2, 3, 60, 5, 40, 20, 30, 70, 0, 80, 95, 99})
	f.Add([]byte("a Close, some events, a back-dated add and an earlier Close"))
	f.Fuzz(func(t *testing.T, in []byte) {
		pick := func(n int) int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			return b % n
		}
		s := newSealScript(t, pick)
		s.reach = 1
		for i := 0; i < 64 && len(in) > 0; i++ {
			s.step()
		}
		s.db.Close(s.day)
		s.ref.close(s.day)
		s.check("the last Close")
	})
}

// TestCloseAllocations: Close costs the day, not the database. On live
// databases built from events, one event and a Close allocate a handful
// of times at scale 2 and at scale 4, where sealing every open fact once
// allocated once per fact. That holds too when the event was back-dated
// into sealed days, so that Close seals an eager fact: it visits the
// eager keys, not the fact maps. A Close with nothing written since the
// last publish publishes the same fact maps again. The counts are the
// process's, so another goroutine's allocation may add one or two.
func TestCloseAllocations(t *testing.T) {
	var counts []uint64
	for _, scale := range []float64{2, 4} {
		cfg := sim.DefaultConfig(scale)
		cfg.Seed = 1
		w, err := sim.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		db := w.ZoneDB()
		day := db.View().CloseDay()
		// The first three events are dated the close day; the last three
		// are back-dated into sealed days, so Close seals an eager fact.
		best := [2]uint64{^uint64(0), ^uint64(0)}
		for i := 0; i < 6; i++ {
			day++
			dated := day - dates.Day(3*(i/3))
			db.DomainAdded("com", dnsname.Name(fmt.Sprintf("close-allocs-%d.com", i)), dated)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			db.Close(day)
			runtime.ReadMemStats(&after)
			best[i/3] = min(best[i/3], after.Mallocs-before.Mallocs)
		}
		counts = append(counts, best[:]...)

		parent := db.View()
		db.Close(day + 1)
		if v := db.View(); !zonedb.SharesFactMaps(parent, v) || v.CloseDay() != day+1 {
			t.Errorf("scale %g: a quiet-day Close thawed the database (or missed its day)", scale)
		}
	}
	for i, what := range []string{"an event dated its day", "a back-dated event"} {
		at2, at4 := counts[i], counts[2+i]
		if max(at2, at4) > 8 || max(at2, at4)-min(at2, at4) > 2 {
			t.Errorf("after %s, Close allocates %d times at scale 2 and %d at scale 4; want the same handful", what, at2, at4)
		}
	}
}
