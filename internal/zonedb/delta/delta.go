// Package delta derives per-day change sets from a sealed zonedb View.
//
// The epoch store records longitudinal facts as interval sets: each
// delegation edge, domain registration, and glue record carries the
// spans of days on which it was present. A streaming consumer wants the
// opposite projection — "what changed on day d" — so this package
// buckets every boundary of the sealed interval sets by
// day: a span [a, b] contributes an add event on day a and a remove
// event on day b+1 (the first day the fact is absent). The boundaries
// are counted per day and list, then written into one slab of edges and
// one of names — the edges on one goroutine, the names on another —
// and each day's lists are sorted on GOMAXPROCS goroutines, so the whole
// index costs O(total spans) time, the memory of what it returns, and a
// few dozen allocations however many facts the view holds. A view loaded
// from a segment keeps its name table (zonedb.View.Names) and is walked
// by id, in key order: the slabs hold ids, each day's ids come out of the
// walk sorted (the table is in byte order, so ids sort as their names
// do), and its name lists are read off the table in their order. Each
// day of such an index carries its ids beside its name lists
// (DayDelta.IDs), which is how a watch engine resolves a day's names
// without hashing them. The index does not depend on the order of the
// walk, and its name lists are the same by either path.
//
// Deltas are derived exclusively from sealed intervals — the same facts
// the batch detector sees — so replaying every DayDelta from First()
// through Last() reconstructs exactly the state a batch pass over the
// same View would observe on each day. Facts still open at an unsealed
// boundary are invisible here, which is why Build requires a Closed
// view.
package delta

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/zonedb"
)

// DayDelta is everything that changed on one day relative to the day
// before. Added slices hold facts present on Day but not Day-1; Removed
// slices hold facts present on Day-1 but not Day. All slices are sorted
// (edges by domain then nameserver, names lexically) so a delta is
// deterministic for a given view and safe to diff in tests.
//
// A day built from a view with a name table (zonedb.View.Names) also
// carries its lists as ids in that table (IDs). Such a day's lists must
// not be modified, save by Sort, which keeps the two forms parallel.
type DayDelta struct {
	Day dates.Day `json:"day"`

	EdgesAdded   []zonedb.Edge `json:"edges_added,omitempty"`
	EdgesRemoved []zonedb.Edge `json:"edges_removed,omitempty"`

	DomainsAdded   []dnsname.Name `json:"domains_added,omitempty"`
	DomainsRemoved []dnsname.Name `json:"domains_removed,omitempty"`

	GlueAdded   []dnsname.Name `json:"glue_added,omitempty"`
	GlueRemoved []dnsname.Name `json:"glue_removed,omitempty"`

	// ids, on a day built with a name table, holds the build's ids, the
	// day's from edgeAt in its edges and from nameAt in its names.
	ids            *idSlabs
	edgeAt, nameAt int
}

// idSlabs is a build's lists as ids in dict: each day's two edge lists'
// ids one after the other in edges, and its four name lists' in names,
// each list as long as the name list it stands for.
type idSlabs struct {
	dict  *zonedb.Names
	edges []EdgeID
	names []int32
}

// EdgeID is an edge as the ids of its domain and its nameserver in a
// name table.
type EdgeID struct{ Domain, NS int32 }

// CompareEdgeIDs orders edge ids by domain, then nameserver: in a table
// in byte order, as zonedb.CompareEdges orders their edges.
func CompareEdgeIDs(a, b EdgeID) int {
	if c := cmp.Compare(a.Domain, b.Domain); c != 0 {
		return c
	}
	return cmp.Compare(a.NS, b.NS)
}

// IDs is a day's lists as ids in Dict, the name table of the view the
// day was built from: entry i of each list is the ids of entry i of the
// day's list of the same name, so Dict.Name(DomainsAdded[i]) is
// DomainsAdded[i] of the day. The table is in byte order, so ids sort as
// their names do. Nothing in it may be modified.
type IDs struct {
	Dict *zonedb.Names

	EdgesAdded, EdgesRemoved     []EdgeID
	DomainsAdded, DomainsRemoved []int32
	GlueAdded, GlueRemoved       []int32
}

// IDs returns d's lists as ids, and false when d carries none: it was
// not built from a view with a name table (it came from a live view, a
// JSON feed or a fleet's merge), or it is quiet.
func (d *DayDelta) IDs() (IDs, bool) {
	if d.ids == nil {
		return IDs{}, false
	}
	ea, er := len(d.EdgesAdded), len(d.EdgesRemoved)
	e, n := d.ids.edges[d.edgeAt:d.edgeAt+ea+er], d.ids.names[d.nameAt:]
	at := func(l int) []int32 {
		list := n[:l:l]
		n = n[l:]
		return list
	}
	return IDs{
		Dict:           d.ids.dict,
		EdgesAdded:     e[:ea:ea],
		EdgesRemoved:   e[ea:],
		DomainsAdded:   at(len(d.DomainsAdded)),
		DomainsRemoved: at(len(d.DomainsRemoved)),
		GlueAdded:      at(len(d.GlueAdded)),
		GlueRemoved:    at(len(d.GlueRemoved)),
	}, true
}

// Changes returns the total number of change events in the delta.
func (d *DayDelta) Changes() int {
	return len(d.EdgesAdded) + len(d.EdgesRemoved) +
		len(d.DomainsAdded) + len(d.DomainsRemoved) +
		len(d.GlueAdded) + len(d.GlueRemoved)
}

// Index holds the per-day deltas of one sealed view.
type Index struct {
	epoch       uint64
	first, last dates.Day
	days        []*DayDelta // the non-quiet days, in day order
}

// Build computes the delta index of a sealed view. It returns an error
// if the view was never sealed by Close/CloseZones: without a close day
// there is no boundary distinguishing "removed" from "not yet sealed".
//
// The edges and the names are bucketed apart, the edges on a goroutine
// of their own, and their days merged; then the days' lists are sorted
// on GOMAXPROCS goroutines. No goroutine outlives the call.
//
// A view with a name table (zonedb.View.Names), one loaded from a
// segment, is walked by id: the buckets hold ids, each day's ids are
// sorted as integers, and its name lists are read off the table in that
// order, so every day of the index carries both (DayDelta.IDs).
func Build(v *zonedb.View) (*Index, error) {
	if !v.Closed() {
		return nil, fmt.Errorf("delta: view (epoch %d) is not closed", v.Epoch())
	}
	var ids *idSlabs
	if names := v.Names(); names != nil {
		ids = &idSlabs{dict: names}
	}
	// The view holds at least an edge per nameserver and a registration
	// per domain: that many facts, if not more, are walked.
	var edgeDays []DayDelta
	var edgeFirst dates.Day
	done := make(chan struct{})
	go func() {
		defer close(done)
		var b buckets
		edgeDays, edgeFirst = b.fill(dates.None, v.CloseDay(), v.NumNameservers(), ids != nil, func() {
			if ids != nil {
				v.EachEdgeIDs(func(d, ns int32, spans *interval.Set) bool {
					visit(&b, b.edgeIDs, edgesAdded, EdgeID{d, ns}, spans)
					return true
				})
				return
			}
			v.EachEdgeSpans(func(e zonedb.Edge, spans *interval.Set) bool {
				visit(&b, b.edges, edgesAdded, e, spans)
				return true
			})
		})
		if ids != nil {
			ids.edges = b.edgeIDs
		}
	}()
	var b buckets
	nameDays, first := b.fill(dates.None, v.CloseDay(), v.NumDomains(), ids != nil, func() {
		if ids != nil {
			v.EachDomainIDs(func(id int32, spans *interval.Set) bool {
				visit(&b, b.nameIDs, domainsAdded, id, spans)
				return true
			})
			v.EachGlueIDs(func(id int32, spans *interval.Set) bool {
				visit(&b, b.nameIDs, glueAdded, id, spans)
				return true
			})
			return
		}
		v.EachDomainSpans(func(d dnsname.Name, spans *interval.Set) bool {
			visit(&b, b.names, domainsAdded, d, spans)
			return true
		})
		v.EachGlueSpans(func(h dnsname.Name, spans *interval.Set) bool {
			visit(&b, b.names, glueAdded, h, spans)
			return true
		})
	})
	if ids != nil {
		ids.names = b.nameIDs
	}
	<-done
	days := merge(edgeDays, nameDays)
	if ids != nil {
		for i := range days {
			days[i].ids = ids
		}
	}
	sortDays(days)
	return &Index{epoch: v.Epoch(), first: earliest(first, edgeFirst), last: v.CloseDay(), days: pointers(nil, days)}, nil
}

// earliest returns the earlier of two days, either of which may be
// dates.None: none only when both are.
func earliest(a, b dates.Day) dates.Day {
	if a == dates.None || b != dates.None && b < a {
		return b
	}
	return a
}

// merge returns the days of edges, which hold edge lists only, and of
// names, which hold name lists only, in day order: a day both hold is
// one day with the lists of both.
func merge(edges, names []DayDelta) []DayDelta {
	both := 0
	for i, j := 0, 0; i < len(edges) && j < len(names); {
		switch c := cmp.Compare(edges[i].Day, names[j].Day); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			i, j, both = i+1, j+1, both+1
		}
	}
	out := make([]DayDelta, 0, len(edges)+len(names)-both)
	for len(edges) > 0 && len(names) > 0 {
		switch c := cmp.Compare(edges[0].Day, names[0].Day); {
		case c < 0:
			out, edges = append(out, edges[0]), edges[1:]
		case c > 0:
			out, names = append(out, names[0]), names[1:]
		default:
			d, n := edges[0], &names[0]
			d.DomainsAdded, d.DomainsRemoved, d.GlueAdded, d.GlueRemoved = n.DomainsAdded, n.DomainsRemoved, n.GlueAdded, n.GlueRemoved
			d.nameAt = n.nameAt
			out, edges, names = append(out, d), edges[1:], names[1:]
		}
	}
	out = append(out, edges...)
	return append(out, names...)
}

// sortDays sorts the lists of every day on GOMAXPROCS goroutines, the
// caller's one of them, each taking the next unsorted day until none is
// left.
func sortDays(days []DayDelta) {
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(days)); i = next.Add(1) - 1 {
			days[i].Sort()
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(days)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Extend returns the index of v given prev, the index of the epoch
// before it, when v is a plain dated advance of that epoch
// (zonedb.View.Advance): every day prev holds is shared with it, not
// copied and never written, and the days after prev.Last() are derived
// from the sealed spans of the facts v says it wrote, by Build's rule and
// in Build's order. An untouched fact has no boundary there — its spans
// are the parent's, at most extended through the new close day — so the
// result equals Build(v) day for day, for the cost of the change and one
// pointer per day of history. It returns an error, and the caller builds
// from scratch, when v is not an advance or prev is not the index of its
// parent.
func Extend(prev *Index, v *zonedb.View) (*Index, error) {
	ch := v.Advance()
	if ch == nil {
		return nil, fmt.Errorf("delta: view (epoch %d) is not an advance of the epoch before it", v.Epoch())
	}
	if prev.epoch+1 != v.Epoch() || prev.last != ch.ParentClose {
		return nil, fmt.Errorf("delta: index of epoch %d closed %s is not the parent of epoch %d (parent closed %s)",
			prev.epoch, prev.last, v.Epoch(), ch.ParentClose)
	}
	var b buckets
	fresh, first := b.fill(prev.last, v.CloseDay(), len(ch.Edges)+len(ch.Domains)+len(ch.Glue), false, func() {
		for _, e := range ch.Edges {
			visit(&b, b.edges, edgesAdded, e, v.EdgeSpans(e.Domain, e.NS))
		}
		for _, d := range ch.Domains {
			visit(&b, b.names, domainsAdded, d, v.DomainSpans(d))
		}
		for _, h := range ch.Glue {
			visit(&b, b.names, glueAdded, h, v.GlueSpans(h))
		}
	})
	for i := range fresh {
		fresh[i].Sort()
	}
	return &Index{epoch: v.Epoch(), first: earliest(first, prev.first), last: v.CloseDay(), days: pointers(prev.days, fresh)}, nil
}

// pointers returns older followed by a pointer to each of fresh, in a
// slice of its own.
func pointers(older []*DayDelta, fresh []DayDelta) []*DayDelta {
	out := make([]*DayDelta, len(older), len(older)+len(fresh))
	copy(out, older)
	for i := range fresh {
		out = append(out, &fresh[i])
	}
	return out
}

// A DayDelta's lists, in the order a day's boundaries are laid out: the
// edge lists in one slab, the name lists in another. The list a fact's
// removals go to follows the one its additions go to.
const (
	edgesAdded = iota
	edgesRemoved
	domainsAdded
	domainsRemoved
	glueAdded
	glueRemoved
	lists
)

// denseFactor bounds the table buckets counts in: one slot for every day
// from the earliest boundary to the latest, while that is at most
// denseFactor days per fact walked — so the table stays within a constant
// multiple of the slabs it sizes (48 bytes a day against 16 or 32 a
// boundary). Past that there is one slot per day that has a boundary,
// found by search: a view holding two facts a million days apart pays for
// two days.
const denseFactor = 4

// buckets sorts the span boundaries of a set of facts into days by
// counting: the walk over the facts is made once to count the boundaries
// per day and list, and once more to write each into its place in a slab
// sized by the counts. pass says which; visit is what the walk calls for
// each fact.
type buckets struct {
	// An addition is recorded when its day is later than after, a removal
	// when its day is also no later than last: a span that starts past
	// the close day is on the record, an end there is not yet observable.
	after, last dates.Day
	pass        int
	first       dates.Day // the earliest addition, dates.None without one

	// cursor[slot*lists+list] counts a day's list, then holds where in
	// its slab the list's next entry goes. Slot s is day base+s, and the
	// table widens as the counting pass meets days outside it, up to room
	// days; a walk that needs more sets wide and is made again to gather
	// the days into sparse, where slot s is day sparse[s].
	cursor []int
	base   int
	room   int
	wide   bool
	sparse []dates.Day

	edges []zonedb.Edge
	names []dnsname.Name

	// A walk by id writes the ids to these instead; the name slabs are
	// filled from them once each day is sorted.
	edgeIDs []EdgeID
	nameIDs []int32
}

const (
	counting = iota
	gathering
	writing
)

// visit handles the boundaries of one fact: x is an edge or a name, slab
// the one its kind is written to, and added the list its additions go to.
func visit[T any](b *buckets, slab []T, added int, x T, spans *interval.Set) {
	all := spans.Spans()
	for i := len(all) - 1; i >= 0 && all[i].Last >= b.after; i-- {
		r := all[i]
		if r.First > b.after {
			if at := b.mark(r.First, added); at >= 0 {
				slab[at] = x
			}
			if b.first == dates.None || r.First < b.first {
				b.first = r.First
			}
		}
		if end := r.Last + 1; end <= b.last {
			if at := b.mark(end, added+1); at >= 0 {
				slab[at] = x
			}
		}
	}
}

// mark notes one boundary as the pass requires, and in the writing pass
// returns where in its slab it goes (-1 in the others).
func (b *buckets) mark(day dates.Day, list int) int {
	switch b.pass {
	case counting:
		if b.sparse != nil || b.cover(day) {
			b.cursor[b.slot(day)*lists+list]++
		}
	case gathering:
		b.sparse = append(b.sparse, day)
	case writing:
		k := b.slot(day)*lists + list
		b.cursor[k]++
		return b.cursor[k] - 1
	}
	return -1
}

func (b *buckets) slot(day dates.Day) int {
	if b.sparse == nil {
		return int(day) - b.base
	}
	i, _ := slices.BinarySearch(b.sparse, day)
	return i
}

// cover makes sure the dense table has a slot for day, widening it by as
// much again on the side day fell off so that the walk's first few
// hundred facts, in whatever order, settle its extent. It reports false,
// for good, once the table would pass room days.
func (b *buckets) cover(day dates.Day) bool {
	d := int(day)
	lo, hi := b.base, b.base+len(b.cursor)/lists-1 // hi < lo: no table yet
	switch {
	case d >= lo && d <= hi:
		return true
	case b.wide:
		return false
	case hi < lo:
		lo, hi = d, d
	default:
		lo, hi = min(lo, d), max(hi, d)
	}
	need := hi - lo + 1
	if need > b.room {
		b.wide = true
		return false
	}
	if spare := min(need, b.room-need); d == lo {
		lo -= spare
	} else {
		hi += spare
	}
	wider := make([]int, (hi-lo+1)*lists)
	if len(b.cursor) > 0 {
		copy(wider[(b.base-lo)*lists:], b.cursor)
	}
	b.base, b.cursor = lo, wider
	return true
}

// fill runs walk through the passes — it must call visit for the same
// facts each time, at least facts of them — and returns the non-quiet
// days in day order, their lists capacity-clipped sub-slices of two slabs
// in the order the last walk met them, and the earliest addition. The
// caller sorts them. A walk by id writes ids, and each day's name lists
// are left to Sort to fill from them; the day holds where its ids start.
func (b *buckets) fill(after, last dates.Day, facts int, byID bool, walk func()) ([]DayDelta, dates.Day) {
	*b = buckets{after: after, last: last, first: dates.None, room: denseFactor * facts}
	walk()
	if b.wide {
		b.pass = gathering
		walk()
		slices.Sort(b.sparse)
		b.sparse = slices.Compact(b.sparse)
		b.pass, b.cursor = counting, make([]int, len(b.sparse)*lists)
		walk()
	}
	slots := len(b.cursor) / lists

	// Counts become slab offsets: a day's edge lists sit side by side in
	// the edge slab, its name lists in the name slab, days in order.
	var nEdges, nNames, nDays int
	for s := 0; s < slots; s++ {
		day := b.cursor[s*lists : (s+1)*lists]
		quiet := true
		for list, c := range day {
			if c > 0 {
				quiet = false
			}
			if list <= edgesRemoved {
				day[list], nEdges = nEdges, nEdges+c
			} else {
				day[list], nNames = nNames, nNames+c
			}
		}
		if !quiet {
			nDays++
		}
	}
	b.pass, b.edges, b.names = writing, make([]zonedb.Edge, nEdges), make([]dnsname.Name, nNames)
	if byID {
		b.edgeIDs, b.nameIDs = make([]EdgeID, nEdges), make([]int32, nNames)
	}
	walk()

	// Each cursor now stands at the end of its list, which is where the
	// next list of its slab starts.
	out := make([]DayDelta, 0, nDays)
	edgeAt, nameAt := 0, 0
	edgeList := func(end int) []zonedb.Edge {
		l := cut(b.edges, edgeAt, end)
		edgeAt = end
		return l
	}
	nameList := func(end int) []dnsname.Name {
		l := cut(b.names, nameAt, end)
		nameAt = end
		return l
	}
	for s := 0; s < slots; s++ {
		end := b.cursor[s*lists : (s+1)*lists]
		if end[edgesRemoved] == edgeAt && end[glueRemoved] == nameAt {
			continue // a quiet day
		}
		d := DayDelta{Day: dates.Day(b.base + s)}
		if b.sparse != nil {
			d.Day = b.sparse[s]
		}
		if byID {
			d.edgeAt, d.nameAt = edgeAt, nameAt
		}
		d.EdgesAdded, d.EdgesRemoved = edgeList(end[edgesAdded]), edgeList(end[edgesRemoved])
		d.DomainsAdded, d.DomainsRemoved = nameList(end[domainsAdded]), nameList(end[domainsRemoved])
		d.GlueAdded, d.GlueRemoved = nameList(end[glueAdded]), nameList(end[glueRemoved])
		out = append(out, d)
	}
	return out, b.first
}

// cut returns slab[from:to] with no room to grow into its neighbour, and
// nil when it is empty: a list nothing was appended to.
func cut[T any](slab []T, from, to int) []T {
	if from == to {
		return nil
	}
	return slab[from:to:to]
}

// Sort puts d's lists in the order Build and Extend emit them: edges by
// domain then nameserver, names lexically. The disjoint union of days
// that were each in that order is in it again once sorted, which is how
// a fleet's merged feed reads as one node's. A day that carries ids is
// sorted by them, and its name lists are rewritten from its name table
// in their order.
func (d *DayDelta) Sort() {
	if ids, ok := d.IDs(); ok {
		for _, l := range [][]EdgeID{ids.EdgesAdded, ids.EdgesRemoved} {
			if !slices.IsSortedFunc(l, CompareEdgeIDs) {
				slices.SortFunc(l, CompareEdgeIDs)
			}
		}
		for _, l := range [][]int32{ids.DomainsAdded, ids.DomainsRemoved, ids.GlueAdded, ids.GlueRemoved} {
			if !slices.IsSorted(l) {
				slices.Sort(l)
			}
		}
		for i, e := range ids.EdgesAdded {
			d.EdgesAdded[i] = zonedb.Edge{Domain: ids.Dict.Name(e.Domain), NS: ids.Dict.Name(e.NS)}
		}
		for i, e := range ids.EdgesRemoved {
			d.EdgesRemoved[i] = zonedb.Edge{Domain: ids.Dict.Name(e.Domain), NS: ids.Dict.Name(e.NS)}
		}
		named(d.DomainsAdded, ids.DomainsAdded, ids.Dict)
		named(d.DomainsRemoved, ids.DomainsRemoved, ids.Dict)
		named(d.GlueAdded, ids.GlueAdded, ids.Dict)
		named(d.GlueRemoved, ids.GlueRemoved, ids.Dict)
		return
	}
	slices.SortFunc(d.EdgesAdded, zonedb.CompareEdges)
	slices.SortFunc(d.EdgesRemoved, zonedb.CompareEdges)
	slices.Sort(d.DomainsAdded)
	slices.Sort(d.DomainsRemoved)
	slices.Sort(d.GlueAdded)
	slices.Sort(d.GlueRemoved)
}

// SameLists reports whether a and b are the same day with the same lists
// — every exported field equal, a nil list told from an empty one — and
// whether each id either carries names the entry it stands for. It is how
// a day built by id is held to the same day built by name.
func SameLists(a, b *DayDelta) bool {
	x, y := *a, *b
	x.ids, x.edgeAt, x.nameAt = nil, 0, 0
	y.ids, y.edgeAt, y.nameAt = nil, 0, 0
	return reflect.DeepEqual(x, y) && a.idsName() && b.idsName()
}

// idsName reports whether each id d carries, if any, is the id of its
// entry.
func (d *DayDelta) idsName() bool {
	ids, ok := d.IDs()
	if !ok {
		return true
	}
	edgeIDs := slices.Concat(ids.EdgesAdded, ids.EdgesRemoved)
	for i, e := range slices.Concat(d.EdgesAdded, d.EdgesRemoved) {
		if ids.Dict.Name(edgeIDs[i].Domain) != e.Domain || ids.Dict.Name(edgeIDs[i].NS) != e.NS {
			return false
		}
	}
	nameIDs := slices.Concat(ids.DomainsAdded, ids.DomainsRemoved, ids.GlueAdded, ids.GlueRemoved)
	for i, n := range slices.Concat(d.DomainsAdded, d.DomainsRemoved, d.GlueAdded, d.GlueRemoved) {
		if ids.Dict.Name(nameIDs[i]) != n {
			return false
		}
	}
	return true
}

// named writes the names of ids in dict to names.
func named(names []dnsname.Name, ids []int32, dict *zonedb.Names) {
	for i, id := range ids {
		names[i] = dict.Name(id)
	}
}

// Epoch returns the epoch of the view the index was built from.
func (idx *Index) Epoch() uint64 { return idx.epoch }

// First returns the earliest day with any change, or dates.None if the
// view recorded no facts at all.
func (idx *Index) First() dates.Day { return idx.first }

// Last returns the view's close day — the last day for which the feed
// is complete. Days after Last are unknown, not quiet.
func (idx *Index) Last() dates.Day { return idx.last }

// Day returns the delta for one day. Quiet days inside [First, Last]
// (and any day, for that matter) yield an empty non-nil delta, so a
// consumer can apply every day of the window uniformly.
func (idx *Index) Day(day dates.Day) *DayDelta {
	i, ok := slices.BinarySearchFunc(idx.days, day, func(d *DayDelta, day dates.Day) int {
		return cmp.Compare(d.Day, day)
	})
	if ok {
		return idx.days[i]
	}
	return &DayDelta{Day: day}
}

// Days returns the number of non-quiet days in the index.
func (idx *Index) Days() int { return len(idx.days) }
