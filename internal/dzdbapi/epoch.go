package dzdbapi

import (
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/zonedb"
)

// topNSKeep bounds how many nameservers an epoch's leaderboard retains;
// /v1/top/nameservers caps ?limit= at this.
const topNSKeep = 100

// defaultTopNSLimit is the page size when ?limit= is absent.
const defaultTopNSLimit = 25

// TopNameserver is one nameserver's exposure — how many domains ever
// delegated to it (the paper's degree metric for sacrificial-name
// candidates) and for how many domain-days. It is a row both of the
// /v1/top/nameservers leaderboard and of a shard's
// /v1/internal/ns-exposure table.
type TopNameserver struct {
	Nameserver string `json:"nameserver"`
	Domains    int    `json:"domains"`
	DomainDays int    `json:"domain_days"`
}

// TopNameserversResponse is the /v1/top/nameservers payload.
type TopNameserversResponse struct {
	Nameservers []TopNameserver `json:"nameservers"`
	// Partial marks a degraded coordinator answer (see
	// NameserverResponse.Partial).
	Partial bool `json:"partial,omitempty"`
}

// EpochState is everything the epoch-wide routes — /v1/stats,
// /v1/zones, /v1/top/nameservers, /v1/deltas — render for one epoch.
// It is computed once per publish (a node's OnPublish hook, a
// coordinator's fleet sync) so the most-hit endpoints are pointer loads
// instead of full-table walks, and it is immutable afterwards.
type EpochState struct {
	Epoch uint64
	// Stats is the /v1/stats payload; its sorted Zones are also the list
	// /v1/zones pages through.
	Stats StatsResponse
	// TopNS is the exposure leaderboard, as RankNameservers left it.
	TopNS []TopNameserver
	// Feed is the epoch's day window, or nil when it has none: a node's
	// database that was never sealed.
	Feed Feed

	// view is what a node's per-name routes read; a coordinator's state
	// has none.
	view *zonedb.View
	// zones is the view's zone index, which /v1/zones/{zone}/snapshot
	// renders from; a coordinator's state has none.
	zones *lazyZoneIndex
	// exposure is a node's row for every nameserver, sorted by name: the
	// table /v1/internal/ns-exposure pages through and TopNS is selected
	// from. open[i] counts the edges of exposure[i] present on the view's
	// close day, which is what lets the next dated advance add its days
	// to the row without visiting them.
	exposure []TopNameserver
	open     []int
}

// computeState walks v once — O(nameservers + edges), what one uncached
// /v1/stats request used to pay — and builds its state. It is what a
// server starts from and what every epoch that is not a plain dated
// advance of the one served costs; advanceState is the other way to the
// same state. The feed is not built here: see indexFeed.
func computeState(v *zonedb.View) *EpochState {
	st := newState(v)
	names := make([]dnsname.Name, 0, v.NumNameservers())
	v.Nameservers(func(ns dnsname.Name) bool {
		names = append(names, ns)
		return true
	})
	slices.Sort(names)
	st.exposure = make([]TopNameserver, len(names))
	st.open = make([]int, len(names))
	rows := make(map[dnsname.Name]int, len(names))
	for i, ns := range names {
		st.exposure[i].Nameserver = string(ns)
		rows[ns] = i
	}
	// One walk over the edges counts, for each nameserver, the domains
	// that ever delegated to it and their domain-days, and how many of
	// those edges are present on v's close day.
	closeDay := v.CloseDay()
	v.EachEdgeSpans(func(e zonedb.Edge, spans *interval.Set) bool {
		i := rows[e.NS]
		days, open := spanExposure(spans, closeDay)
		st.exposure[i].Domains++
		st.exposure[i].DomainDays += days
		st.open[i] += open
		return true
	})
	st.TopNS = RankNameservers(st.exposure)
	return st
}

// newState returns v's state less its exposure table: the parts that
// cost nothing to read off the view.
func newState(v *zonedb.View) *EpochState {
	zones := v.Zones()
	zs := make([]string, len(zones))
	for i, z := range zones {
		zs[i] = string(z)
	}
	st := &EpochState{
		Epoch: v.Epoch(),
		Stats: StatsResponse{Domains: v.NumDomains(), Nameservers: v.NumNameservers(), Zones: zs},
		view:  v,
		zones: &lazyZoneIndex{view: v},
	}
	if v.Closed() {
		st.Feed = &indexFeed{view: v}
	}
	return st
}

// lazyZoneIndex is a view's zone index, built by the first snapshot
// request of the epoch, as the feed's delta index is by the first feed
// request: an epoch nobody asks for a snapshot never walks its facts for
// one. When the epoch before had built its index and the view is a plain
// dated advance of it, the first request extends that index instead,
// for the cost of the change and of copying the zones it touched (see
// zonedb.ZoneIndex.Extend); the publish hook only hands the
// built index on (next), so it stays out of the hook's time. A lazy
// index holds its predecessor's only until it is built, and never one
// its predecessor did not build, so unread epochs chain nothing.
type lazyZoneIndex struct {
	view   *zonedb.View
	parent *zonedb.ZoneIndex // read and dropped by the build
	once   sync.Once         // guards the one store into idx
	idx    atomic.Pointer[zonedb.ZoneIndex]
}

func (z *lazyZoneIndex) get() *zonedb.ZoneIndex {
	z.once.Do(func() {
		var idx *zonedb.ZoneIndex
		ok := false
		if z.parent != nil {
			idx, ok = z.parent.Extend(z.view)
		}
		if !ok {
			idx = z.view.ZoneIndex()
		}
		z.parent = nil
		z.idx.Store(idx)
	})
	return z.idx.Load()
}

// next returns the lazy index of v, the view published after z's.
func (z *lazyZoneIndex) next(v *zonedb.View) *lazyZoneIndex {
	return &lazyZoneIndex{view: v, parent: z.idx.Load()}
}

// spanExposure returns the days in an edge's spans (nil: the view does
// not hold the edge) and 1 if the last of them is closeDay, else 0.
func spanExposure(sp *interval.Set, closeDay dates.Day) (days, open int) {
	if sp == nil || sp.Empty() {
		return 0, 0
	}
	if sp.Last() == closeDay {
		open = 1
	}
	return sp.TotalDays(), open
}

// advanceState returns the state of v, a plain dated advance of the view
// prev describes (zonedb.View.Advance), without walking it: every edge
// present on the parent's close day gains the days the close day moved
// by, which is its nameserver's open count times that; each edge the
// epoch wrote is then corrected from its spans in the two views; and the
// leaderboard is selected again, since the added days reorder ties among
// rows nobody touched. O(nameservers + edges written). It returns nil —
// and the caller walks v — when v is not an advance of prev's view.
func advanceState(prev *EpochState, v *zonedb.View) *EpochState {
	ch := v.Advance()
	if ch == nil || prev == nil || prev.view == nil ||
		prev.Epoch+1 != v.Epoch() || prev.view.CloseDay() != ch.ParentClose {
		return nil
	}
	st := newState(v)
	if f, ok := prev.Feed.(*indexFeed); ok {
		st.Feed = f.extended(v)
	}
	if prev.zones != nil {
		st.zones = prev.zones.next(v)
	}

	// Rows of nameservers first delegated to in this epoch, merged into
	// the parent's table in name order.
	var fresh []string
	for _, e := range ch.Edges {
		if _, ok := findRow(prev.exposure, string(e.NS)); !ok {
			fresh = append(fresh, string(e.NS))
		}
	}
	slices.Sort(fresh)
	fresh = slices.Compact(fresh)
	n := len(prev.exposure) + len(fresh)
	st.exposure, st.open = make([]TopNameserver, 0, n), make([]int, 0, n)
	k := v.CloseDay().Sub(ch.ParentClose)
	for i, row := range prev.exposure {
		for len(fresh) > 0 && fresh[0] < row.Nameserver {
			st.exposure, st.open = append(st.exposure, TopNameserver{Nameserver: fresh[0]}), append(st.open, 0)
			fresh = fresh[1:]
		}
		row.DomainDays += k * prev.open[i]
		st.exposure, st.open = append(st.exposure, row), append(st.open, prev.open[i])
	}
	for _, ns := range fresh {
		st.exposure, st.open = append(st.exposure, TopNameserver{Nameserver: ns}), append(st.open, 0)
	}

	for _, e := range ch.Edges {
		i, _ := findRow(st.exposure, string(e.NS))
		was := prev.view.EdgeSpans(e.Domain, e.NS)
		wasDays, wasOpen := spanExposure(was, ch.ParentClose)
		days, open := spanExposure(v.EdgeSpans(e.Domain, e.NS), v.CloseDay())
		if was == nil {
			st.exposure[i].Domains++
		}
		st.exposure[i].DomainDays += days - wasDays - k*wasOpen
		st.open[i] += open - wasOpen
	}
	st.TopNS = RankNameservers(st.exposure)
	return st
}

// findRow finds ns in rows, which are sorted by name.
func findRow(rows []TopNameserver, ns string) (int, bool) {
	return slices.BinarySearchFunc(rows, ns, func(r TopNameserver, ns string) int {
		return strings.Compare(r.Nameserver, ns)
	})
}

// outranks is the leaderboard's order: by delegated-domain count,
// domain-days breaking ties, then by name.
func outranks(a, b TopNameserver) bool {
	if a.Domains != b.Domains {
		return a.Domains > b.Domains
	}
	if a.DomainDays != b.DomainDays {
		return a.DomainDays > b.DomainDays
	}
	return a.Nameserver < b.Nameserver
}

// lowestFirst is a binary heap of rows with the lowest-ranked at its
// root.
type lowestFirst []TopNameserver

// down restores the heap below i.
func (h lowestFirst) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && outranks(h[c], h[c+1]) {
			c++
		}
		if !outranks(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// RankNameservers returns the exposure leaderboard of rows: the rows
// /v1/top/nameservers can serve, in rank order. It selects them in one
// pass — a row that does not outrank the lowest kept so far costs one
// comparison — and leaves rows as it found them.
func RankNameservers(rows []TopNameserver) []TopNameserver {
	keep := min(len(rows), topNSKeep)
	top := append(make(lowestFirst, 0, keep), rows[:keep]...)
	for i := keep/2 - 1; i >= 0; i-- {
		top.down(i)
	}
	for _, row := range rows[keep:] {
		if outranks(row, top[0]) {
			top[0] = row
			top.down(0)
		}
	}
	sort.Slice(top, func(i, j int) bool { return outranks(top[i], top[j]) })
	return top
}

// Source is where a Front gets the epochs it serves. A Server is one
// over its own database; the cluster coordinator is one over the state
// it merges from its shards.
type Source interface {
	// Pin returns the state a request is served from — nil before there
	// is one — and whether the source is settled on it: only a settled
	// source's answers carry the epoch's ETag, are answered 304 and go
	// into and out of the response cache; the rest are rendered live. A
	// source that unsettles and settles again on the same epoch hands out
	// a new state pointer, so a render that straddled the change is not
	// cached.
	Pin() (st *EpochState, settled bool)
	// Current returns the state of the epoch being served — nil before
	// there is one — and a channel closed when the next is published.
	// Implementations take the channel before the state, so a caller
	// that finds nothing new and waits on it cannot miss a publish.
	Current() (*EpochState, <-chan struct{})
	// Partial reports whether the state may trail part of the data it
	// summarises, which only a fleet with a member down can say. It is
	// called once per response it marks.
	Partial() bool
	// Unavailable writes the answer to a request for state that does not
	// exist yet: on a node the feed of a database never sealed, on a
	// coordinator anything before the first fleet sync.
	Unavailable(w http.ResponseWriter)
}

// The four routes whose answer belongs to an epoch as a whole rather
// than to one name are the Front's own handlers. Each takes the state
// pinned for the request; only the feed's long-poll, which outlives an
// epoch, goes back to the Source for the next one.

// stats serves /v1/stats.
func (f *Front) stats(w http.ResponseWriter, r *http.Request, st *EpochState) {
	if st == nil {
		f.src.Unavailable(w)
		return
	}
	resp := st.Stats
	resp.Partial = f.src.Partial()
	writeJSON(w, http.StatusOK, resp)
}

// zones serves /v1/zones.
func (f *Front) zones(w http.ResponseWriter, r *http.Request, st *EpochState) {
	p, ok := ParsePage(w, r, maxZonesPage)
	if !ok {
		return
	}
	if st == nil {
		f.src.Unavailable(w)
		return
	}
	zones := st.Stats.Zones
	start, end, next := p.window(len(zones), func(i int) string { return zones[i] })
	writeJSON(w, http.StatusOK, ZonesResponse{Zones: zones[start:end], NextCursor: next, Partial: f.src.Partial()})
}

// topNameservers serves /v1/top/nameservers.
func (f *Front) topNameservers(w http.ResponseWriter, r *http.Request, st *EpochState) {
	if st == nil {
		f.src.Unavailable(w)
		return
	}
	limit := defaultTopNSLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidLimit, "invalid limit %q", raw)
			return
		}
		if v > 0 {
			limit = v
		}
	}
	rows := st.TopNS
	if len(rows) > limit {
		rows = rows[:limit]
	}
	if rows == nil {
		rows = []TopNameserver{}
	}
	writeJSON(w, http.StatusOK, TopNameserversResponse{Nameservers: rows, Partial: f.src.Partial()})
}
