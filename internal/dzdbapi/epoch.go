package dzdbapi

import (
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/dnsname"
	"repro/internal/obs"
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
}

// computeState walks v once — O(nameservers + edges), what one uncached
// /v1/stats request used to pay — and builds its state. The feed is not
// built here: see indexFeed.
func computeState(v *zonedb.View) *EpochState {
	zones := v.Zones()
	zs := make([]string, len(zones))
	for i, z := range zones {
		zs[i] = string(z)
	}
	st := &EpochState{
		Epoch: v.Epoch(),
		Stats: StatsResponse{Domains: v.NumDomains(), Nameservers: v.NumNameservers(), Zones: zs},
		view:  v,
	}
	var rows []TopNameserver
	v.Nameservers(func(ns dnsname.Name) bool {
		rows = append(rows, exposureOf(v, ns))
		return true
	})
	st.TopNS = RankNameservers(rows)
	if v.Closed() {
		st.Feed = &indexFeed{view: v}
	}
	return st
}

// exposureOf counts the domains that ever delegated to ns in v, and
// their domain-days.
func exposureOf(v *zonedb.View, ns dnsname.Name) TopNameserver {
	row := TopNameserver{Nameserver: string(ns)}
	for _, e := range v.EdgesOf(ns) {
		row.Domains++
		if sp := v.EdgeSpans(e.Domain, ns); sp != nil {
			row.DomainDays += sp.TotalDays()
		}
	}
	return row
}

// RankNameservers orders rows into the exposure leaderboard — by
// delegated-domain count, domain-days breaking ties, then by name — and
// keeps the rows /v1/top/nameservers can serve. It sorts rows in place.
func RankNameservers(rows []TopNameserver) []TopNameserver {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Domains != rows[j].Domains {
			return rows[i].Domains > rows[j].Domains
		}
		if rows[i].DomainDays != rows[j].DomainDays {
			return rows[i].DomainDays > rows[j].DomainDays
		}
		return rows[i].Nameserver < rows[j].Nameserver
	})
	if len(rows) > topNSKeep {
		rows = rows[:topNSKeep]
	}
	return rows
}

// Source is where the epoch-wide routes get what they render. A Server
// is one over its own database; the cluster coordinator is one over the
// state it merges from its shards.
type Source interface {
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

// EpochRoutes serves the four routes whose answer belongs to an epoch
// as a whole rather than to one name. A Server mounts them behind its
// cache and ETag layers; the cluster coordinator mounts the same
// handlers over its merged state, so a fleet's answers are a node's by
// construction. Each handler takes the state pinned for the request;
// only the feed's push modes, which outlive an epoch, go back to the
// Source for the next one.
type EpochRoutes struct {
	src Source
	// log, when non-nil, hears about a writer that cannot bound a slow
	// consumer; pushTimeout overrides defaultPushWriteTimeout.
	log         *slog.Logger
	pushTimeout time.Duration
	events      *obs.Counter // MetricPushEvents
	dropped     *obs.Counter // MetricPushDropped
}

// NewEpochRoutes returns the epoch-wide handlers over src, counting
// pushed events and shed consumers in reg.
func NewEpochRoutes(src Source, reg *obs.Registry, log *slog.Logger) *EpochRoutes {
	return &EpochRoutes{
		src:     src,
		log:     log,
		events:  reg.Counter(MetricPushEvents, "SSE delta events delivered."),
		dropped: reg.Counter(MetricPushDropped, "Push connections dropped for backpressure."),
	}
}

// Stats serves /v1/stats.
func (e *EpochRoutes) Stats(w http.ResponseWriter, r *http.Request, st *EpochState) {
	if st == nil {
		e.src.Unavailable(w)
		return
	}
	resp := st.Stats
	resp.Partial = e.src.Partial()
	writeJSON(w, http.StatusOK, resp)
}

// Zones serves /v1/zones.
func (e *EpochRoutes) Zones(w http.ResponseWriter, r *http.Request, st *EpochState) {
	if st == nil {
		e.src.Unavailable(w)
		return
	}
	zones := st.Stats.Zones
	start, end, next, ok := pageWindow(w, r, len(zones), func(i int) string { return zones[i] })
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, ZonesResponse{Zones: zones[start:end], NextCursor: next, Partial: e.src.Partial()})
}

// TopNameservers serves /v1/top/nameservers.
func (e *EpochRoutes) TopNameservers(w http.ResponseWriter, r *http.Request, st *EpochState) {
	if st == nil {
		e.src.Unavailable(w)
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
	writeJSON(w, http.StatusOK, TopNameserversResponse{Nameservers: rows, Partial: e.src.Partial()})
}
