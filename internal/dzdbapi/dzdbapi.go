// Package dzdbapi serves the longitudinal zone database over HTTP/JSON —
// the counterpart of the research-access API CAIDA provides for DZDB
// (the paper cites dzdb.caida.org/domains/WHITECOUNTY.NET when walking
// through the original-nameserver match).
//
// The stable surface is versioned under /v1/:
//
//	GET /v1/stats                      database-wide counts
//	GET /v1/zones?cursor=&limit=       observed zones (paginated)
//	GET /v1/domains/{name}             registration spans + nameserver history
//	GET /v1/nameservers/{name}?cursor=&limit=
//	                                   first-seen + delegated domains (paginated)
//	GET /v1/top/nameservers?limit=     precomputed exposure leaderboard
//	GET /v1/zones/{zone}/snapshot?date=YYYY-MM-DD   master-file snapshot
//	GET /v1/deltas?from=&cursor=&limit=&wait=       per-day change feed (paginated, long-polled)
//
// # Serving layer
//
// Every route sits behind one serving layer, Front, over a Source of
// epochs: a Server is one over its own database, the cluster
// coordinator one over the state it merges from its shards. Every /v1
// response derives a strong ETag from the pinned epoch plus the
// canonical request parameters — the epoch is the validator, so
// If-None-Match is answered with 304 before the handler runs, and an
// in-process LRU keyed by (epoch, route, params) serves hot bodies
// without recompute. Publishing a new View (Close, Adopt) invalidates
// the cache wholesale and refreshes precomputed hot aggregates (stats,
// zone list, top-nameserver table).
//
// The delta feed pushes by long-poll: GET /v1/deltas?wait=30s on an
// empty window parks until a publish or the wait expires, and answers
// with the ordinary page.
//
// Pagination: list endpoints accept ?limit= (page size) and ?cursor=
// (opaque token from the previous page's next_cursor; empty means
// start). Each list route has a largest page: an absent or zero limit
// gets it, and a larger limit is clamped to it, so no answer grows with
// the database. A response with more data sets next_cursor; the last
// page omits it.
//
// Errors are a uniform envelope {"error":{"code","message"}} with codes
// invalid_name, invalid_date, invalid_cursor, invalid_limit, not_found,
// and internal.
//
// Every request reads one epoch's state — the immutable zonedb.View a
// publish handed the server, plus the aggregates computed from it —
// pinned at dispatch, so responses are consistent even while a re-ingest
// publishes new generations behind the API. A database that was never
// sealed serves what it publishes: the empty view.
//
// Names are case-insensitive, as in DNS. All responses are JSON except
// the snapshot, which is text/dns in master-file format.
package dzdbapi

import (
	"cmp"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/zonedb"
)

// Metric names recorded by the request middleware.
const (
	MetricRequests       = "dzdb_http_requests_total"
	MetricRequestSeconds = "dzdb_http_request_seconds"
	MetricInflight       = "dzdb_http_inflight"
)

// Metric names recorded by the publish hook. The histogram is the
// benchmark's dzdbapi.publish_hook stage; the counter's "how" label says
// which way each epoch's state was made: "advance" (extended from the
// epoch before it) or "rebuild" (walked from the view).
const (
	MetricPublishHookSeconds = "dzdbapi_publish_hook_seconds"
	MetricEpochPublish       = "dzdb_epoch_publish_total"
)

// Span is one presence interval in API form.
type Span struct {
	First string `json:"first"`
	Last  string `json:"last"`
}

func spansOf(s *interval.Set) []Span {
	if s == nil {
		return nil
	}
	out := make([]Span, 0, s.Len())
	for _, r := range s.Spans() {
		out = append(out, Span{First: r.First.String(), Last: r.Last.String()})
	}
	return out
}

// DomainResponse is the /domains/{name} payload.
type DomainResponse struct {
	Name       string      `json:"name"`
	Registered []Span      `json:"registered,omitempty"`
	NSHistory  []NSHistory `json:"ns_history,omitempty"`
}

// NSHistory is one nameserver a domain delegated to, with the days the
// delegation was visible.
type NSHistory struct {
	Nameserver string `json:"nameserver"`
	Spans      []Span `json:"spans"`
}

// NameserverResponse is the /nameservers/{name} payload. Summary always
// aggregates the nameserver's full exposure; pagination windows only the
// Domains list.
type NameserverResponse struct {
	Name      string        `json:"name"`
	FirstSeen string        `json:"first_seen,omitempty"`
	GlueSpans []Span        `json:"glue_spans,omitempty"`
	Domains   []DomainOfNS  `json:"domains,omitempty"`
	Summary   DegreeSummary `json:"summary"`
	// NextCursor resumes the Domains list on the next page; empty on the
	// last (or an unpaginated) response.
	NextCursor string `json:"next_cursor,omitempty"`
	// Partial marks a degraded fleet-wide answer: the cluster
	// coordinator sets it when one or more shards were unreachable, so
	// the lists and summary may undercount. Single-node servers never
	// set it, and omitempty keeps healthy responses byte-identical to
	// pre-cluster ones.
	Partial bool `json:"partial,omitempty"`
}

// DomainOfNS is one domain that delegated to the nameserver.
type DomainOfNS struct {
	Domain string `json:"domain"`
	Spans  []Span `json:"spans"`
}

// DegreeSummary aggregates a nameserver's exposure.
type DegreeSummary struct {
	Domains    int `json:"domains"`
	DomainDays int `json:"domain_days"`
}

// StatsResponse is the /stats payload.
type StatsResponse struct {
	Domains     int      `json:"domains"`
	Nameservers int      `json:"nameservers"`
	Zones       []string `json:"zones"`
	// Partial marks a degraded coordinator answer (see
	// NameserverResponse.Partial).
	Partial bool `json:"partial,omitempty"`
}

// ZonesResponse is the /v1/zones payload.
type ZonesResponse struct {
	Zones      []string `json:"zones"`
	NextCursor string   `json:"next_cursor,omitempty"`
	// Partial marks a degraded coordinator answer (see
	// NameserverResponse.Partial).
	Partial bool `json:"partial,omitempty"`
}

// Server serves a zonedb.DB. Each request reads the state of the DB's
// last published View, so serving concurrently with ingestion (and
// swapping databases with zonedb.DB.Adopt) is safe. Its serving layer,
// the embedded Front, is one over the node's own epochs.
type Server struct {
	*Front

	// The state of the epoch being served (the View plus its
	// publish-time aggregates), and the publish broadcast the push paths
	// park on.
	state  atomic.Pointer[EpochState]
	signal *EpochSignal

	// shardID/shardCount identify this server's slice of a cluster
	// partition; see SetShardIdentity.
	shardID    int
	shardCount int

	hookSeconds *obs.Histogram  // MetricPublishHookSeconds
	published   *obs.CounterVec // MetricEpochPublish{how}
}

// New builds the API server for db with its own private metrics
// registry (retrievable via Metrics).
func New(db *zonedb.DB) *Server {
	return NewWithRegistry(db, obs.NewRegistry())
}

// NewWithRegistry builds the API server recording request metrics into
// reg — what dzdbd uses to fold API metrics into its /metrics registry.
func NewWithRegistry(db *zonedb.DB, reg *obs.Registry) *Server {
	s := &Server{signal: NewEpochSignal()}
	s.Front = NewFront(nodeSource{s}, reg)
	s.hookSeconds = reg.Histogram(MetricPublishHookSeconds,
		"Time the publish hook took to make and install an epoch's state.", nil)
	s.published = reg.CounterVec(MetricEpochPublish,
		"Epochs installed by the publish hook, by how their state was made (advance, rebuild).", "how")

	s.state.Store(computeState(db.View()))
	db.OnPublish(s.onPublish)

	s.Handle("/v1/domains/{name}", s.handleDomain)
	s.Handle("/v1/nameservers/{name}", s.handleNameserver)
	s.Handle("/v1/zones/{zone}/snapshot", s.handleSnapshot)
	return s
}

// onPublish is the zonedb publish hook: make the new epoch's state and
// start serving it, retire the response cache's old working set, and
// only then wake every parked push connection. When the view is a plain
// dated advance of the one being served the state is extended from it,
// for the cost of the day; otherwise it is computed from the view, for
// the cost of the world. The new epoch's cache is filled by traffic
// alone. It runs on the publishing goroutine (Close/Adopt caller),
// outside the DB's write lock; until it stores the new state, requests
// keep reading the previous epoch whole.
func (s *Server) onPublish(v *zonedb.View) {
	start := s.obs.Now()
	st, how := advanceState(s.state.Load(), v), "advance"
	if st == nil {
		st, how = computeState(v), "rebuild"
	}
	s.state.Store(st)
	if s.cache != nil {
		s.cache.bump(v.Epoch())
	}
	s.signal.Broadcast()
	s.published.With(how).Inc()
	s.hookSeconds.ObserveDuration(s.obs.Now().Sub(start))
}

// nodeSource is the Source of a single node: the state its publish
// hook last stored, always settled, never partial.
type nodeSource struct{ s *Server }

func (n nodeSource) Pin() (*EpochState, bool) { return n.s.state.Load(), true }

func (n nodeSource) Current() (*EpochState, <-chan struct{}) {
	ch := n.s.signal.Wait()
	return n.s.state.Load(), ch
}

func (nodeSource) Partial() bool { return false }

// Unavailable answers a feed request against a database that was never
// sealed: without a close day there is no boundary between "removed"
// and "not yet sealed", so there is no feed to serve.
func (nodeSource) Unavailable(w http.ResponseWriter) {
	writeError(w, http.StatusNotFound, CodeNotFound,
		"delta feed requires a sealed database (no Close recorded)")
}

// SetCacheBytes resizes the response cache budget (default 64 MiB);
// n <= 0 disables response caching (ETag/304 handling remains). Call
// before serving.
func (s *Server) SetCacheBytes(n int64) {
	if n <= 0 {
		s.cache = nil
		return
	}
	s.cache = newRespCache(n)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError renders the uniform v1 error envelope. Exported for the
// cluster coordinator, which must speak the same error dialect as the
// shards it fronts.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeError(w, status, code, format, args...)
}

// Error codes carried in the v1 error envelope.
const (
	CodeInvalidName   = "invalid_name"
	CodeInvalidDate   = "invalid_date"
	CodeInvalidCursor = "invalid_cursor"
	CodeInvalidLimit  = "invalid_limit"
	CodeInvalidWait   = "invalid_wait"
	CodeNotFound      = "not_found"
	CodeInternal      = "internal"
)

// ErrorBody is the machine-readable half of the error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type apiError struct {
	Error ErrorBody `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, apiError{Error: ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// ParseName parses a name taken from a request path; the bool is false
// if it is malformed, and the invalid_name response has been written.
// Exported for the cluster coordinator, which must refuse a name in the
// shards' own words before it picks the shard to ask.
func ParseName(w http.ResponseWriter, raw string) (dnsname.Name, bool) {
	n, err := dnsname.Parse(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidName, "invalid name %q: %v", raw, err)
		return "", false
	}
	return n, true
}

// Cursors are opaque to clients: the base64url-encoded key of the last
// item on the previous page. Resumption is by key, not offset, so a page
// boundary stays correct even if the set changes between requests.
func encodeCursor(key string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(key))
}

func decodeCursor(raw string) (string, error) {
	b, err := base64.RawURLEncoding.DecodeString(raw)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// The largest page of each list route, in items. Each is sized so that
// the largest such page of the scale-8, seed-1 world fits maxCacheBody
// (4 MiB), and is at least every limit an in-repository client sends:
//   - /v1/deltas: 500 days; the largest 500-day window is 2.5 MB (the
//     whole 5,206-day feed is 22 MB), and watch.Follower asks for 365;
//   - /v1/nameservers/{name}: 10,000 domains; the largest nameserver
//     has 7,105 (1.1 MB);
//   - /v1/zones: 1,000 zones; the world has 9;
//   - /v1/internal/ns-exposure: 20,000 rows of 23,808 (2.0 MB).
const (
	maxDeltasPage     = 500
	MaxNameserverPage = 10000 // the cluster coordinator pages its merge by it too
	maxZonesPage      = 1000
	maxNSExposurePage = 20000
)

// Page is the window a request's ?cursor=&limit= select from a sorted
// list of keys. Handlers parse it before doing any work, so a malformed
// request costs nothing but its 400.
type Page struct {
	limit int    // at least 1
	after string // the key of the previous page's last item; "" starts
}

// ParsePage parses ?limit= and ?cursor= for a route whose largest page
// is largest items: an absent or zero limit reads as largest, and a
// larger one is clamped to it. The bool is false if either parameter
// is malformed (a limit that is not a non-negative integer, a cursor
// that is not base64url), and the invalid_limit or invalid_cursor
// response has been written. Exported for the cluster coordinator, which must refuse a
// malformed page before it asks any shard.
func ParsePage(w http.ResponseWriter, r *http.Request, largest int) (Page, bool) {
	q := r.URL.Query()
	p := Page{limit: largest}
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidLimit, "invalid limit %q", raw)
			return Page{}, false
		}
		if v > 0 && v < largest {
			p.limit = v
		}
	}
	if raw := q.Get("cursor"); raw != "" {
		key, err := decodeCursor(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidCursor, "invalid cursor %q", raw)
			return Page{}, false
		}
		p.after = key
	}
	return p, true
}

// window resolves p against a sorted list of n keys: the [start, end)
// window and the next cursor ("" when the window reaches the end).
func (p Page) window(n int, keyAt func(int) string) (start, end int, next string) {
	if p.after != "" {
		start = sort.Search(n, func(i int) bool { return keyAt(i) > p.after })
	}
	end = n
	if p.limit < n-start {
		end = start + p.limit
	}
	if end < n {
		next = encodeCursor(keyAt(end - 1))
	}
	return start, end, next
}

func (s *Server) handleDomain(w http.ResponseWriter, r *http.Request, st *EpochState) {
	name, ok := ParseName(w, r.PathValue("name"))
	if !ok {
		return
	}
	db := st.view
	resp := DomainResponse{Name: string(name)}
	resp.Registered = spansOf(db.DomainSpans(name))
	db.EachNSOf(name, func(ns dnsname.Name, sp *interval.Set) bool {
		resp.NSHistory = append(resp.NSHistory, NSHistory{Nameserver: string(ns), Spans: spansOf(sp)})
		return true
	})
	sort.Slice(resp.NSHistory, func(i, j int) bool {
		return resp.NSHistory[i].Nameserver < resp.NSHistory[j].Nameserver
	})
	if resp.Registered == nil && len(resp.NSHistory) == 0 {
		writeError(w, http.StatusNotFound, CodeNotFound, "domain %s not observed", name)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleNameserver answers for any name the view holds a fact about: a
// delegation to it, or its glue. A shard can hold a nameserver's glue
// (the host's own zone) while every delegation to it lives on other
// shards, and the coordinator's merge needs that glue.
func (s *Server) handleNameserver(w http.ResponseWriter, r *http.Request, st *EpochState) {
	name, ok := ParseName(w, r.PathValue("name"))
	if !ok {
		return
	}
	p, ok := ParsePage(w, r, MaxNameserverPage)
	if !ok {
		return
	}
	db := st.view
	// One walk over the edges gives the first day seen and the summary,
	// which count every edge; only the page's window is rendered.
	type edge struct {
		domain dnsname.Name
		spans  *interval.Set
	}
	var edges []edge
	first, days := dates.None, 0
	db.EachDomainOf(name, func(domain dnsname.Name, sp *interval.Set) bool {
		edges = append(edges, edge{domain, sp})
		if f := sp.First(); f != dates.None && (first == dates.None || f < first) {
			first = f
		}
		days += sp.TotalDays()
		return true
	})
	glue := db.GlueSpans(name)
	if first == dates.None && glue == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "nameserver %s not observed", name)
		return
	}
	resp := NameserverResponse{Name: string(name), GlueSpans: spansOf(glue)}
	if first != dates.None {
		resp.FirstSeen = first.String()
	}
	resp.Summary.DomainDays = days
	resp.Summary.Domains = len(edges)
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Compare(a.domain, b.domain) })
	start, end, next := p.window(len(edges), func(i int) string { return string(edges[i].domain) })
	for _, e := range edges[start:end] {
		resp.Domains = append(resp.Domains, DomainOfNS{Domain: string(e.domain), Spans: spansOf(e.spans)})
	}
	resp.NextCursor = next
	writeJSON(w, http.StatusOK, resp)
}

// WriteNameserverPage finishes a /v1/nameservers/{name} answer whose
// Domains hold the nameserver's whole exposure in any order: it sorts
// them, windows the list by p, and renders. The cluster coordinator
// calls it with the disjoint union of its shards' answers; a node
// windows its view's edges by the same Page.window before it builds any
// entry, so the two page alike and their cursors are interchangeable.
func WriteNameserverPage(w http.ResponseWriter, p Page, resp *NameserverResponse) {
	sort.Slice(resp.Domains, func(i, j int) bool { return resp.Domains[i].Domain < resp.Domains[j].Domain })
	start, end, next := p.window(len(resp.Domains), func(i int) string { return resp.Domains[i].Domain })
	resp.Domains = resp.Domains[start:end]
	resp.NextCursor = next
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, st *EpochState) {
	zone, ok := ParseName(w, r.PathValue("zone"))
	if !ok {
		return
	}
	raw := r.URL.Query().Get("date")
	day, err := dates.Parse(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidDate, "invalid date %q (want YYYY-MM-DD)", raw)
		return
	}
	if _, found := slices.BinarySearch(st.Stats.Zones, string(zone)); !found {
		writeError(w, http.StatusNotFound, CodeNotFound, "zone %s not observed", zone)
		return
	}
	if day > st.view.CloseDay() {
		writeError(w, http.StatusNotFound, CodeNotFound, "zone %s not observed on %s", zone, day)
		return
	}
	w.Header().Set("Content-Type", "text/dns; charset=utf-8")
	_, _ = w.Write(st.zones.get().SnapshotOn(zone, day).AppendTo(nil))
}
