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
// Every /v1 response derives a strong ETag from the pinned View's
// epoch plus the canonical request parameters — the epoch is the
// validator, so If-None-Match is answered with 304 before the handler
// runs, and an in-process LRU keyed by (epoch, route, params) serves
// hot bodies without recompute. Publishing a new View (Close, Adopt)
// invalidates the cache wholesale and refreshes precomputed hot
// aggregates (stats, zone list, top-nameserver table).
//
// The delta feed pushes by long-poll: GET /v1/deltas?wait=30s on an
// empty window parks until a publish or the wait expires, and answers
// with the ordinary page. Per-client token-bucket rate limits and a
// concurrency cap shed excess load with the v1 error envelope plus
// Retry-After.
//
// Pagination: list endpoints accept ?limit= (page size; absent or 0
// returns everything) and ?cursor= (opaque
// token from the previous page's next_cursor; empty means start). A
// response with more data sets next_cursor; the last page omits it.
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
	"encoding/base64"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/zonedb"
)

// Metric names recorded by the request middleware.
const (
	MetricRequests       = "dzdb_http_requests_total"
	MetricRequestSeconds = "dzdb_http_request_seconds"
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
// swapping databases with zonedb.DB.Adopt) is safe.
type Server struct {
	mux      *http.ServeMux
	obs      *obs.Registry
	requests *obs.CounterVec   // MetricRequests{route,class}
	latency  *obs.HistogramVec // MetricRequestSeconds{route}

	// Serving layer: the epoch-keyed response cache, the state of the
	// epoch being served (the View plus its publish-time aggregates),
	// and the publish broadcast the push paths park on.
	cache  *respCache
	state  atomic.Pointer[EpochState]
	signal *EpochSignal
	epoch  *EpochRoutes // /v1/stats, /v1/zones, /v1/top/nameservers, /v1/deltas

	// Protection: per-client token buckets and the concurrency cap.
	limits      *limiter
	maxInflight int64
	inflight    atomic.Int64
	streams     atomic.Int64
	shedRateN   atomic.Uint64
	shedLoadN   atomic.Uint64

	// shardID/shardCount identify this server's slice of a cluster
	// partition (0 of 1 when unsharded); see SetShardIdentity.
	shardID    int
	shardCount int

	cacheReqs     *obs.CounterVec // MetricCacheRequests{route,outcome}
	shedTotal     *obs.CounterVec // MetricShed{route,code}
	inflightGauge *obs.Gauge
	pushActive    *obs.Gauge
	hookSeconds   *obs.Histogram  // MetricPublishHookSeconds
	published     *obs.CounterVec // MetricEpochPublish{how}

	// Log, when non-nil, receives one structured record per request,
	// carrying the request's trace ID when the client sent a
	// traceparent header. Set before serving.
	Log *slog.Logger
	// Tracer, when non-nil, opens a server span per request, joined to
	// the caller's trace when a valid traceparent header is present
	// (a malformed or absent header starts a fresh root). Set before
	// serving.
	Tracer *trace.Tracer
}

// New builds the API server for db with its own private metrics
// registry (retrievable via Metrics).
func New(db *zonedb.DB) *Server {
	return NewWithRegistry(db, obs.NewRegistry())
}

// NewWithRegistry builds the API server recording request metrics into
// reg — what dzdbd uses to fold API metrics into its /metrics registry.
func NewWithRegistry(db *zonedb.DB, reg *obs.Registry) *Server {
	s := &Server{mux: http.NewServeMux(), obs: reg}
	s.requests = reg.CounterVec(MetricRequests,
		"API requests by route and status class.", "route", "class")
	s.latency = reg.HistogramVec(MetricRequestSeconds,
		"API request latency by route.", nil, "route")
	s.cacheReqs = reg.CounterVec(MetricCacheRequests,
		"Response cache lookups by route and outcome (hit, miss, revalidated).", "route", "outcome")
	s.shedTotal = reg.CounterVec(MetricShed,
		"Requests shed by the protection layer, by route and error code.", "route", "code")
	s.inflightGauge = reg.Gauge(MetricInflight, "Requests currently being served.")
	s.pushActive = reg.Gauge(MetricPushActive, "Parked long-poll delta requests.")
	s.hookSeconds = reg.Histogram(MetricPublishHookSeconds,
		"Time the publish hook took to make and install an epoch's state.", nil)
	s.published = reg.CounterVec(MetricEpochPublish,
		"Epochs installed by the publish hook, by how their state was made (advance, rebuild).", "how")

	s.cache = newRespCache(defaultCacheBytes)
	s.signal = NewEpochSignal()
	s.state.Store(computeState(db.View()))
	db.OnPublish(s.onPublish)
	s.epoch = NewEpochRoutes(nodeSource{s})

	s.handle("GET /v1/stats", "/v1/stats", s.epoch.Stats)
	s.handle("GET /v1/zones", "/v1/zones", s.epoch.Zones)
	s.handle("GET /v1/domains/{name}", "/v1/domains/{name}", s.handleDomain)
	s.handle("GET /v1/nameservers/{name}", "/v1/nameservers/{name}", s.handleNameserver)
	s.handle("GET /v1/top/nameservers", "/v1/top/nameservers", s.epoch.TopNameservers)
	s.handle("GET /v1/zones/{zone}/snapshot", "/v1/zones/{zone}/snapshot", s.handleSnapshot)
	s.handle("GET /v1/deltas", "/v1/deltas", s.epoch.Deltas)

	// Internal shard-to-coordinator surface (not part of the public API).
	s.handle("GET /v1/internal/shard-info", "/v1/internal/shard-info", s.handleShardInfo)
	s.handle("GET /v1/internal/ns-exposure", "/v1/internal/ns-exposure", s.handleNSExposure)
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
// hook last stored, never partial.
type nodeSource struct{ s *Server }

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

// CacheStats snapshots the response cache (zero-valued when caching is
// disabled).
func (s *Server) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.stats()
}

// Metrics returns the registry the request middleware records into.
func (s *Server) Metrics() *obs.Registry { return s.obs }

// LatencyHistograms returns the request-latency histograms for the given
// routes (by route label, e.g. "/v1/domains/{name}"), creating any not
// yet hit. The SLO tracker in dzdbd feeds on these.
func (s *Server) LatencyHistograms(routes ...string) []*obs.Histogram {
	vec := s.obs.HistogramVec(MetricRequestSeconds, "API request latency by route.", nil, "route")
	out := make([]*obs.Histogram, len(routes))
	for i, r := range routes {
		out[i] = vec.With(r)
	}
	return out
}

// V1Routes lists the versioned route labels — the set the serving SLO is
// defined over.
func V1Routes() []string {
	return []string{
		"/v1/stats", "/v1/zones", "/v1/domains/{name}", "/v1/nameservers/{name}",
		"/v1/top/nameservers", "/v1/zones/{zone}/snapshot", "/v1/deltas",
	}
}

// handlerFunc is a route handler with the request's pinned state
// threaded through: the middleware loads it once so the protection,
// cache, and handler layers all observe the same epoch.
type handlerFunc func(w http.ResponseWriter, r *http.Request, st *EpochState)

// handle mounts handler at pattern behind the metrics-and-tracing
// middleware. The route label is the pattern without the method so
// label cardinality is bounded by the route table, never by client
// input.
//
// Trace context flows in via the W3C traceparent header: a valid one
// parents the request's server span (and is echoed into the request
// log and the latency histogram's exemplar), an absent or malformed
// one starts a fresh root span.
func (s *Server) handle(pattern, route string, handler handlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := s.obs.Now()
		ctx := r.Context()
		remote, hasRemote := trace.Extract(r.Header)
		if hasRemote {
			ctx = trace.ContextWithRemote(ctx, remote)
		}
		ctx, sp := s.Tracer.Start(ctx, "dzdbapi."+route)
		isPush := route == "/v1/deltas" && r.URL.Query().Get("wait") != ""
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.serve(sw, r.WithContext(ctx), route, isPush, handler)
		elapsed := s.obs.Now().Sub(start)

		traceID := sp.TraceID()
		if traceID == "" && hasRemote {
			traceID = remote.TraceID.String()
		}
		s.requests.With(route, statusClass(sw.status)).Inc()
		if !isPush {
			// A parked long-poll lasts until a publish or its wait; that
			// is not request latency and would wreck the p99.
			s.latency.With(route).ObserveExemplar(elapsed.Seconds(), traceID)
		}
		if sp != nil {
			sp.SetAttr("route", route)
			sp.SetAttr("status", strconv.Itoa(sw.status))
			sp.End()
		}
		if s.Log != nil {
			args := []any{"route", route, "status", sw.status,
				"dur_us", elapsed.Microseconds()}
			if traceID != "" {
				args = append(args, "trace_id", traceID)
			}
			s.Log.Info("request", args...)
		}
	})
}

// serve runs the protection and cache layers around handler. The state
// is pinned exactly once and makes the response epoch-addressable:
// If-None-Match is answered 304 from the epoch alone, and hot bodies
// come out of the LRU without recompute. Long-polls bypass the cache:
// what they answer depends on when a publish lands, not on the epoch
// pinned here.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, route string, isPush bool, handler handlerFunc) {
	release, ok := s.admit(w, r, route, isPush)
	if !ok {
		return
	}
	defer release()
	st := s.state.Load()
	if isPush {
		handler(w, r, st)
		return
	}
	key := cacheKey(r)
	enc := ""
	if compressibleRoute(route) {
		// The representation varies by Accept-Encoding whether or not
		// this request negotiated gzip, so downstream caches must split
		// on it either way.
		w.Header().Add("Vary", "Accept-Encoding")
		if acceptsGzip(r) {
			enc = "gzip"
			// The encoding is part of the cache key, which also makes
			// the derived ETag encoding-aware: the gzip and identity
			// variants never share a validator.
			key += gzipKeySuffix
		}
	}
	etag := makeETag(st.Epoch, key)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		// The epoch is the validator: the client's representation came
		// from this same immutable View, so no recompute is needed to
		// know it still matches.
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		s.cacheReqs.With(route, "revalidated").Inc()
		return
	}
	if s.cache == nil {
		rec := &recordingWriter{ResponseWriter: w, etag: etag, tooBig: true}
		s.runHandler(rec, r, st, enc, handler)
		return
	}
	if e, hit := s.cache.get(st.Epoch, key); hit {
		h := w.Header()
		h.Set("ETag", etag)
		h.Set("Content-Type", e.ctype)
		if e.enc != "" {
			h.Set("Content-Encoding", e.enc)
		}
		h.Set("X-Cache", "hit")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(e.body)
		s.cacheReqs.With(route, "hit").Inc()
		return
	}
	s.cacheReqs.With(route, "miss").Inc()
	w.Header().Set("X-Cache", "miss")
	rec := &recordingWriter{ResponseWriter: w, etag: etag}
	s.runHandler(rec, r, st, enc, handler)
	if rec.status == http.StatusOK && !rec.tooBig {
		s.cache.put(st.Epoch, key, rec.Header().Get("Content-Type"), enc,
			append([]byte(nil), rec.buf.Bytes()...))
	}
}

// runHandler invokes handler, interposing a gzip compressor when the
// request negotiated one. The recording writer sits below the
// compressor, so what it captures (and the cache stores) is the
// compressed variant.
func (s *Server) runHandler(w http.ResponseWriter, r *http.Request, st *EpochState, enc string, handler handlerFunc) {
	if enc != "gzip" {
		handler(w, r, st)
		return
	}
	gz := newGzipWriter(w)
	handler(gz, r, st)
	_ = gz.Close()
}

// statusWriter captures the response status for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// statusClass buckets a status code ("2xx", "4xx", ...).
func statusClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteJSON renders v exactly as every v1 handler does (two-space
// indent, application/json). The cluster coordinator uses it so merged
// responses are byte-identical to a single node's rendering of the same
// value.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

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
	// CodeRateLimited (429) and CodeOverloaded (503) are the shed
	// responses; both carry a Retry-After header.
	CodeRateLimited = "rate_limited"
	CodeOverloaded  = "overloaded"
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

// Page is the window a request's ?cursor=&limit= select from a sorted
// list of keys. Handlers parse it before doing any work, so a malformed
// request costs nothing but its 400.
type Page struct {
	limit int    // 0: no pagination
	after string // the key of the previous page's last item; "" starts
}

// ParsePage parses ?limit= and ?cursor=. The bool is false if either is
// malformed, and the invalid_limit or invalid_cursor response has been
// written. Exported for the cluster coordinator, which must refuse a
// malformed page before it asks any shard.
func ParsePage(w http.ResponseWriter, r *http.Request) (Page, bool) {
	q := r.URL.Query()
	var p Page
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidLimit, "invalid limit %q", raw)
			return Page{}, false
		}
		p.limit = v
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
	if p.limit > 0 && p.limit < n-start {
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
	p, ok := ParsePage(w, r)
	if !ok {
		return
	}
	db := st.view
	first := db.NSFirstSeen(name)
	glue := db.GlueSpans(name)
	if first == dates.None && glue == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "nameserver %s not observed", name)
		return
	}
	resp := NameserverResponse{Name: string(name), GlueSpans: spansOf(glue)}
	if first != dates.None {
		resp.FirstSeen = first.String()
	}
	db.EachDomainOf(name, func(domain dnsname.Name, sp *interval.Set) bool {
		resp.Domains = append(resp.Domains, DomainOfNS{Domain: string(domain), Spans: spansOf(sp)})
		resp.Summary.Domains++
		resp.Summary.DomainDays += sp.TotalDays()
		return true
	})
	WriteNameserverPage(w, p, &resp)
}

// WriteNameserverPage finishes a /v1/nameservers/{name} answer whose
// Domains hold the nameserver's whole exposure in any order: it sorts
// them, windows the list by p, and renders. A node calls it with the
// edges of its view, the cluster coordinator with the disjoint union of
// its shards' answers, so the two page and render alike and their
// cursors are interchangeable.
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
	db := st.view
	raw := r.URL.Query().Get("date")
	day, err := dates.Parse(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidDate, "invalid date %q (want YYYY-MM-DD)", raw)
		return
	}
	found := false
	for _, z := range db.Zones() {
		if z == zone {
			found = true
		}
	}
	if !found {
		writeError(w, http.StatusNotFound, CodeNotFound, "zone %s not observed", zone)
		return
	}
	if day > db.CloseDay() {
		writeError(w, http.StatusNotFound, CodeNotFound, "zone %s not observed on %s", zone, day)
		return
	}
	snap := db.SnapshotOn(zone, day)
	w.Header().Set("Content-Type", "text/dns; charset=utf-8")
	var sb strings.Builder
	if err := snap.Write(&sb); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "rendering snapshot: %v", err)
		return
	}
	_, _ = w.Write([]byte(sb.String()))
}
