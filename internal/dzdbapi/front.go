package dzdbapi

import (
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Front is the serving layer of the /v1 surface: the request span and
// log, the inflight and push-stream counts, the epoch ETag with its
// pre-dispatch 304, the response cache and gzip negotiation, in front
// of every route, over a Source. A Server is a Front over its own database; the cluster
// coordinator is one over the state it merges from its shards. Either
// way the four epoch-wide routes (/v1/stats, /v1/zones,
// /v1/top/nameservers, /v1/deltas) are the Front's own handlers, so a
// fleet's answers are a node's by construction.
type Front struct {
	mux      *http.ServeMux
	obs      *obs.Registry
	src      Source
	requests *obs.CounterVec   // MetricRequests{route,class}
	latency  *obs.HistogramVec // MetricRequestSeconds{route}

	// cache holds rendered bodies of the epoch being served; salt is
	// drawn once per Front and mixed into every ETag, so a restarted
	// process that reaches the same epoch number over other data never
	// issues a validator its predecessor did.
	cache *respCache
	salt  uint64

	// inflight counts requests being served; streams counts parked
	// long-polls, which are kept apart so they never read as load.
	inflight atomic.Int64
	streams  atomic.Int64

	cacheReqs     *obs.CounterVec // MetricCacheRequests{route,outcome}
	inflightGauge *obs.Gauge
	pushActive    *obs.Gauge

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

// NewFront returns the serving layer over src, recording into reg,
// with the epoch-wide routes mounted. Mount the rest with Handle.
func NewFront(src Source, reg *obs.Registry) *Front {
	f := &Front{mux: http.NewServeMux(), obs: reg, src: src, salt: rand.Uint64()}
	f.requests = reg.CounterVec(MetricRequests,
		"API requests by route and status class.", "route", "class")
	f.latency = reg.HistogramVec(MetricRequestSeconds,
		"API request latency by route.", nil, "route")
	f.cacheReqs = reg.CounterVec(MetricCacheRequests,
		"Response cache lookups by route and outcome (hit, miss, revalidated).", "route", "outcome")
	f.inflightGauge = reg.Gauge(MetricInflight, "Requests currently being served.")
	f.pushActive = reg.Gauge(MetricPushActive, "Parked long-poll delta requests.")
	f.cache = newRespCache(defaultCacheBytes)

	f.Handle("/v1/stats", f.stats)
	f.Handle("/v1/zones", f.zones)
	f.Handle("/v1/top/nameservers", f.topNameservers)
	f.Handle("/v1/deltas", f.deltas)
	return f
}

// HandlerFunc is a route handler with the request's pinned state
// threaded through: the middleware pins it once so the cache and
// handler layers both observe the same epoch. A route that does not
// read the state (a coordinator's proxied and scatter-gathered
// ones) still answers for it: the ETag and the cache are keyed by its
// epoch.
type HandlerFunc func(w http.ResponseWriter, r *http.Request, st *EpochState)

// Handle mounts handler for GET route behind the serving layer. The
// route is also the metrics label, so label cardinality is bounded by
// the route table, never by client input.
//
// Trace context flows in via the W3C traceparent header: a valid one
// parents the request's server span (and is echoed into the request
// log and the latency histogram's exemplar), an absent or malformed
// one starts a fresh root span.
func (f *Front) Handle(route string, handler HandlerFunc) {
	f.mux.HandleFunc("GET "+route, func(w http.ResponseWriter, r *http.Request) {
		start := f.obs.Now()
		ctx := r.Context()
		remote, hasRemote := trace.Extract(r.Header)
		if hasRemote {
			ctx = trace.ContextWithRemote(ctx, remote)
		}
		ctx, sp := f.Tracer.Start(ctx, "dzdbapi."+route)
		isPush := route == "/v1/deltas" && r.URL.Query().Get("wait") != ""
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		f.serve(sw, r.WithContext(ctx), route, isPush, handler)
		elapsed := f.obs.Now().Sub(start)

		traceID := sp.TraceID()
		if traceID == "" && hasRemote {
			traceID = remote.TraceID.String()
		}
		f.requests.With(route, statusClass(sw.status)).Inc()
		if !isPush {
			// A parked long-poll lasts until a publish or its wait; that
			// is not request latency and would wreck the p99.
			f.latency.With(route).ObserveExemplar(elapsed.Seconds(), traceID)
		}
		if sp != nil {
			sp.SetAttr("route", route)
			sp.SetAttr("status", strconv.Itoa(sw.status))
			sp.End()
		}
		if f.Log != nil {
			args := []any{"route", route, "status", sw.status,
				"dur_us", elapsed.Microseconds()}
			if traceID != "" {
				args = append(args, "trace_id", traceID)
			}
			f.Log.Info("request", args...)
		}
	})
}

// serve counts the request and runs the cache layer around handler.
// The state is pinned exactly once; when the source is settled that
// makes the response epoch-addressable: If-None-Match is answered 304
// from the epoch alone, and hot bodies come out of the LRU without
// recompute. An unsettled source's responses are rendered live, with no
// ETag, and kept out of the cache — and so is a render that unsettles
// the source itself, which the recording writer checks when the header
// goes out. Long-polls bypass the cache too: what they answer depends
// on when a publish lands, not on the epoch pinned here.
func (f *Front) serve(w http.ResponseWriter, r *http.Request, route string, isPush bool, handler HandlerFunc) {
	defer f.admit(isPush)()
	st, settled := f.src.Pin()
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
	if !settled {
		runHandler(w, r, st, enc, handler)
		return
	}
	etag := makeETag(f.salt, st.Epoch, key)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		// The epoch is the validator: the client's representation came
		// from this same immutable state, so no recompute is needed to
		// know it still matches.
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		f.cacheReqs.With(route, "revalidated").Inc()
		return
	}
	if f.cache == nil {
		rec := &recordingWriter{ResponseWriter: w, src: f.src, st: st, etag: etag, tooBig: true}
		runHandler(rec, r, st, enc, handler)
		return
	}
	if e, hit := f.cache.get(st.Epoch, key); hit {
		h := w.Header()
		h.Set("ETag", etag)
		h.Set("Content-Type", e.ctype)
		if e.enc != "" {
			h.Set("Content-Encoding", e.enc)
		}
		h.Set("X-Cache", "hit")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(e.body)
		f.cacheReqs.With(route, "hit").Inc()
		return
	}
	f.cacheReqs.With(route, "miss").Inc()
	rec := &recordingWriter{ResponseWriter: w, src: f.src, st: st, etag: etag, miss: true}
	runHandler(rec, r, st, enc, handler)
	// A body is stored only if it went out as the epoch's and the source
	// is still settled on the state it was rendered from: one that
	// unsettled meanwhile (a shard lost, seen by this very render or by a
	// heartbeat since) may have put a partial answer in it.
	if now, settled := f.src.Pin(); settled && now == st && !rec.live && rec.status == http.StatusOK && !rec.tooBig {
		f.cache.put(st.Epoch, key, rec.Header().Get("Content-Type"), enc,
			append([]byte(nil), rec.buf.Bytes()...))
	}
}

// runHandler invokes handler, interposing a gzip compressor when the
// request negotiated one. The recording writer sits below the
// compressor, so what it captures (and the cache stores) is the
// compressed variant.
func runHandler(w http.ResponseWriter, r *http.Request, st *EpochState, enc string, handler HandlerFunc) {
	if enc != "gzip" {
		handler(w, r, st)
		return
	}
	gz := newGzipWriter(w)
	handler(gz, r, st)
	_ = gz.Close()
}

// admit counts a request as inflight, or a parked long-poll as a push
// stream, and returns the func that uncounts it when it finishes.
func (f *Front) admit(isPush bool) func() {
	if isPush {
		f.pushActive.Set(f.streams.Add(1))
		return func() { f.pushActive.Set(f.streams.Add(-1)) }
	}
	f.inflightGauge.Set(f.inflight.Add(1))
	return func() { f.inflightGauge.Set(f.inflight.Add(-1)) }
}

// ServeStats counts what the serving layer holds open, for /statusz.
type ServeStats struct {
	Inflight int64
	// ActiveStreams counts parked long-poll requests.
	ActiveStreams int64
}

// ServeStats returns the current inflight and push-stream counts.
func (f *Front) ServeStats() ServeStats {
	return ServeStats{Inflight: f.inflight.Load(), ActiveStreams: f.streams.Load()}
}

// ServeHTTP implements http.Handler.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mux.ServeHTTP(w, r)
}

// CacheStats snapshots the response cache (zero-valued when caching is
// disabled).
func (f *Front) CacheStats() CacheStats {
	if f.cache == nil {
		return CacheStats{}
	}
	return f.cache.stats()
}

// Metrics returns the registry the serving layer records into.
func (f *Front) Metrics() *obs.Registry { return f.obs }

// LatencyHistograms returns the request-latency histograms for the given
// routes (by route label, e.g. "/v1/domains/{name}"), creating any not
// yet hit. The SLO tracker in dzdbd feeds on these.
func (f *Front) LatencyHistograms(routes ...string) []*obs.Histogram {
	out := make([]*obs.Histogram, len(routes))
	for i, r := range routes {
		out[i] = f.latency.With(r)
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
