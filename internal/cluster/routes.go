package cluster

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/dzdbapi"
	"repro/internal/zonedb"
)

func (c *Coordinator) routes() {
	// The fleet-wide routes are the node's own handlers, rendering the
	// last complete sync instead of a view: pagination, limits, the
	// long-poll and every byte of the envelopes are dzdbapi's. They are
	// mounted bare — the coordinator has no response cache, ETags or gzip
	// of its own yet.
	epoch := dzdbapi.NewEpochRoutes(fleetSource{c})
	c.mux.HandleFunc("GET /v1/stats", c.synced(epoch.Stats))
	c.mux.HandleFunc("GET /v1/zones", c.synced(epoch.Zones))
	c.mux.HandleFunc("GET /v1/top/nameservers", c.synced(epoch.TopNameservers))
	c.mux.HandleFunc("GET /v1/deltas", c.synced(epoch.Deltas))
	c.mux.HandleFunc("GET /v1/nameservers/{name}", c.handleNameserver)
	c.mux.HandleFunc("GET /v1/domains/{name}", c.handleDomain)
	c.mux.HandleFunc("GET /v1/zones/{zone}/snapshot", c.handleSnapshot)
	c.mux.HandleFunc("GET /v1/cluster/shards", c.handleShards)
}

// ServeHTTP serves the coordinator's /v1 surface.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// synced mounts one of dzdbapi's epoch-wide handlers on the state of
// the last complete sync.
func (c *Coordinator) synced(h func(http.ResponseWriter, *http.Request, *dzdbapi.EpochState)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { h(w, r, c.state()) }
}

// state returns what the last complete sync merged, or nil before the
// first — which the handlers turn into the source's refusal.
func (c *Coordinator) state() *dzdbapi.EpochState {
	if fs := c.fleet.Load(); fs != nil {
		return &fs.EpochState
	}
	return nil
}

// fleetSource is the dzdbapi.Source of a fleet: the last complete sync,
// the broadcast every sync ends with, and the two things only a fleet
// can say — that an answer may be partial, and that there is none yet.
type fleetSource struct{ c *Coordinator }

func (f fleetSource) Current() (*dzdbapi.EpochState, <-chan struct{}) {
	ch := f.c.signal.Wait()
	return f.c.state(), ch
}

// Partial stamps degraded fleet-wide answers: the served state is the
// last complete sync, but with a shard down it may trail a reload that
// shard already took, so the envelope says so explicitly.
func (f fleetSource) Partial() bool {
	if !f.c.degraded() {
		return false
	}
	f.c.partialN.Inc()
	return true
}

// Unavailable answers a fleet-wide request made before the first
// complete sync.
func (f fleetSource) Unavailable(w http.ResponseWriter) {
	f.c.retryLater(w, CodeNotSynced, "fleet has not completed a sync yet; retry shortly")
}

// retryLater sheds a request the fleet cannot answer right now: 503
// with the heartbeat, the soonest membership can change, as the
// backoff hint.
func (c *Coordinator) retryLater(w http.ResponseWriter, code, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int(c.cfg.heartbeat().Seconds())+1))
	dzdbapi.WriteError(w, http.StatusServiceUnavailable, code, format, args...)
}

// handleNameserver scatter-gathers a nameserver's exposure live from
// every shard: a nameserver serves domains across many zones, so no
// single shard owns the answer. Shard answers are disjoint (each
// domain lives on exactly one shard), so lists concatenate and
// summaries sum exactly. A shard that cannot answer degrades the
// response to partial: true rather than failing the whole query. The
// name and the page are parsed first: a malformed request asks no shard
// and marks nothing partial.
func (c *Coordinator) handleNameserver(w http.ResponseWriter, r *http.Request) {
	name, ok := dzdbapi.ParseName(w, r.PathValue("name"))
	if !ok {
		return
	}
	page, ok := dzdbapi.ParsePage(w, r)
	if !ok {
		return
	}
	type result struct {
		resp *dzdbapi.NameserverResponse
		err  error
	}
	results := make([]result, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		if !sh.isUp() {
			results[i].err = errors.New("shard down")
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			results[i].resp, results[i].err = sh.data.NameserverPage(r.Context(), name, "", 0)
		}(i, sh)
	}
	wg.Wait()

	resp := dzdbapi.NameserverResponse{Name: string(name)}
	found, failed := false, false
	for _, res := range results {
		if res.err != nil {
			var ae *dzdbapi.APIError
			if errors.As(res.err, &ae) && ae.Status == http.StatusNotFound {
				continue // not observed on that shard
			}
			failed = true
			continue
		}
		found = true
		sr := res.resp
		if resp.FirstSeen == "" || (sr.FirstSeen != "" && sr.FirstSeen < resp.FirstSeen) {
			resp.FirstSeen = sr.FirstSeen
		}
		if len(sr.GlueSpans) > 0 {
			resp.GlueSpans = sr.GlueSpans // glue lives in exactly one zone
		}
		resp.Domains = append(resp.Domains, sr.Domains...)
		resp.Summary.Domains += sr.Summary.Domains
		resp.Summary.DomainDays += sr.Summary.DomainDays
	}
	if !found {
		if failed {
			c.retryLater(w, CodeShardUnavailable, "no shard could answer for %s", name)
			return
		}
		dzdbapi.WriteError(w, http.StatusNotFound, dzdbapi.CodeNotFound, "nameserver %s not observed", name)
		return
	}
	if failed || c.degraded() {
		resp.Partial = true
		c.partialN.Inc()
	}
	dzdbapi.WriteNameserverPage(w, page, &resp)
}

// handleDomain routes a domain lookup to the shard owning the
// domain's zone and relays the shard's response verbatim.
func (c *Coordinator) handleDomain(w http.ResponseWriter, r *http.Request) {
	name, ok := dzdbapi.ParseName(w, r.PathValue("name"))
	if !ok {
		return
	}
	c.proxyTo(w, r, "/v1/domains/{name}", c.shards[zonedb.ShardOf(name.TLD(), len(c.shards))])
}

// handleSnapshot routes a zone snapshot to the owning shard.
func (c *Coordinator) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	zone, ok := dzdbapi.ParseName(w, r.PathValue("zone"))
	if !ok {
		return
	}
	c.proxyTo(w, r, "/v1/zones/{zone}/snapshot", c.shards[zonedb.ShardOf(zone, len(c.shards))])
}

// proxyTo relays one request to its owning shard byte-for-byte:
// conditional and encoding negotiation headers forward, and the
// shard's status, headers (ETag included), and body come back
// untouched — so single-zone responses through the coordinator are
// the bytes the shard produced.
func (c *Coordinator) proxyTo(w http.ResponseWriter, r *http.Request, route string, sh *shard) {
	if !sh.isUp() {
		c.retryLater(w, CodeShardUnavailable, "shard %d owning this zone is unavailable", sh.id)
		c.proxied.With(route, "unavailable").Inc()
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, sh.url+r.URL.RequestURI(), nil)
	if err != nil {
		dzdbapi.WriteError(w, http.StatusInternalServerError, dzdbapi.CodeInternal, "building shard request: %v", err)
		c.proxied.With(route, "error").Inc()
		return
	}
	// Setting Accept-Encoding explicitly (identity when the client sent
	// none) disables the Go transport's transparent gzip, so whatever
	// representation the shard negotiated relays verbatim.
	if ae := r.Header.Get("Accept-Encoding"); ae != "" {
		req.Header.Set("Accept-Encoding", ae)
	} else {
		req.Header.Set("Accept-Encoding", "identity")
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := sh.proxy.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			c.proxied.With(route, "canceled").Inc()
			return
		}
		c.retryLater(w, CodeShardUnavailable, "shard %d unreachable: %v", sh.id, err)
		c.proxied.With(route, "error").Inc()
		return
	}
	defer resp.Body.Close()
	for k, vv := range resp.Header {
		switch k {
		case "Connection", "Keep-Alive", "Transfer-Encoding":
			continue
		}
		for _, v := range vv {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	c.proxied.With(route, strconv.Itoa(resp.StatusCode)).Inc()
}

// handleShards is the cluster introspection route: per-shard
// membership, health, and epochs, plus the fleet epoch.
func (c *Coordinator) handleShards(w http.ResponseWriter, r *http.Request) {
	dzdbapi.WriteJSON(w, http.StatusOK, struct {
		FleetEpoch uint64        `json:"fleet_epoch"`
		Degraded   bool          `json:"degraded"`
		Shards     []ShardStatus `json:"shards"`
	}{c.FleetEpoch(), c.degraded(), c.Shards()})
}
