package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/dnsname"
	"repro/internal/dzdbapi"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/zonedb"
)

func (c *Coordinator) routes() {
	// Every /v1 route is behind dzdbapi's serving layer over the fleet's
	// epochs: the request span and log, admission, the fleet-epoch ETag
	// and 304, the response cache and gzip are the node's. The four
	// fleet-wide routes are its own handlers, rendering the last complete
	// sync instead of a view; the three below are what only a
	// coordinator does, and are cached under the same fleet epoch.
	c.Front = dzdbapi.NewFront(fleetSource{c}, obs.NewRegistry())
	c.Handle("/v1/nameservers/{name}", c.handleNameserver)
	c.Handle("/v1/domains/{name}", c.handleDomain)
	c.Handle("/v1/zones/{zone}/snapshot", c.handleSnapshot)
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
// settled or not, the broadcast every sync ends with, and the two
// things only a fleet can say — that an answer may be partial, and that
// there is none yet.
type fleetSource struct{ c *Coordinator }

// Pin serves a settled fleet's requests from the state settle stored,
// and any other live from the last complete sync.
func (f fleetSource) Pin() (*dzdbapi.EpochState, bool) {
	if st := f.c.settled.Load(); st != nil {
		return st, true
	}
	return f.c.state(), false
}

func (f fleetSource) Current() (*dzdbapi.EpochState, <-chan struct{}) {
	ch := f.c.signal.Wait()
	return f.c.state(), ch
}

// Partial stamps degraded fleet-wide answers: the served state is the
// last complete sync, but with a shard down it may trail a reload that
// shard already took, so the envelope says so explicitly. A render that
// finds the fleet degraded unsettles it, so a partial answer is never
// cached.
func (f fleetSource) Partial() bool {
	if !f.c.degraded() {
		return false
	}
	f.c.unsettle()
	return true
}

// Unavailable answers a fleet-wide request made before the first
// complete sync.
func (f fleetSource) Unavailable(w http.ResponseWriter) {
	f.c.retryLater(w, CodeNotSynced, "fleet has not completed a sync yet; retry shortly")
}

// retryLater sheds a request the fleet cannot answer right now: 503
// with the heartbeat, the soonest a shard's breaker closes, as the
// backoff hint.
func (c *Coordinator) retryLater(w http.ResponseWriter, code, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(int(heartbeat.Seconds())+1))
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
func (c *Coordinator) handleNameserver(w http.ResponseWriter, r *http.Request, _ *dzdbapi.EpochState) {
	name, ok := dzdbapi.ParseName(w, r.PathValue("name"))
	if !ok {
		return
	}
	page, ok := dzdbapi.ParsePage(w, r, dzdbapi.MaxNameserverPage)
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
			results[i].resp, results[i].err = wholeNameserver(r.Context(), sh.data, name)
		}(i, sh)
	}
	wg.Wait()
	if r.Context().Err() != nil {
		return // the client is gone; its shard errors say nothing of the fleet
	}

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
		// A partial answer unsettles the fleet, so it is never cached.
		resp.Partial = true
		c.unsettle()
	}
	dzdbapi.WriteNameserverPage(w, page, &resp)
}

// wholeNameserver fetches one shard's answer for a nameserver with
// every domain the shard delegates to it, walking the shard's pages.
func wholeNameserver(ctx context.Context, cl *dzdbapi.Client, name dnsname.Name) (*dzdbapi.NameserverResponse, error) {
	resp, err := cl.Nameserver(ctx, name, "", 0)
	for err == nil && resp.NextCursor != "" {
		var page *dzdbapi.NameserverResponse
		if page, err = cl.Nameserver(ctx, name, resp.NextCursor, 0); err == nil {
			resp.Domains = append(resp.Domains, page.Domains...)
			resp.NextCursor = page.NextCursor
		}
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// handleDomain routes a domain lookup to the shard owning the
// domain's zone and relays the shard's answer.
func (c *Coordinator) handleDomain(w http.ResponseWriter, r *http.Request, _ *dzdbapi.EpochState) {
	name, ok := dzdbapi.ParseName(w, r.PathValue("name"))
	if !ok {
		return
	}
	c.proxyTo(w, r, c.shards[zonedb.ShardOf(name.TLD(), len(c.shards))])
}

// handleSnapshot routes a zone snapshot to the owning shard.
func (c *Coordinator) handleSnapshot(w http.ResponseWriter, r *http.Request, _ *dzdbapi.EpochState) {
	zone, ok := dzdbapi.ParseName(w, r.PathValue("zone"))
	if !ok {
		return
	}
	c.proxyTo(w, r, c.shards[zonedb.ShardOf(zone, len(c.shards))])
}

// proxyTo relays one request to its owning shard and the shard's
// status, content type and body back. The shard is asked for identity
// bytes and nothing else: validation, caching and compression are the
// coordinator's own serving layer's, on the fleet epoch, so the shard's
// ETag and X-Cache stay behind. The request's trace context goes along,
// so the shard's request log and span join the caller's trace.
func (c *Coordinator) proxyTo(w http.ResponseWriter, r *http.Request, sh *shard) {
	if !sh.isUp() {
		c.retryLater(w, CodeShardUnavailable, "shard %d owning this zone is unavailable", sh.id)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, sh.url+r.URL.RequestURI(), nil)
	if err != nil {
		dzdbapi.WriteError(w, http.StatusInternalServerError, dzdbapi.CodeInternal, "building shard request: %v", err)
		return
	}
	// An explicit identity also keeps the Go transport from asking for
	// gzip only to undo it.
	req.Header.Set("Accept-Encoding", "identity")
	trace.Inject(r.Context(), req.Header)
	resp, err := sh.proxy.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		c.retryLater(w, CodeShardUnavailable, "shard %d unreachable: %v", sh.id, err)
		return
	}
	defer resp.Body.Close()
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
