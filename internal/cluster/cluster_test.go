package cluster_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dzdbapi"
	"repro/internal/faults"
	"repro/internal/obs/health"
	"repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/watch"
	"repro/internal/whois"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// The simulated world is immutable once built and every test only
// reads it (shard projections are fresh DBs), so all tests share one.
var (
	worldOnce sync.Once
	world     *sim.World
	worldErr  error
)

func testWorld(t *testing.T) *sim.World {
	t.Helper()
	worldOnce.Do(func() {
		cfg := sim.DefaultConfig(2)
		cfg.Seed = 1
		world, worldErr = sim.NewWorld(cfg)
		if worldErr == nil {
			worldErr = world.Run()
		}
	})
	if worldErr != nil {
		t.Fatalf("building world: %v", worldErr)
	}
	return world
}

// shardProc is one fleet member with a kill switch: down, it answers
// 502 to everything, which is what a crashed process behind a load
// balancer looks like to the coordinator. db is the shard's database, to
// publish into, and api the server in front of it, which restart
// replaces; requests counts what the shard was asked, and traceparent
// holds the last traceparent header a request carried.
type shardProc struct {
	srv         *httptest.Server
	db          *zonedb.DB
	api         atomic.Pointer[dzdbapi.Server]
	down        atomic.Bool
	requests    atomic.Int64
	traceparent atomic.Value
}

// restart replaces shard i of n with a new process over db, at the same
// URL: what an operator's restart on another archive looks like to the
// coordinator.
func (p *shardProc) restart(db *zonedb.DB, i, n int) {
	api := dzdbapi.New(db)
	api.SetShardIdentity(i, n)
	p.db = db
	p.api.Store(api)
}

func startFleet(t *testing.T, db *zonedb.DB, n int) ([]string, []*shardProc) {
	t.Helper()
	urls := make([]string, n)
	procs := make([]*shardProc, n)
	for i := 0; i < n; i++ {
		p := &shardProc{}
		p.restart(db.View().FilterShard(i, n), i, n)
		p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p.requests.Add(1)
			if tp := r.Header.Get("traceparent"); tp != "" {
				p.traceparent.Store(tp)
			}
			if p.down.Load() {
				http.Error(w, "shard killed", http.StatusBadGateway)
				return
			}
			p.api.Load().ServeHTTP(w, r)
		}))
		t.Cleanup(p.srv.Close)
		urls[i] = p.srv.URL
		procs[i] = p
	}
	return urls, procs
}

func newCoord(t *testing.T, urls []string) *cluster.Coordinator {
	t.Helper()
	c, err := cluster.New(cluster.Config{Shards: urls, Heartbeat: time.Second})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	if err := c.SyncNow(t.Context()); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	return c
}

func fetch(t *testing.T, url string) (int, []byte) {
	t.Helper()
	status, _, body := fetchHeader(t, url)
	return status, body
}

// decode fetches url, which must answer 200, into out.
func decode(t *testing.T, url string, out any) {
	t.Helper()
	status, body := fetch(t, url)
	if status != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, status, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// fetchHeader GETs url with the given header name/value pairs and
// returns the status, the response headers and the raw body. Unless the
// pairs set Accept-Encoding it asks for identity, so transparent
// transport gzip cannot make two equivalent servers look byte-different.
func fetchHeader(t *testing.T, url string, hdr ...string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Accept-Encoding", "identity")
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, body
}

// wantSame fails unless both servers answer the path with identical
// status and bytes.
func wantSame(t *testing.T, singleURL, coordURL, path string) {
	t.Helper()
	ss, sb := fetch(t, singleURL+path)
	cs, cb := fetch(t, coordURL+path)
	if ss != cs {
		t.Errorf("%s: single status %d, coordinator %d", path, ss, cs)
		return
	}
	if string(sb) != string(cb) {
		t.Errorf("%s: bodies diverge\n single: %.300s\n coord:  %.300s", path, sb, cb)
	}
}

// TestScatterGatherEquivalence is the acceptance criterion: a 2-shard
// fleet behind a coordinator answers every /v1 read byte-identically
// to a single dzdbd serving the same archive.
func TestScatterGatherEquivalence(t *testing.T) {
	w := testWorld(t)
	single := httptest.NewServer(dzdbapi.New(w.ZoneDB()))
	t.Cleanup(single.Close)
	urls, _ := startFleet(t, w.ZoneDB(), 2)
	coord := newCoord(t, urls)
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)

	wantSame(t, single.URL, ts.URL, "/v1/stats")
	wantSame(t, single.URL, ts.URL, "/v1/zones")
	wantSame(t, single.URL, ts.URL, "/v1/top/nameservers")
	wantSame(t, single.URL, ts.URL, "/v1/top/nameservers?limit=3")

	// Walk the paginated zone list in lockstep: every page, including
	// the merged cursors, must match.
	sc := &dzdbapi.Client{BaseURL: single.URL}
	cursor, pages := "", 0
	for {
		path := "/v1/zones?limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		wantSame(t, single.URL, ts.URL, path)
		var page dzdbapi.ZonesResponse
		decode(t, single.URL+path, &page)
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if pages < 2 {
		t.Fatalf("zone walk took %d pages; want a real pagination exercise", pages)
	}

	// Nameserver scatter-gather and single-zone domain routing, probed
	// with real names from the leaderboard.
	var top dzdbapi.TopNameserversResponse
	decode(t, single.URL+"/v1/top/nameservers?limit=5", &top)
	if len(top.Nameservers) == 0 {
		t.Fatal("world produced no nameservers")
	}
	domains := 0
	for _, row := range top.Nameservers {
		wantSame(t, single.URL, ts.URL, "/v1/nameservers/"+row.Nameserver)
		wantSame(t, single.URL, ts.URL, "/v1/nameservers/"+row.Nameserver+"?limit=2")
		ns, err := sc.Nameserver(t.Context(), dnsname.MustParse(row.Nameserver), "", 0)
		if err != nil {
			t.Fatalf("Nameserver(%s): %v", row.Nameserver, err)
		}
		for _, d := range ns.Domains {
			if domains >= 10 {
				break
			}
			wantSame(t, single.URL, ts.URL, "/v1/domains/"+d.Domain)
			domains++
		}
	}
	if domains == 0 {
		t.Fatal("no domains probed")
	}

	// Zone snapshots route to the owning shard and relay verbatim.
	v := w.ZoneDB().View()
	for _, zone := range v.Zones() {
		wantSame(t, single.URL, ts.URL,
			fmt.Sprintf("/v1/zones/%s/snapshot?date=%s", zone, v.CloseDay()))
	}
	// Compressed, too: the coordinator negotiates gzip itself, over the
	// identity bytes the shard sent it, into the node's bytes.
	for _, zone := range v.Zones()[:2] {
		wantSameGzip(t, single.URL, ts.URL, fmt.Sprintf("/v1/zones/%s/snapshot?date=%s", zone, v.CloseDay()))
	}
	// A day past the close day was not observed, through a node or the fleet.
	past := fmt.Sprintf("/v1/zones/%s/snapshot?date=%s", v.Zones()[0], v.CloseDay()+1)
	wantSame(t, single.URL, ts.URL, past)
	if status, _ := fetch(t, ts.URL+past); status != http.StatusNotFound {
		t.Errorf("%s through the coordinator: status %d, want 404", past, status)
	}

	// Unknown names answer identically too.
	wantSame(t, single.URL, ts.URL, "/v1/domains/never-registered.com")
	wantSame(t, single.URL, ts.URL, "/v1/nameservers/ns1.never-registered.com")

	// The merged delta feed matches the single-node feed day for day, in
	// both encodings; only the epoch legitimately differs (the
	// coordinator stamps its fleet epoch), so compare decoded pages with
	// epochs normalized.
	cursor = ""
	for {
		q := "?limit=40"
		if cursor != "" {
			q += "&cursor=" + cursor
		}
		var sr dzdbapi.DeltasResponse
		for _, gz := range []bool{false, true} {
			sb, cb := fetchBoth(t, single.URL, ts.URL, "/v1/deltas"+q, gz)
			var cr dzdbapi.DeltasResponse
			sr = dzdbapi.DeltasResponse{}
			if err := json.Unmarshal(sb, &sr); err != nil {
				t.Fatalf("decoding single feed: %v", err)
			}
			if err := json.Unmarshal(cb, &cr); err != nil {
				t.Fatalf("decoding merged feed: %v", err)
			}
			sr.Epoch, cr.Epoch = 0, 0
			if !reflect.DeepEqual(sr, cr) {
				t.Fatalf("delta page (gzip %v) diverges at cursor %q:\n single %+v\n merged %+v", gz, cursor, sr, cr)
			}
		}
		if sr.NextCursor == "" {
			break
		}
		cursor = sr.NextCursor
	}
}

// wantSameGzip fails unless both servers answer the path gzip-encoded,
// with identical compressed bytes.
func wantSameGzip(t *testing.T, singleURL, coordURL, path string) {
	t.Helper()
	ss, sh, sb := fetchHeader(t, singleURL+path, "Accept-Encoding", "gzip")
	cs, ch, cb := fetchHeader(t, coordURL+path, "Accept-Encoding", "gzip")
	if ss != http.StatusOK || cs != ss {
		t.Fatalf("%s gzip: single status %d, coordinator %d", path, ss, cs)
	}
	if sh.Get("Content-Encoding") != "gzip" || ch.Get("Content-Encoding") != "gzip" {
		t.Fatalf("%s: Content-Encoding single %q, coordinator %q; want gzip on both",
			path, sh.Get("Content-Encoding"), ch.Get("Content-Encoding"))
	}
	if !bytes.Equal(sb, cb) {
		t.Errorf("%s: gzip bodies diverge (%d vs %d bytes)", path, len(sb), len(cb))
	}
}

// fetchBoth returns the single node's and the coordinator's bodies for
// path: identity, or when gz is set both gzip-encoded and then inflated.
func fetchBoth(t *testing.T, singleURL, coordURL, path string, gz bool) (single, coord []byte) {
	t.Helper()
	if !gz {
		_, single = fetch(t, singleURL+path)
		_, coord = fetch(t, coordURL+path)
		return single, coord
	}
	inflate := func(url string) []byte {
		_, h, body := fetchHeader(t, url+path, "Accept-Encoding", "gzip")
		if h.Get("Content-Encoding") != "gzip" {
			t.Fatalf("%s%s: Content-Encoding %q, want gzip", url, path, h.Get("Content-Encoding"))
		}
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s%s: %v", url, path, err)
		}
		out, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s%s: %v", url, path, err)
		}
		return out
	}
	return inflate(singleURL), inflate(coordURL)
}

// TestNameserverGlueFromAnotherShard: glue lives in the host's own
// zone, delegations in the delegating domains' zones. When those are on
// different shards, the shard holding the glue holds no delegation to
// the host at all — and must still answer the scatter, or the merged
// response loses glue_spans (the defect bench/serve.go's body check
// found at scale 3 seed 20).
func TestNameserverGlueFromAnotherShard(t *testing.T) {
	zoneA, zoneB := partitionZones(t)
	host := dnsname.Name("ns1.hoster." + string(zoneA))
	spare := dnsname.Name("ns2.hoster." + string(zoneA))
	db := zonedb.New()
	db.DomainAdded(zoneA, dnsname.Name("hoster."+string(zoneA)), 10)
	db.GlueAdded(zoneA, host, 10)
	db.GlueAdded(zoneA, spare, 10) // glue nobody ever delegates to
	for _, cust := range []string{"alpha.", "beta."} {
		name := dnsname.Name(cust + string(zoneB))
		db.DomainAdded(zoneB, name, 20)
		db.DelegationAdded(zoneB, name, host, 20)
	}
	db.Close(100)

	single := httptest.NewServer(dzdbapi.New(db))
	t.Cleanup(single.Close)
	urls, _ := startFleet(t, db, 2)
	ts := httptest.NewServer(newCoord(t, urls))
	t.Cleanup(ts.Close)

	for _, ns := range []dnsname.Name{host, spare} {
		path := "/v1/nameservers/" + string(ns)
		status, body := fetch(t, single.URL+path)
		if status != http.StatusOK || !strings.Contains(string(body), `"glue_spans"`) {
			t.Fatalf("%s on the single node: status %d, body %s", path, status, body)
		}
		wantSame(t, single.URL, ts.URL, path)
	}
	wantSame(t, single.URL, ts.URL, "/v1/nameservers/"+string(host)+"?limit=1")
	// Neither delegation nor glue: still not found, on both.
	if status, _ := fetch(t, single.URL+"/v1/nameservers/ns3.hoster."+string(zoneA)); status != http.StatusNotFound {
		t.Errorf("unobserved nameserver on the single node: status %d, want 404", status)
	}
	wantSame(t, single.URL, ts.URL, "/v1/nameservers/ns3.hoster."+string(zoneA))
}

// partitionZones returns a zone on each side of a 2-way partition:
// zoneA on shard 0, zoneB on shard 1.
func partitionZones(t *testing.T) (zoneA, zoneB dnsname.Name) {
	t.Helper()
	for _, z := range []dnsname.Name{"com", "net", "org", "biz", "info", "us"} {
		switch {
		case zonedb.ShardOf(z, 2) == 0 && zoneA == "":
			zoneA = z
		case zonedb.ShardOf(z, 2) == 1 && zoneB == "":
			zoneB = z
		}
	}
	if zoneA == "" || zoneB == "" {
		t.Fatal("no candidate zones on both sides of the partition")
	}
	return zoneA, zoneB
}

// smallFleetDB is a history sealed at last with facts on both shards of
// a 2-way partition: a hoster in zoneA whose nameserver customers in
// zoneB delegate to, and from day 3 on one new zoneB domain a day.
func smallFleetDB(t *testing.T, last dates.Day) *zonedb.DB {
	t.Helper()
	zoneA, zoneB := partitionZones(t)
	host := dnsname.Name("ns1.hoster." + string(zoneA))
	db := zonedb.New()
	db.DomainAdded(zoneA, dnsname.Name("hoster."+string(zoneA)), 0)
	db.GlueAdded(zoneA, host, 0)
	db.DelegationAdded(zoneA, dnsname.Name("hoster."+string(zoneA)), host, 0)
	for _, cust := range []string{"alpha.", "beta."} {
		name := dnsname.Name(cust + string(zoneB))
		db.DomainAdded(zoneB, name, 1)
		db.DelegationAdded(zoneB, name, host, 1)
	}
	for d := dates.Day(3); d <= last; d++ {
		db.DomainAdded(zoneB, dnsname.Name(fmt.Sprintf("day%d.%s", d, zoneB)), d)
	}
	db.Close(last)
	return db
}

// TestNameserverBadPageAsksNoShard: a malformed ?cursor= or ?limit= is
// refused before the scatter — no shard is asked, and on a degraded
// fleet nothing is counted as a partial answer.
func TestNameserverBadPageAsksNoShard(t *testing.T) {
	zoneA, _ := partitionZones(t)
	host := "ns1.hoster." + string(zoneA)
	urls, procs := startFleet(t, smallFleetDB(t, 10), 2)
	coord := newCoord(t, urls)
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	partial := coord.Metrics().Counter(cluster.MetricPartial, "")
	shardRequests := func() int64 { return procs[0].requests.Load() + procs[1].requests.Load() }

	check := func(path, code string) {
		t.Helper()
		asked, marked := shardRequests(), partial.Value()
		status, body := fetch(t, ts.URL+path)
		var ae struct {
			Error dzdbapi.ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(body, &ae); err != nil || status != http.StatusBadRequest || ae.Error.Code != code {
			t.Errorf("%s: %d %s, want 400 %s", path, status, body, code)
		}
		if n := shardRequests() - asked; n != 0 {
			t.Errorf("%s: %d shard requests, want 0", path, n)
		}
		if n := partial.Value() - marked; n != 0 {
			t.Errorf("%s: partial counter moved by %d, want 0", path, n)
		}
	}
	check("/v1/nameservers/"+host+"?cursor=%21%21", dzdbapi.CodeInvalidCursor)
	check("/v1/nameservers/"+host+"?limit=-1", dzdbapi.CodeInvalidLimit)

	// With a shard down the same requests still ask nothing, while a
	// well-formed one is answered partial.
	procs[0].down.Store(true)
	if err := coord.SyncNow(t.Context()); err == nil {
		t.Fatal("SyncNow should report the dead shard")
	}
	check("/v1/nameservers/"+host+"?cursor=%21%21", dzdbapi.CodeInvalidCursor)
	check("/v1/nameservers/"+host+"?limit=x", dzdbapi.CodeInvalidLimit)
	marked := partial.Value()
	if status, _ := fetch(t, ts.URL+"/v1/nameservers/"+host+"?limit=1"); status != http.StatusOK {
		t.Errorf("well-formed request on a degraded fleet: status %d", status)
	}
	if partial.Value() != marked+1 {
		t.Error("a well-formed request on a degraded fleet must count as partial")
	}
}

// TestFollowerLongPollThroughCoordinator parks a caught-up follower on
// the coordinator's merged feed: the shards publish a new day, the next
// fleet sync releases the parked request with it, and the whole run
// costs a bounded number of feed requests — no poll-cadence loop.
func TestFollowerLongPollThroughCoordinator(t *testing.T) {
	urls, procs := startFleet(t, smallFleetDB(t, 10), 2)
	coord := newCoord(t, urls)
	var feedRequests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/deltas" {
			feedRequests.Add(1)
		}
		coord.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	var lastDay atomic.Int64
	f := &watch.Follower{
		Client:    &dzdbapi.Client{BaseURL: ts.URL},
		Engine:    watch.New(whois.New(), sim.StandardDirectory()),
		Mode:      watch.ModeLongPoll,
		Wait:      20 * time.Second,
		Poll:      20 * time.Second, // a poll-cadence fallback would stall the test
		OnApplied: func(day, _ dates.Day, _ int) { lastDay.Store(int64(day)) },
	}
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- f.Run(ctx) }()

	waitFor(t, "catch-up", func() bool { return lastDay.Load() == 10 })
	next := smallFleetDB(t, 11)
	for i, p := range procs {
		p.db.Adopt(next.View().FilterShard(i, 2))
	}
	if err := coord.SyncNow(t.Context()); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	waitFor(t, "the long-polled day", func() bool { return lastDay.Load() == 11 })

	// The catch-up pass, the parked request the sync released, and at
	// most the next park.
	if got := feedRequests.Load(); got > 4 {
		t.Errorf("feed requests = %d, want <= 4 (one parked request per fleet epoch)", got)
	}
	cancel()
	if err := <-runErr; !errors.Is(err, context.Canceled) {
		t.Errorf("Run = %v, want context.Canceled", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replayDirect applies the world's full delta index straight into a
// fresh engine — the ground truth the followed feeds must reproduce.
func replayDirect(t *testing.T, w *sim.World) ([]watch.Alert, *watch.Engine) {
	t.Helper()
	idx, err := delta.Build(w.ZoneDB().View())
	if err != nil {
		t.Fatalf("delta.Build: %v", err)
	}
	e := watch.New(w.WHOIS(), w.Directory())
	var alerts []watch.Alert
	for d := idx.First(); d <= idx.Last(); d++ {
		as, err := e.ApplyDay(idx.Day(d))
		if err != nil {
			t.Fatalf("ApplyDay(%s): %v", d, err)
		}
		alerts = append(alerts, as...)
	}
	return alerts, e
}

// follow tails url's delta feed to completion with an unchanged
// watch.Follower and returns the alert stream it produced.
func follow(t *testing.T, w *sim.World, url, mode string) ([]watch.Alert, *watch.Engine) {
	t.Helper()
	e := watch.New(w.WHOIS(), w.Directory())
	var alerts []watch.Alert
	f := &watch.Follower{
		Client: &dzdbapi.Client{
			BaseURL: url,
			Retry:   &faults.Policy{MaxAttempts: 5, BaseDelay: -1},
		},
		Engine:   e,
		OnAlert:  func(a watch.Alert) { alerts = append(alerts, a) },
		PageSize: 60, // many pages, so cursors and page boundaries are exercised
		Once:     true,
		Mode:     mode,
	}
	if err := f.Run(t.Context()); err != nil {
		t.Fatalf("Follower.Run (%s): %v", mode, err)
	}
	return alerts, e
}

// TestMergedFeedExactlyOnceAcrossShardLoss is the cluster acceptance
// criterion for the feed: an unchanged watch.Follower tailing the
// coordinator's merged /v1/deltas produces exactly the alert stream of
// a direct in-process replay — including while a shard is dead — and
// the fleet degrades and recovers visibly (readiness, partial
// envelopes, 503 on routes owned by the dead shard).
func TestMergedFeedExactlyOnceAcrossShardLoss(t *testing.T) {
	w := testWorld(t)
	want, wantEngine := replayDirect(t, w)
	if wantEngine.LastDay() == dates.None {
		t.Fatal("direct replay applied nothing")
	}

	urls, procs := startFleet(t, w.ZoneDB(), 2)
	coord, err := cluster.New(cluster.Config{Shards: urls, Heartbeat: time.Second})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	h := health.NewRegistry()
	coord.RegisterHealth(h)
	if ok, sts := h.Readiness(); ok {
		t.Fatalf("ready before first sync: %+v", sts)
	}
	if err := coord.SyncNow(t.Context()); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	if ok, sts := h.Readiness(); !ok {
		t.Fatalf("not ready after sync: %+v", sts)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)

	// Healthy fleet: the paged walk, polled and long-polled, reproduces
	// the direct replay alert for alert.
	got, e := follow(t, w, ts.URL, watch.ModePoll)
	if e.LastDay() != wantEngine.LastDay() {
		t.Fatalf("follower stopped at %s, want %s", e.LastDay(), wantEngine.LastDay())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged feed alerts diverge: got %d, want %d", len(got), len(want))
	}
	var gotState, wantState bytes.Buffer
	if err := e.Save(&gotState); err != nil {
		t.Fatal(err)
	}
	if err := wantEngine.Save(&wantState); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState.Bytes(), wantState.Bytes()) {
		t.Fatalf("engine state diverges: merged checkpoint %d bytes, direct %d", gotState.Len(), wantState.Len())
	}
	gotLong, _ := follow(t, w, ts.URL, watch.ModeLongPoll)
	if !reflect.DeepEqual(gotLong, want) {
		t.Fatalf("long-polled feed alerts diverge: got %d, want %d", len(gotLong), len(want))
	}

	// Kill shard 0. The coordinator marks the fleet degraded (readiness
	// 503, partial envelopes) but keeps serving the merged feed from the
	// last complete sync — a fresh follower still gets every day,
	// exactly once.
	procs[0].down.Store(true)
	if err := coord.SyncNow(t.Context()); err == nil {
		t.Fatal("SyncNow should report the dead shard")
	}
	if ok, _ := h.Readiness(); ok {
		t.Fatal("readiness should degrade with a shard down")
	}
	status, body := fetch(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("degraded stats status = %d", status)
	}
	var stats dzdbapi.StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("decoding degraded stats: %v", err)
	}
	if !stats.Partial {
		t.Error("degraded stats must carry partial: true")
	}
	gotDown, eDown := follow(t, w, ts.URL, watch.ModePoll)
	if eDown.LastDay() != wantEngine.LastDay() || !reflect.DeepEqual(gotDown, want) {
		t.Fatalf("feed with dead shard diverges: applied to %s, %d alerts (want %s, %d)",
			eDown.LastDay(), len(gotDown), wantEngine.LastDay(), len(want))
	}

	// A single-zone route owned by the dead shard sheds retryably.
	v := w.ZoneDB().View()
	var deadZone, liveZone string
	for _, z := range v.Zones() {
		if zonedb.ShardOf(z, 2) == 0 {
			deadZone = string(z)
		} else {
			liveZone = string(z)
		}
	}
	if deadZone == "" || liveZone == "" {
		t.Fatalf("partition has an empty side: zones %v", v.Zones())
	}
	status, _ = fetch(t, fmt.Sprintf("%s/v1/zones/%s/snapshot?date=%s", ts.URL, deadZone, v.CloseDay()))
	if status != http.StatusServiceUnavailable {
		t.Errorf("snapshot on dead shard status = %d, want 503", status)
	}
	status, _ = fetch(t, fmt.Sprintf("%s/v1/zones/%s/snapshot?date=%s", ts.URL, liveZone, v.CloseDay()))
	if status != http.StatusOK {
		t.Errorf("snapshot on live shard status = %d, want 200", status)
	}

	// Restart the shard: one heartbeat round re-admits it, readiness
	// recovers, and envelopes drop the partial mark.
	procs[0].down.Store(false)
	if err := coord.SyncNow(t.Context()); err != nil {
		t.Fatalf("SyncNow after recovery: %v", err)
	}
	if ok, sts := h.Readiness(); !ok {
		t.Fatalf("not ready after recovery: %+v", sts)
	}
	_, body = fetch(t, ts.URL+"/v1/stats")
	stats = dzdbapi.StatsResponse{}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("decoding recovered stats: %v", err)
	}
	if stats.Partial {
		t.Error("recovered stats must not carry partial: true")
	}
	status, _ = fetch(t, fmt.Sprintf("%s/v1/zones/%s/snapshot?date=%s", ts.URL, deadZone, v.CloseDay()))
	if status != http.StatusOK {
		t.Errorf("snapshot after recovery status = %d, want 200", status)
	}
}

// TestCoordinatorRejectsMisconfiguredShard: a fleet member reporting
// the wrong partition identity is never admitted — serving the wrong
// slice silently would corrupt every fleet-wide answer.
func TestCoordinatorRejectsMisconfiguredShard(t *testing.T) {
	w := testWorld(t)
	// Shard 1 wrongly believes it is shard 0 of 3.
	good := dzdbapi.New(w.ZoneDB().View().FilterShard(0, 2))
	good.SetShardIdentity(0, 2)
	bad := dzdbapi.New(w.ZoneDB().View().FilterShard(1, 2))
	bad.SetShardIdentity(0, 3)
	ts0 := httptest.NewServer(good)
	t.Cleanup(ts0.Close)
	ts1 := httptest.NewServer(bad)
	t.Cleanup(ts1.Close)

	coord, err := cluster.New(cluster.Config{Shards: []string{ts0.URL, ts1.URL}, Heartbeat: time.Second})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	if err := coord.SyncNow(t.Context()); err == nil {
		t.Fatal("SyncNow must refuse a misconfigured shard")
	}
	sts := coord.Shards()
	if sts[1].Ready || sts[1].Err == "" {
		t.Fatalf("misconfigured shard admitted: %+v", sts[1])
	}
}

// TestNotSyncedBeforeFirstFleetSync: fleet-wide routes shed retryably
// (503 + Retry-After) until the coordinator completes its first sync.
func TestNotSyncedBeforeFirstFleetSync(t *testing.T) {
	w := testWorld(t)
	urls, _ := startFleet(t, w.ZoneDB(), 2)
	coord, err := cluster.New(cluster.Config{Shards: urls, Heartbeat: time.Second})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	for _, path := range []string{"/v1/stats", "/v1/zones", "/v1/top/nameservers", "/v1/deltas"} {
		status, _ := fetch(t, ts.URL+path)
		if status != http.StatusServiceUnavailable {
			t.Errorf("%s before sync: status %d, want 503", path, status)
		}
	}
}

// TestFleetEpochServesWithoutShards: on a settled fleet a repeated
// proxied, scatter-gathered or merged request comes out of the
// coordinator's cache, and its fleet ETag revalidates to 304, without a
// shard being asked.
func TestFleetEpochServesWithoutShards(t *testing.T) {
	zoneA, zoneB := partitionZones(t)
	urls, procs := startFleet(t, smallFleetDB(t, 10), 2)
	ts := httptest.NewServer(newCoord(t, urls))
	t.Cleanup(ts.Close)
	shardRequests := func() int64 { return procs[0].requests.Load() + procs[1].requests.Load() }

	for _, path := range []string{
		"/v1/domains/alpha." + string(zoneB),
		"/v1/nameservers/ns1.hoster." + string(zoneA),
		"/v1/deltas?limit=3",
	} {
		status, h, first := fetchHeader(t, ts.URL+path)
		etag := h.Get("ETag")
		if status != http.StatusOK || etag == "" {
			t.Fatalf("%s: status %d, ETag %q", path, status, etag)
		}
		asked := shardRequests()
		status, h, again := fetchHeader(t, ts.URL+path)
		if status != http.StatusOK || h.Get("X-Cache") != "hit" || !bytes.Equal(again, first) {
			t.Errorf("%s repeated: status %d, X-Cache %q, same body %v", path, status, h.Get("X-Cache"), bytes.Equal(again, first))
		}
		status, h, body := fetchHeader(t, ts.URL+path, "If-None-Match", etag)
		if status != http.StatusNotModified || h.Get("ETag") != etag || len(body) != 0 {
			t.Errorf("%s revalidated: status %d, ETag %q, %d body bytes; want 304 %s", path, status, h.Get("ETag"), len(body), etag)
		}
		if n := shardRequests() - asked; n != 0 {
			t.Errorf("%s: the hit and the 304 asked %d shard requests, want 0", path, n)
		}
	}
}

// cachedETags fetches each path from the coordinator at base until it
// is served from the cache, and returns the validators it was served
// under.
func cachedETags(t *testing.T, base string, paths []string) map[string]string {
	t.Helper()
	etags := make(map[string]string)
	for _, path := range paths {
		fetchHeader(t, base+path) // fill the cache
		_, h, _ := fetchHeader(t, base+path)
		if h.Get("X-Cache") != "hit" {
			t.Fatalf("%s: X-Cache %q, want hit", path, h.Get("X-Cache"))
		}
		etags[path] = h.Get("ETag")
	}
	return etags
}

// wantMovedOn fails unless the coordinator at base serves each path as
// the reference at ref does, under a new validator, and answers the old
// one with the new bytes.
func wantMovedOn(t *testing.T, base, ref string, etags map[string]string, when string) {
	t.Helper()
	for path, old := range etags {
		status, h, body := fetchHeader(t, base+path)
		_, want := fetch(t, ref+path)
		if status != http.StatusOK || !bytes.Equal(body, want) {
			t.Errorf("%s %s: status %d, body %s; want %s", path, when, status, body, want)
		}
		if etag := h.Get("ETag"); etag == "" || etag == old {
			t.Errorf("%s %s: ETag %q, want a new one (was %q)", path, when, etag, old)
		}
		if status, _, _ := fetchHeader(t, base+path, "If-None-Match", old); status != http.StatusOK {
			t.Errorf("%s %s: the old validator got %d, want 200", path, when, status)
		}
	}
}

// TestShardPublishWithinOneHeartbeat pins the freshness bound: after a
// shard publishes, the coordinator's next heartbeat serves the new bytes
// live, and the sync that follows moves the ETag to the new fleet epoch.
func TestShardPublishWithinOneHeartbeat(t *testing.T) {
	_, zoneB := partitionZones(t)
	urls, procs := startFleet(t, smallFleetDB(t, 10), 2)
	coord := newCoord(t, urls)
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	next := smallFleetDB(t, 11)
	ref := httptest.NewServer(dzdbapi.New(next))
	t.Cleanup(ref.Close)
	path := "/v1/domains/day5." + string(zoneB)
	etags := cachedETags(t, ts.URL, []string{path, "/v1/stats"})

	for i, p := range procs {
		p.db.Adopt(next.View().FilterShard(i, 2))
	}
	coord.HeartbeatOnce(t.Context())
	status, h, body := fetchHeader(t, ts.URL+path)
	_, want := fetch(t, ref.URL+path)
	if status != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("%s after the heartbeat: status %d, body %s; want the published %s", path, status, body, want)
	}
	if h.Get("ETag") != "" || h.Get("X-Cache") != "" {
		t.Errorf("%s between publish and sync: ETag %q, X-Cache %q; want a live answer", path, h.Get("ETag"), h.Get("X-Cache"))
	}
	if status, _, _ := fetchHeader(t, ts.URL+path, "If-None-Match", etags[path]); status != http.StatusOK {
		t.Errorf("%s: the old validator got %d between publish and sync, want 200", path, status)
	}

	if err := coord.SyncNow(t.Context()); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	wantMovedOn(t, ts.URL, ref.URL, etags, "after the sync")
}

// TestShardRestartedAtSameEpoch: epochs are numbered per process, so a
// shard restarted on another archive can come back on the epoch number
// it had. The coordinator tells the two processes apart, syncs again and
// moves to a new fleet epoch: the restarted shard's bytes are served,
// proxied and fleet-wide, under new validators.
func TestShardRestartedAtSameEpoch(t *testing.T) {
	_, zoneB := partitionZones(t)
	urls, procs := startFleet(t, smallFleetDB(t, 10), 2)
	coord := newCoord(t, urls)
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	next := smallFleetDB(t, 11)
	ref := httptest.NewServer(dzdbapi.New(next))
	t.Cleanup(ref.Close)
	etags := cachedETags(t, ts.URL, []string{"/v1/domains/day5." + string(zoneB), "/v1/stats"})

	owner := zonedb.ShardOf(zoneB, 2)
	db := next.View().FilterShard(owner, 2)
	if was, now := procs[owner].db.View().Epoch(), db.View().Epoch(); was != now {
		t.Fatalf("restarted shard is on epoch %d, was on %d; the test needs the same number", now, was)
	}
	procs[owner].restart(db, owner, 2)
	if err := coord.SyncNow(t.Context()); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	wantMovedOn(t, ts.URL, ref.URL, etags, "after the restart")
}

// TestDegradedFleetServesLive: with a shard down, fleet answers are
// partial, and a partial answer is neither served from the cache nor
// stored in it, nor a 304 to the healthy fleet's validator. Once the
// shard is back the fleet settles on the same epoch: the healthy bytes
// and validators serve again, and nothing partial was kept.
func TestDegradedFleetServesLive(t *testing.T) {
	zoneA, _ := partitionZones(t)
	urls, procs := startFleet(t, smallFleetDB(t, 10), 2)
	coord := newCoord(t, urls)
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	paths := []string{"/v1/stats", "/v1/nameservers/ns1.hoster." + string(zoneA)}
	healthy := make(map[string][]byte)
	etags := make(map[string]string)
	for _, path := range paths {
		_, h, body := fetchHeader(t, ts.URL+path)
		healthy[path], etags[path] = body, h.Get("ETag")
	}
	partial := func(body []byte) bool {
		var v struct {
			Partial bool `json:"partial"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		return v.Partial
	}

	// A scatter that finds the shard dead before any heartbeat has is
	// partial, and unsettles the fleet rather than caching that answer or
	// stamping it with the healthy fleet's validator.
	procs[0].down.Store(true)
	early := paths[1] + "?limit=1"
	status, h, body := fetchHeader(t, ts.URL+early)
	if status != http.StatusOK || !partial(body) {
		t.Errorf("%s with an undetected dead shard: status %d, body %s; want 200 partial", early, status, body)
	}
	earlyTag := h.Get("ETag")
	if earlyTag != "" || h.Get("X-Cache") != "" {
		t.Errorf("%s with an undetected dead shard: ETag %q, X-Cache %q; want a live answer", early, earlyTag, h.Get("X-Cache"))
	}
	paths = append(paths, early)

	if err := coord.SyncNow(t.Context()); err == nil {
		t.Fatal("SyncNow should report the dead shard")
	}
	for _, path := range paths {
		for i := 0; i < 2; i++ {
			status, h, body := fetchHeader(t, ts.URL+path, "If-None-Match", etags[path])
			if status != http.StatusOK || !partial(body) {
				t.Errorf("%s degraded: status %d, body %s; want 200 partial", path, status, body)
			}
			if h.Get("X-Cache") != "" || h.Get("ETag") != "" {
				t.Errorf("%s degraded: X-Cache %q, ETag %q; want a live answer", path, h.Get("X-Cache"), h.Get("ETag"))
			}
		}
	}

	procs[0].down.Store(false)
	if err := coord.SyncNow(t.Context()); err != nil {
		t.Fatalf("SyncNow after recovery: %v", err)
	}
	if status, _, body := fetchHeader(t, ts.URL+early); status != http.StatusOK || partial(body) {
		t.Errorf("%s recovered: status %d, body %s; want the whole answer", early, status, body)
	}
	if earlyTag != "" {
		if status, _, _ := fetchHeader(t, ts.URL+early, "If-None-Match", earlyTag); status == http.StatusNotModified {
			t.Errorf("%s recovered: the partial answer's validator %s got 304", early, earlyTag)
		}
	}
	for _, path := range paths[:2] {
		status, h, body := fetchHeader(t, ts.URL+path)
		if status != http.StatusOK || partial(body) || !bytes.Equal(body, healthy[path]) || h.Get("ETag") != etags[path] {
			t.Errorf("%s recovered: status %d, ETag %q, body %s; want the healthy %s under %s",
				path, status, h.Get("ETag"), body, healthy[path], etags[path])
		}
		if status, _, _ := fetchHeader(t, ts.URL+path, "If-None-Match", etags[path]); status != http.StatusNotModified {
			t.Errorf("%s recovered: the healthy validator got %d, want 304", path, status)
		}
	}
}

// TestTraceAcrossCoordinatorHop: a traceparent sent to the coordinator
// gets the serving layer's span and request log line, and travels on to
// the shards the coordinator asks — the owning shard of a proxied
// route, every shard of a scatter.
func TestTraceAcrossCoordinatorHop(t *testing.T) {
	zoneA, zoneB := partitionZones(t)
	urls, procs := startFleet(t, smallFleetDB(t, 10), 2)
	var logBuf bytes.Buffer
	coord, err := cluster.New(cluster.Config{Shards: urls, Heartbeat: time.Second,
		Log: slog.New(slog.NewTextHandler(&logBuf, nil))})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	if err := coord.SyncNow(t.Context()); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	tracer := trace.New()
	coord.Tracer = tracer
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)

	for i, c := range []struct {
		path   string
		shards []int
	}{
		{"/v1/domains/alpha." + string(zoneB), []int{1}},
		{"/v1/nameservers/ns1.hoster." + string(zoneA), []int{0, 1}},
	} {
		traceID := fmt.Sprintf("%032x", 0xabc0+i)
		fetchHeader(t, ts.URL+c.path, "traceparent", "00-"+traceID+"-00000000000000f1-01")
		for _, n := range c.shards {
			tp, _ := procs[n].traceparent.Load().(string)
			sc, ok := trace.ParseTraceparent(tp)
			if !ok || sc.TraceID.String() != traceID {
				t.Errorf("%s: shard %d saw traceparent %q, want trace %s", c.path, n, tp, traceID)
			}
		}
		if !strings.Contains(logBuf.String(), "trace_id="+traceID) {
			t.Errorf("%s: the coordinator's request log lost trace %s:\n%s", c.path, traceID, logBuf.String())
		}
		found := false
		for _, rec := range tracer.Records() {
			found = found || rec.TraceID == traceID
		}
		if !found {
			t.Errorf("%s: no coordinator span in trace %s", c.path, traceID)
		}
	}
}
