package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// publish into; requests counts what the shard was asked.
type shardProc struct {
	srv      *httptest.Server
	db       *zonedb.DB
	down     atomic.Bool
	requests atomic.Int64
}

func startFleet(t *testing.T, db *zonedb.DB, n int) ([]string, []*shardProc) {
	t.Helper()
	urls := make([]string, n)
	procs := make([]*shardProc, n)
	for i := 0; i < n; i++ {
		p := &shardProc{db: db.View().FilterShard(i, n)}
		api := dzdbapi.New(p.db)
		api.SetShardIdentity(i, n)
		p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p.requests.Add(1)
			if p.down.Load() {
				http.Error(w, "shard killed", http.StatusBadGateway)
				return
			}
			api.ServeHTTP(w, r)
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
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	// Pin identity so transparent transport gzip cannot make two
	// equivalent servers look byte-different.
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, body
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
		page, err := sc.Zones(t.Context(), cursor, 2)
		if err != nil {
			t.Fatalf("Zones: %v", err)
		}
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
	top, err := sc.TopNameservers(t.Context(), 5)
	if err != nil {
		t.Fatalf("TopNameservers: %v", err)
	}
	if len(top.Nameservers) == 0 {
		t.Fatal("world produced no nameservers")
	}
	domains := 0
	for _, row := range top.Nameservers {
		wantSame(t, single.URL, ts.URL, "/v1/nameservers/"+row.Nameserver)
		wantSame(t, single.URL, ts.URL, "/v1/nameservers/"+row.Nameserver+"?limit=2")
		ns, err := sc.NameserverContext(t.Context(), dnsname.MustParse(row.Nameserver))
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
	// A day past the close day was not observed, through a node or the fleet.
	past := fmt.Sprintf("/v1/zones/%s/snapshot?date=%s", v.Zones()[0], v.CloseDay()+1)
	wantSame(t, single.URL, ts.URL, past)
	if status, _ := fetch(t, ts.URL+past); status != http.StatusNotFound {
		t.Errorf("%s through the coordinator: status %d, want 404", past, status)
	}

	// Unknown names answer identically too.
	wantSame(t, single.URL, ts.URL, "/v1/domains/never-registered.com")
	wantSame(t, single.URL, ts.URL, "/v1/nameservers/ns1.never-registered.com")

	// The merged delta feed matches the single-node feed day for day;
	// only the epoch legitimately differs (the coordinator stamps its
	// fleet epoch), so compare decoded pages with epochs normalized.
	cursor = ""
	for {
		q := "?limit=40"
		if cursor != "" {
			q += "&cursor=" + cursor
		}
		_, sb := fetch(t, single.URL+"/v1/deltas"+q)
		_, cb := fetch(t, ts.URL+"/v1/deltas"+q)
		var sr, cr dzdbapi.DeltasResponse
		if err := json.Unmarshal(sb, &sr); err != nil {
			t.Fatalf("decoding single feed: %v", err)
		}
		if err := json.Unmarshal(cb, &cr); err != nil {
			t.Fatalf("decoding merged feed: %v", err)
		}
		sr.Epoch, cr.Epoch = 0, 0
		if !reflect.DeepEqual(sr, cr) {
			t.Fatalf("delta page diverges at cursor %q:\n single %+v\n merged %+v", cursor, sr, cr)
		}
		if sr.NextCursor == "" {
			break
		}
		cursor = sr.NextCursor
	}
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
	if e.Funnel() != wantEngine.Funnel() {
		t.Fatalf("funnel diverges:\n merged %+v\n direct %+v", e.Funnel(), wantEngine.Funnel())
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
