package dzdbapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/zonedb"
)

// testDB2 is testDB plus one extra domain and a later close day — the
// "next archive" a dzdbd re-ingest would Adopt.
func testDB2() *zonedb.DB {
	db := zonedb.New()
	db.DomainAdded("net", "whitecounty.net", d(0))
	db.DelegationAdded("net", "whitecounty.net", "ns2.internetemc.com", d(0))
	db.DelegationRemoved("net", "whitecounty.net", "ns2.internetemc.com", d(100))
	db.DelegationAdded("net", "whitecounty.net", "ns2.internetemc1aj2kdy.biz", d(100))
	db.DomainAdded("com", "internetemc.com", d(0))
	db.GlueAdded("com", "ns2.internetemc.com", d(0))
	db.DelegationAdded("com", "internetemc.com", "ns2.internetemc.com", d(0))
	db.GlueRemoved("com", "ns2.internetemc.com", d(100))
	db.DomainRemoved("com", "internetemc.com", d(100))
	db.DelegationRemoved("com", "internetemc.com", "ns2.internetemc.com", d(100))
	db.DomainAdded("com", "newcomer.com", d(201))
	db.DelegationAdded("com", "newcomer.com", "ns2.internetemc1aj2kdy.biz", d(201))
	db.Close(d(201))
	return db
}

func get(t *testing.T, url string, hdr ...string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// FuzzETagMatch: no If-None-Match value makes etagMatch panic, and one
// that lists the validator — strong or weak, anywhere in the list, under
// any salt — always matches it.
func FuzzETagMatch(f *testing.F) {
	f.Add(uint64(0), uint64(1), "/v1/stats", "")
	f.Add(uint64(0x9e3779b97f4a7c15), uint64(7), "/v1/zones?limit=1", `"e6-0000000000000000", W/"x"`)
	f.Add(uint64(1<<63), uint64(0), "", `*`)
	f.Add(^uint64(0), uint64(1<<63), "k", `,, W/ ,"`)
	f.Fuzz(func(t *testing.T, salt, epoch uint64, key, other string) {
		etag := makeETag(salt, epoch, key)
		etagMatch(other, etag)
		for _, header := range []string{
			etag,
			"W/" + etag,
			other + "," + etag,
			etag + " , " + other,
			other + ", W/" + etag + "," + other,
		} {
			if !etagMatch(header, etag) {
				t.Fatalf("If-None-Match %q does not match %s", header, etag)
			}
		}
	})
}

// TestETagStableWithinEpoch pins the validator's determinism: the same
// (epoch, route, params) always yields the same strong ETag, parameter
// order does not split it, and different params get different tags.
func TestETagStableWithinEpoch(t *testing.T) {
	srv := New(testDB())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	r1 := get(t, ts.URL+"/v1/stats")
	r2 := get(t, ts.URL+"/v1/stats")
	e1, e2 := r1.Header.Get("ETag"), r2.Header.Get("ETag")
	if e1 == "" || e1 != e2 {
		t.Fatalf("ETag not stable within epoch: %q then %q", e1, e2)
	}
	if !strings.HasPrefix(e1, `"e`) {
		t.Errorf("ETag %q is not the strong epoch form", e1)
	}

	a := get(t, ts.URL+"/v1/deltas?from="+d(100).String()+"&limit=5")
	b := get(t, ts.URL+"/v1/deltas?limit=5&from="+d(100).String())
	if a.Header.Get("ETag") == "" || a.Header.Get("ETag") != b.Header.Get("ETag") {
		t.Errorf("parameter order split the ETag: %q vs %q",
			a.Header.Get("ETag"), b.Header.Get("ETag"))
	}
	c := get(t, ts.URL+"/v1/deltas?from="+d(100).String()+"&limit=6")
	if c.Header.Get("ETag") == a.Header.Get("ETag") {
		t.Errorf("different params share ETag %q", c.Header.Get("ETag"))
	}
}

// TestETagSaltedPerServer: epoch numbers restart with the process, so a
// server restarted over other data can reach the epoch its predecessor
// served. Two servers over different databases at the same epoch issue
// different validators for one path, and one answers the other's with
// the full 200.
func TestETagSaltedPerServer(t *testing.T) {
	dbA, dbB := testDB(), testDB2()
	if a, b := dbA.View().Epoch(), dbB.View().Epoch(); a != b {
		t.Fatalf("epochs %d and %d: the test needs two databases at one epoch", a, b)
	}
	tsA := httptest.NewServer(New(dbA))
	t.Cleanup(tsA.Close)
	tsB := httptest.NewServer(New(dbB))
	t.Cleanup(tsB.Close)

	etagA := get(t, tsA.URL+"/v1/stats").Header.Get("ETag")
	etagB := get(t, tsB.URL+"/v1/stats").Header.Get("ETag")
	if etagA == "" || etagA == etagB {
		t.Fatalf("servers over different data share the validator %q", etagA)
	}
	resp := get(t, tsB.URL+"/v1/stats", "If-None-Match", etagA)
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("B answered A's validator with %d (%d bytes), want 200 with its body", resp.StatusCode, len(body))
	}
}

// TestConditionalRevalidation: If-None-Match with the current epoch's
// tag answers 304 with no body, and the middleware counts it as a
// revalidation rather than a hit or miss.
func TestConditionalRevalidation(t *testing.T) {
	srv := New(testDB())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	etag := get(t, ts.URL+"/v1/stats").Header.Get("ETag")
	resp := get(t, ts.URL+"/v1/stats", "If-None-Match", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match status = %d, want 304", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) != 0 {
		t.Errorf("304 carried %d body bytes", len(body))
	}
	// W/ prefixes and candidate lists also match.
	if r := get(t, ts.URL+"/v1/stats", "If-None-Match", `"bogus", W/`+etag); r.StatusCode != 304 {
		t.Errorf("list match status = %d, want 304", r.StatusCode)
	}
	reg := srv.Metrics()
	if got := reg.CounterVec(MetricCacheRequests, "", "route", "outcome").
		With("/v1/stats", "revalidated").Value(); got != 2 {
		t.Errorf("revalidated count = %d, want 2", got)
	}
}

// TestResponseCacheHit: the second identical request comes from the LRU
// (X-Cache: hit, identical body) and the stats move.
func TestResponseCacheHit(t *testing.T) {
	srv := New(testDB())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	r1 := get(t, ts.URL+"/v1/zones?limit=1")
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	b1, _ := io.ReadAll(r1.Body)
	r2 := get(t, ts.URL+"/v1/zones?limit=1")
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	b2, _ := io.ReadAll(r2.Body)
	if string(b1) != string(b2) {
		t.Fatalf("cached body diverged:\n%s\nvs\n%s", b1, b2)
	}
	if r1.Header.Get("Content-Type") != r2.Header.Get("Content-Type") {
		t.Errorf("cached Content-Type diverged")
	}
	st := srv.CacheStats()
	if st.Hits != 1 || st.Misses < 1 || st.Entries < 1 {
		t.Errorf("cache stats = %+v", st)
	}
	if st.HitRatio() <= 0 {
		t.Errorf("hit ratio = %v, want > 0", st.HitRatio())
	}
}

// TestAdoptFlipsETagAndCache is the invalidation story end to end:
// adopting a new archive flips the epoch, so every prior ETag stops
// matching and the cache starts the new epoch empty — a key that was
// hot before the Adopt misses once and carries the NEW epoch's body.
func TestAdoptFlipsETagAndCache(t *testing.T) {
	db := testDB()
	srv := New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	etag1 := get(t, ts.URL+"/v1/stats").Header.Get("ETag")
	get(t, ts.URL+"/v1/stats") // warm the cache
	if st := srv.CacheStats(); st.Hits != 1 {
		t.Fatalf("pre-adopt stats = %+v", st)
	}
	epoch1 := srv.CacheStats().Epoch

	db.Adopt(testDB2())

	resp := get(t, ts.URL+"/v1/stats")
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("post-adopt X-Cache = %q, want miss (the old epoch's bodies are gone)", got)
	}
	etag2 := resp.Header.Get("ETag")
	if etag2 == etag1 {
		t.Fatalf("ETag did not flip across Adopt: %q", etag1)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Domains != 3 {
		t.Errorf("post-adopt domains = %d, want 3", stats.Domains)
	}
	// The old validator no longer matches: a conditional request gets the
	// new representation, not a false 304.
	stale := get(t, ts.URL+"/v1/stats", "If-None-Match", etag1)
	if stale.StatusCode != http.StatusOK {
		t.Errorf("stale If-None-Match status = %d, want 200", stale.StatusCode)
	}
	if st := srv.CacheStats(); st.Epoch <= epoch1 {
		t.Errorf("cache epoch %d did not advance past %d", st.Epoch, epoch1)
	}
}

// TestTopNameservers covers the precomputed leaderboard: aggregate
// ordering, the limit window, and the error envelope.
func TestTopNameservers(t *testing.T) {
	srv := New(testDB())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	top := func(path string) (out TopNameserversResponse) {
		if err := json.Unmarshal(body(t, srv, path), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	all := top("/v1/top/nameservers")
	if len(all.Nameservers) != 2 {
		t.Fatalf("leaderboard = %+v", all.Nameservers)
	}
	first := all.Nameservers[0]
	if first.Nameserver != "ns2.internetemc.com" || first.Domains != 2 || first.DomainDays != 200 {
		t.Errorf("top entry = %+v", first)
	}
	if all.Nameservers[1].Domains != 1 || all.Nameservers[1].DomainDays != 101 {
		t.Errorf("second entry = %+v", all.Nameservers[1])
	}

	one := top("/v1/top/nameservers?limit=1")
	if len(one.Nameservers) != 1 || one.Nameservers[0].Nameserver != first.Nameserver {
		t.Errorf("limit=1 = %+v", one.Nameservers)
	}

	status, ae := rawError(t, ts.URL, "/v1/top/nameservers?limit=abc")
	if status != 400 || ae.Error.Code != CodeInvalidLimit {
		t.Errorf("bad limit = %d %q", status, ae.Error.Code)
	}
}

// TestCacheDisabled: SetCacheBytes(0) turns the LRU off but keeps the
// ETag/304 contract intact.
func TestCacheDisabled(t *testing.T) {
	srv := New(testDB())
	srv.SetCacheBytes(0)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	r1 := get(t, ts.URL+"/v1/stats")
	etag := r1.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag with caching disabled")
	}
	if xc := get(t, ts.URL+"/v1/stats").Header.Get("X-Cache"); xc != "" {
		t.Errorf("X-Cache = %q with caching disabled", xc)
	}
	if resp := get(t, ts.URL+"/v1/stats", "If-None-Match", etag); resp.StatusCode != 304 {
		t.Errorf("304 path broken without cache: status %d", resp.StatusCode)
	}
	if st := srv.CacheStats(); st != (CacheStats{}) {
		t.Errorf("disabled cache stats = %+v, want zero", st)
	}
}

// TestNeverClosedDBServesEmptyView pins what a server over a database
// that recorded events but never sealed them answers: what that
// database publishes — the empty view — not the writer's half-built
// generation.
func TestNeverClosedDBServesEmptyView(t *testing.T) {
	db := zonedb.New()
	db.DomainAdded("net", "whitecounty.net", d(0))
	db.DelegationAdded("net", "whitecounty.net", "ns2.internetemc.com", d(0))
	db.GlueAdded("com", "ns2.internetemc.com", d(0))
	srv := New(db)
	srv.SetShardIdentity(0, 1) // mounts /v1/internal/shard-info
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	resp := get(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") == "" {
		t.Fatalf("/v1/stats: status %d, ETag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Domains != 0 || stats.Nameservers != 0 || len(stats.Zones) != 0 {
		t.Errorf("stats of an unsealed database = %+v, want all zero", stats)
	}

	for _, path := range []string{"/v1/domains/whitecounty.net", "/v1/nameservers/ns2.internetemc.com", "/v1/deltas"} {
		if status, ae := rawError(t, ts.URL, path); status != http.StatusNotFound || ae.Error.Code != CodeNotFound {
			t.Errorf("GET %s = %d %q, want 404 %q", path, status, ae.Error.Code, CodeNotFound)
		}
	}

	info, err := c.ShardInfo(ctx)
	if err != nil {
		t.Fatalf("ShardInfo: %v", err)
	}
	if info.Ready || info.Epoch != 0 || info.CloseDay != "" || info.Domains != 0 {
		t.Errorf("shard-info of an unsealed database = %+v, want not ready and empty", info)
	}

	// Sealing publishes the events, and the same server serves them.
	db.Close(d(10))
	if _, err := c.Domain(ctx, "whitecounty.net"); err != nil {
		t.Errorf("after Close: %v", err)
	}
}
