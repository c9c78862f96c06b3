package dzdbapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/zonedb"
)

func d(n int) dates.Day { return dates.Day(n) }

func testDB() *zonedb.DB {
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
	db.Close(d(200))
	return db
}

func startAPI(t *testing.T) *Client {
	t.Helper()
	srv := httptest.NewServer(New(testDB()))
	t.Cleanup(srv.Close)
	return &Client{BaseURL: srv.URL}
}

func TestStats(t *testing.T) {
	c := startAPI(t)
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Domains != 2 || stats.Nameservers != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(stats.Zones) != 2 || stats.Zones[0] != "com" {
		t.Fatalf("zones = %v", stats.Zones)
	}
}

func TestDomainHistory(t *testing.T) {
	c := startAPI(t)
	resp, err := c.Domain("WHITECOUNTY.NET") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.NSHistory) != 2 {
		t.Fatalf("history = %+v", resp.NSHistory)
	}
	// The original NS was last seen the day before the sacrificial one
	// appeared — the exact query §3.2.3 performs.
	var origLast, sacFirst string
	for _, h := range resp.NSHistory {
		if h.Nameserver == "ns2.internetemc.com" {
			origLast = h.Spans[len(h.Spans)-1].Last
		}
		if h.Nameserver == "ns2.internetemc1aj2kdy.biz" {
			sacFirst = h.Spans[0].First
		}
	}
	lastDay, _ := dates.Parse(origLast)
	firstDay, _ := dates.Parse(sacFirst)
	if firstDay != lastDay+1 {
		t.Fatalf("history discontinuity: %s then %s", origLast, sacFirst)
	}
}

func TestNameserver(t *testing.T) {
	c := startAPI(t)
	resp, err := c.Nameserver("ns2.internetemc1aj2kdy.biz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.FirstSeen != d(100).String() {
		t.Errorf("first seen = %s", resp.FirstSeen)
	}
	if resp.Summary.Domains != 1 || resp.Summary.DomainDays != 101 {
		t.Errorf("summary = %+v", resp.Summary)
	}
	if len(resp.GlueSpans) != 0 {
		t.Errorf("sacrificial NS should have no glue: %+v", resp.GlueSpans)
	}
	withGlue, err := c.Nameserver("ns2.internetemc.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(withGlue.GlueSpans) != 1 {
		t.Errorf("glue spans = %+v", withGlue.GlueSpans)
	}
}

func TestNotFoundAndBadRequest(t *testing.T) {
	c := startAPI(t)
	if _, err := c.Domain("ghost.com"); err == nil {
		t.Error("missing domain should 404")
	} else if ae, ok := err.(*APIError); !ok || ae.Status != 404 {
		t.Errorf("err = %v", err)
	}
	if _, err := c.Nameserver("never.seen.biz"); err == nil {
		t.Error("missing NS should 404")
	}
	if _, err := c.Domain("-bad-.com"); err == nil {
		t.Error("invalid name should 400")
	} else if ae, ok := err.(*APIError); !ok || ae.Status != 400 {
		t.Errorf("err = %v", err)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	c := startAPI(t)
	body, err := c.Snapshot("net", d(50).String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "$ORIGIN net.") || !strings.Contains(body, "ns2.internetemc.com.") {
		t.Fatalf("snapshot body:\n%s", body)
	}
	if _, err := c.Snapshot("net", "not-a-date"); err == nil {
		t.Error("bad date should fail")
	}
	if _, err := c.Snapshot("org", d(50).String()); err == nil {
		t.Error("unknown zone should 404")
	}
}

// TestMiddlewareRecordsRequests drives real requests through the server
// and checks each lands exactly one observation under its route pattern
// (not the raw URL) with the right status class.
func TestMiddlewareRecordsRequests(t *testing.T) {
	srv := New(testDB())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}

	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Domain("whitecounty.net"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Domain("ghost.com"); err == nil {
		t.Fatal("expected 404")
	}

	// The unversioned routes are retired: nothing is mounted there, so
	// the request never reaches the middleware.
	if resp, err := ts.Client().Get(ts.URL + "/stats"); err != nil {
		t.Fatal(err)
	} else {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("retired /stats status = %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}

	reg := srv.Metrics()
	requests := reg.CounterVec(MetricRequests, "", "route", "class")
	if got := requests.With("/v1/stats", "2xx").Value(); got != 1 {
		t.Errorf("stats 2xx = %d, want 1", got)
	}
	if got := requests.With("/v1/domains/{name}", "2xx").Value(); got != 1 {
		t.Errorf("domains 2xx = %d, want 1", got)
	}
	if got := requests.With("/v1/domains/{name}", "4xx").Value(); got != 1 {
		t.Errorf("domains 4xx = %d, want 1", got)
	}
	latency := reg.HistogramVec(MetricRequestSeconds, "", nil, "route")
	if got := latency.With("/v1/domains/{name}").Count(); got != 2 {
		t.Errorf("domains latency observations = %d, want 2", got)
	}
	if got := latency.With("/v1/stats").Count(); got != 1 {
		t.Errorf("stats latency observations = %d, want 1", got)
	}

	var buf strings.Builder
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`dzdb_http_requests_total{route="/v1/domains/{name}",class="4xx"} 1`,
		`dzdb_http_request_seconds_bucket{route="/v1/stats",le="+Inf"} 1`,
	} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("exposition missing %q:\n%s", frag, buf.String())
		}
	}
}
