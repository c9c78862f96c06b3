package dzdbapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestZonesPagination(t *testing.T) {
	c := startAPI(t)
	ctx := context.Background()

	all, err := c.Zones(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Zones) != 2 || all.NextCursor != "" {
		t.Fatalf("unpaginated zones = %+v", all)
	}

	p1, err := c.Zones(ctx, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Zones) != 1 || p1.Zones[0] != "com" || p1.NextCursor == "" {
		t.Fatalf("page 1 = %+v", p1)
	}
	p2, err := c.Zones(ctx, p1.NextCursor, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Zones) != 1 || p2.Zones[0] != "net" || p2.NextCursor != "" {
		t.Fatalf("page 2 = %+v", p2)
	}
}

func TestNameserverPagination(t *testing.T) {
	c := startAPI(t)
	ctx := context.Background()

	full, err := c.NameserverContext(ctx, "ns2.internetemc.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Domains) != 2 || full.NextCursor != "" {
		t.Fatalf("unpaginated = %+v", full)
	}

	var got []string
	cursor := ""
	for page := 0; ; page++ {
		resp, err := c.NameserverPage(ctx, "ns2.internetemc.com", cursor, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Domains) != 1 {
			t.Fatalf("page %d has %d domains", page, len(resp.Domains))
		}
		// The summary reflects the whole exposure on every page.
		if resp.Summary.Domains != 2 {
			t.Fatalf("page %d summary = %+v", page, resp.Summary)
		}
		got = append(got, resp.Domains[0].Domain)
		cursor = resp.NextCursor
		if cursor == "" {
			break
		}
		if page > 2 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("paged domains = %v", got)
	}
	for i, d := range full.Domains {
		if got[i] != d.Domain {
			t.Fatalf("paged order %v != unpaginated %+v", got, full.Domains)
		}
	}
}

// rawError hits path directly and decodes the v1 error envelope.
func rawError(t *testing.T, base, path string) (int, apiError) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ae apiError
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatalf("GET %s: non-envelope error body: %v", path, err)
	}
	return resp.StatusCode, ae
}

func TestErrorEnvelopeCodes(t *testing.T) {
	ts := httptest.NewServer(New(testDB()))
	t.Cleanup(ts.Close)

	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/zones?limit=abc", 400, "invalid_limit"},
		{"/v1/zones?limit=-1", 400, "invalid_limit"},
		{"/v1/zones?cursor=%21%21", 400, "invalid_cursor"},
		{"/v1/nameservers/ns2.internetemc.com?limit=x", 400, "invalid_limit"},
		{"/v1/domains/-bad-.com", 400, "invalid_name"},
		{"/v1/domains/ghost.com", 404, "not_found"},
		{"/v1/zones/com/snapshot?date=nope", 400, "invalid_date"},
		{"/v1/zones/xyz/snapshot?date=2016-07-15", 404, "not_found"},
		{"/v1/zones/com/snapshot?date=" + d(201).String(), 404, "not_found"}, // past the close day
	} {
		status, ae := rawError(t, ts.URL, tc.path)
		if status != tc.status || ae.Error.Code != tc.code {
			t.Errorf("GET %s = %d %q, want %d %q (message %q)",
				tc.path, status, ae.Error.Code, tc.status, tc.code, ae.Error.Message)
		}
		if ae.Error.Message == "" {
			t.Errorf("GET %s: empty error message", tc.path)
		}
	}
}

// TestServesReadsDuringAdopt is the PR's acceptance criterion at the API
// layer: clients keep getting complete, consistent answers while the
// served database is repeatedly swapped out underneath them (run under
// -race).
func TestServesReadsDuringAdopt(t *testing.T) {
	db := testDB()
	ts := httptest.NewServer(New(db))
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				stats, err := c.StatsContext(ctx)
				if err != nil {
					t.Errorf("stats during adopt: %v", err)
					return
				}
				if stats.Domains != 2 || stats.Nameservers != 2 {
					t.Errorf("inconsistent stats during adopt: %+v", stats)
					return
				}
				if _, err := c.DomainContext(ctx, "whitecounty.net"); err != nil {
					t.Errorf("domain during adopt: %v", err)
					return
				}
			}
		}()
	}
	// Rebuild an identical database from scratch and swap it in, over and
	// over — the dzdbd SIGHUP reload path.
	for i := 0; i < 25; i++ {
		db.Adopt(testDB())
	}
	close(stop)
	wg.Wait()
}
