package dzdbapi

import (
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dnsname"
)

func mustName(t *testing.T, s string) dnsname.Name {
	t.Helper()
	n, err := dnsname.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%s): %v", s, err)
	}
	return n
}

// TestGzipNegotiation covers the compression satellite end to end on
// the snapshot route: Accept-Encoding negotiation, Vary, an
// encoding-aware ETag, and the cached compressed variant.
func TestGzipNegotiation(t *testing.T) {
	srv := New(testDB())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	url := ts.URL + "/v1/zones/com/snapshot?date=" + d(50).String()

	// An unadorned Go client silently negotiates gzip (transparent
	// transport mode), so pin the identity variant explicitly.
	plain := get(t, url, "Accept-Encoding", "identity")
	if plain.Header.Get("Content-Encoding") != "" {
		t.Fatalf("identity response carries Content-Encoding %q", plain.Header.Get("Content-Encoding"))
	}
	if got := plain.Header.Get("Vary"); !strings.Contains(got, "Accept-Encoding") {
		t.Errorf("identity Vary = %q, want Accept-Encoding", got)
	}
	plainBody, _ := io.ReadAll(plain.Body)

	// Setting Accept-Encoding by hand disables the Go transport's
	// transparent decompression, so we see the wire representation.
	gz := get(t, url, "Accept-Encoding", "gzip")
	if got := gz.Header.Get("Content-Encoding"); got != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", got)
	}
	if got := gz.Header.Get("Vary"); !strings.Contains(got, "Accept-Encoding") {
		t.Errorf("gzip Vary = %q, want Accept-Encoding", got)
	}
	zr, err := gzip.NewReader(gz.Body)
	if err != nil {
		t.Fatalf("gzip.NewReader: %v", err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("reading gzip body: %v", err)
	}
	if string(unzipped) != string(plainBody) {
		t.Errorf("gzip body decodes to %d bytes, identity is %d bytes", len(unzipped), len(plainBody))
	}

	// The two variants must not share a validator.
	pe, ge := plain.Header.Get("ETag"), gz.Header.Get("ETag")
	if pe == "" || ge == "" || pe == ge {
		t.Errorf("encoding-unaware ETags: identity %q, gzip %q", pe, ge)
	}

	// The compressed variant is cached and revalidates against its own tag.
	gz2 := get(t, url, "Accept-Encoding", "gzip")
	if got := gz2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second gzip request X-Cache = %q, want hit", got)
	}
	if got := gz2.Header.Get("Content-Encoding"); got != "gzip" {
		t.Errorf("cached variant Content-Encoding = %q, want gzip", got)
	}
	cond := get(t, url, "Accept-Encoding", "gzip", "If-None-Match", ge)
	if cond.StatusCode != http.StatusNotModified {
		t.Errorf("gzip If-None-Match status = %d, want 304", cond.StatusCode)
	}
	// The gzip tag must NOT revalidate the identity variant.
	cross := get(t, url, "If-None-Match", ge, "Accept-Encoding", "identity")
	if cross.StatusCode != http.StatusOK {
		t.Errorf("identity request with gzip tag status = %d, want 200", cross.StatusCode)
	}
}

// TestGzipDeltasAndQValues: the delta feed compresses too, wildcard and
// q-value forms negotiate correctly, and q=0 refuses gzip.
func TestGzipDeltasAndQValues(t *testing.T) {
	srv := New(testDB())
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	url := ts.URL + "/v1/deltas?limit=5"

	if got := get(t, url, "Accept-Encoding", "gzip;q=0.5, br").Header.Get("Content-Encoding"); got != "gzip" {
		t.Errorf("q=0.5 Content-Encoding = %q, want gzip", got)
	}
	if got := get(t, url, "Accept-Encoding", "*").Header.Get("Content-Encoding"); got != "gzip" {
		t.Errorf("wildcard Content-Encoding = %q, want gzip", got)
	}
	if got := get(t, url, "Accept-Encoding", "gzip;q=0").Header.Get("Content-Encoding"); got != "" {
		t.Errorf("q=0 Content-Encoding = %q, want identity", got)
	}
	// Small-body routes never compress regardless of negotiation.
	if got := get(t, ts.URL+"/v1/stats", "Accept-Encoding", "gzip").Header.Get("Content-Encoding"); got != "" {
		t.Errorf("/v1/stats Content-Encoding = %q, want identity", got)
	}
}

// TestShardInternalEndpoints covers the shard-to-coordinator surface:
// shard-info identity/epoch/readiness and the paginated exposure table.
func TestShardInternalEndpoints(t *testing.T) {
	srv := New(testDB())
	srv.SetShardIdentity(1, 2)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}
	ctx := t.Context()

	info, err := c.ShardInfo(ctx)
	if err != nil {
		t.Fatalf("ShardInfo: %v", err)
	}
	if info.ShardID != 1 || info.ShardCount != 2 {
		t.Errorf("shard identity = %d/%d, want 1/2", info.ShardID, info.ShardCount)
	}
	if !info.Ready || info.Epoch == 0 || info.CloseDay != d(200).String() {
		t.Errorf("shard info = %+v, want ready at close day %s", info, d(200))
	}
	if info.Domains != 2 || info.Zones != 2 {
		t.Errorf("shard counts = %d domains / %d zones, want 2/2", info.Domains, info.Zones)
	}

	// Walk the exposure table one row at a time; rows arrive sorted by
	// name and the page walk covers every nameserver exactly once.
	var rows []TopNameserver
	cursor := ""
	for {
		page, err := c.NSExposure(ctx, cursor, 1)
		if err != nil {
			t.Fatalf("NSExposure: %v", err)
		}
		rows = append(rows, page.Rows...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(rows) != 2 {
		t.Fatalf("exposure rows = %+v, want 2", rows)
	}
	if rows[0].Nameserver >= rows[1].Nameserver {
		t.Errorf("rows not sorted: %+v", rows)
	}
	for _, row := range rows {
		ns, err := c.NameserverContext(ctx, mustName(t, row.Nameserver))
		if err != nil {
			t.Fatalf("Nameserver(%s): %v", row.Nameserver, err)
		}
		if row.Domains != ns.Summary.Domains || row.DomainDays != ns.Summary.DomainDays {
			t.Errorf("%s exposure %+v disagrees with summary %+v", row.Nameserver, row, ns.Summary)
		}
	}
}
