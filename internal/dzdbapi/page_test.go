package dzdbapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/sim"
	"repro/internal/zonedb/delta"
)

// listRoute is one paginated /v1 route: where it is, its largest page,
// how to read a page's item keys, and every key of the whole list,
// derived from the view rather than from the server.
type listRoute struct {
	path    string
	largest int
	keys    func(t *testing.T, body []byte) (keys []string, next string)
	whole   []string
}

// TestListPageBounds asks every /v1 list route of a scale-3 world for a
// page with each kind of ?limit= (absent, 0, 1, the route's largest,
// one past it, negative, not a number). A malformed limit is a 400
// invalid_limit. Any other page holds min(limit, items left) items, with
// an absent or zero limit read as the largest page and a larger one
// clamped to it, and its cursor chain concatenates to the whole list.
func TestListPageBounds(t *testing.T) {
	cfg := sim.DefaultConfig(3)
	cfg.Seed = 1
	w, err := sim.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	v := w.ZoneDB().View()
	srv := New(w.ZoneDB())

	idx, err := delta.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	var days []string
	for d := idx.First(); d <= idx.Last(); d++ {
		days = append(days, d.String())
	}
	var zones []string
	for _, z := range v.Zones() {
		zones = append(zones, string(z))
	}
	var nameservers []string
	v.Nameservers(func(ns dnsname.Name) bool {
		nameservers = append(nameservers, string(ns))
		return true
	})
	slices.Sort(nameservers)
	// The first nameserver by name with at least 100 domains: every page
	// of the route walks the whole list, so a limit=1 chain over the
	// busiest one would cost its square.
	var ns dnsname.Name
	var domains []string
	for _, name := range nameservers {
		domains = domains[:0]
		v.EachDomainOf(dnsname.Name(name), func(d dnsname.Name, _ *interval.Set) bool {
			domains = append(domains, string(d))
			return true
		})
		if len(domains) >= 100 {
			ns = dnsname.Name(name)
			break
		}
	}
	if ns == "" {
		t.Fatal("no nameserver has 100 domains")
	}
	slices.Sort(domains)

	routes := []listRoute{
		{"/v1/deltas", maxDeltasPage, func(t *testing.T, body []byte) ([]string, string) {
			var page DeltasResponse
			decodeBody(t, body, &page)
			var keys []string
			for _, dd := range page.Deltas {
				keys = append(keys, dd.Day.String())
			}
			return keys, page.NextCursor
		}, days},
		{"/v1/zones", maxZonesPage, func(t *testing.T, body []byte) ([]string, string) {
			var page ZonesResponse
			decodeBody(t, body, &page)
			return page.Zones, page.NextCursor
		}, zones},
		{"/v1/nameservers/" + string(ns), MaxNameserverPage, func(t *testing.T, body []byte) ([]string, string) {
			var page NameserverResponse
			decodeBody(t, body, &page)
			var keys []string
			for _, d := range page.Domains {
				keys = append(keys, d.Domain)
			}
			return keys, page.NextCursor
		}, domains},
		{"/v1/internal/ns-exposure", maxNSExposurePage, func(t *testing.T, body []byte) ([]string, string) {
			var page NSExposureResponse
			decodeBody(t, body, &page)
			var keys []string
			for _, r := range page.Rows {
				keys = append(keys, r.Nameserver)
			}
			return keys, page.NextCursor
		}, nameservers},
	}
	if len(days) <= maxDeltasPage {
		t.Fatalf("the feed has %d days; the test wants more than one largest page", len(days))
	}

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	for _, rt := range routes {
		for _, limit := range []string{"", "0", "1", strconv.Itoa(rt.largest), strconv.Itoa(rt.largest + 1), "-1", "junk"} {
			t.Run(rt.path+"?limit="+limit, func(t *testing.T) {
				q := url.Values{}
				if limit != "" {
					q.Set("limit", limit)
				}
				rec := get(rt.path + "?" + q.Encode())
				if n, err := strconv.Atoi(limit); limit != "" && (err != nil || n < 0) {
					var ae apiError
					decodeBody(t, rec.Body.Bytes(), &ae)
					if rec.Code != http.StatusBadRequest || ae.Error.Code != CodeInvalidLimit {
						t.Fatalf("status %d, code %q; want 400 %s", rec.Code, ae.Error.Code, CodeInvalidLimit)
					}
					return
				}
				size := rt.largest
				if limit == "1" {
					size = 1
				}
				var got []string
				for pages := 0; ; pages++ {
					if rec.Code != http.StatusOK {
						t.Fatalf("page %d: status %d: %s", pages, rec.Code, rec.Body)
					}
					keys, next := rt.keys(t, rec.Body.Bytes())
					if want := min(size, len(rt.whole)-len(got)); len(keys) != want {
						t.Fatalf("page %d holds %d items, want %d", pages, len(keys), want)
					}
					got = append(got, keys...)
					if next == "" {
						break
					}
					q.Set("cursor", next)
					rec = get(rt.path + "?" + q.Encode())
				}
				if !reflect.DeepEqual(got, rt.whole) {
					t.Fatalf("the cursor chain holds %d items, the whole list %d", len(got), len(rt.whole))
				}
			})
		}
	}
}

func decodeBody(t *testing.T, body []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
}

// FuzzParsePage holds ParsePage to the decoder contract: it never
// panics; a refusal is a 400 with the invalid_limit or invalid_cursor
// envelope; an accepted page writes nothing, holds 1 <= limit <=
// largest (an absent or zero limit read as largest, a smaller one kept),
// and re-encoding it gives a query that parses to the same page.
func FuzzParsePage(f *testing.F) {
	f.Add("", "", 10)
	f.Add("0", "", 10)
	f.Add("1", encodeCursor("com"), 10)
	f.Add("10", "", 10)
	f.Add("11", "", 10)
	f.Add("-1", "", 10)
	f.Add("junk", "", 10)
	f.Add("9223372036854775807", "!!", 1)
	f.Add("5", "Y29t=", 500)
	f.Fuzz(func(t *testing.T, limit, cursor string, largest int) {
		largest = max(largest, 1) // every route's largest page is a positive constant
		parse := func(q url.Values) (*httptest.ResponseRecorder, Page, bool) {
			rec := httptest.NewRecorder()
			p, ok := ParsePage(rec, httptest.NewRequest(http.MethodGet, "/?"+q.Encode(), nil), largest)
			return rec, p, ok
		}
		q := url.Values{}
		if limit != "" {
			q.Set("limit", limit)
		}
		if cursor != "" {
			q.Set("cursor", cursor)
		}
		rec, p, ok := parse(q)
		if !ok {
			var ae apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &ae); rec.Code != http.StatusBadRequest || err != nil ||
				(ae.Error.Code != CodeInvalidLimit && ae.Error.Code != CodeInvalidCursor) {
				t.Fatalf("%s: refused with %d %s", q.Encode(), rec.Code, rec.Body)
			}
			return
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("%s: accepted, yet wrote %q", q.Encode(), rec.Body)
		}
		want := largest
		if n, _ := strconv.Atoi(limit); n > 0 && n < largest {
			want = n
		}
		if p.limit != want {
			t.Fatalf("%s: limit %d, want %d of at most %d", q.Encode(), p.limit, want, largest)
		}
		again := url.Values{"limit": {strconv.Itoa(p.limit)}}
		if p.after != "" {
			again.Set("cursor", encodeCursor(p.after))
		}
		if _, p2, ok := parse(again); !ok || p2 != p {
			t.Fatalf("%s: page %+v re-encodes as %s, which parses to %+v (ok %v)", q.Encode(), p, again.Encode(), p2, ok)
		}
	})
}
