package dzdbapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/dates"
	"repro/internal/zonedb"
)

// TestDeltasFeed walks the /v1/deltas window for the fixture database
// and pins the event placement: adds on a span's first day, removes the
// day after its last day, and nothing for spans running into the close
// day.
func TestDeltasFeed(t *testing.T) {
	c := startAPI(t)
	ctx := context.Background()

	all, err := c.Deltas(ctx, dates.None, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if all.FirstDay != d(0) || all.CloseDay != d(200) || all.NextCursor != "" {
		t.Fatalf("window = %+v", all)
	}
	if len(all.Deltas) != 201 {
		t.Fatalf("got %d days, want 201", len(all.Deltas))
	}
	day0 := all.Deltas[0]
	if day0.Day != d(0) || len(day0.EdgesAdded) != 2 || len(day0.DomainsAdded) != 2 ||
		len(day0.GlueAdded) != 1 || day0.Changes != 5 {
		t.Errorf("day 0 = %+v", day0)
	}
	// Both day-0 edges were removed on day 100 (last present day 99) and
	// the sacrificial replacement appeared the same day.
	day100 := all.Deltas[100]
	if len(day100.EdgesRemoved) != 2 || len(day100.EdgesAdded) != 1 ||
		len(day100.DomainsRemoved) != 1 || len(day100.GlueRemoved) != 1 {
		t.Errorf("day 100 = %+v", day100)
	}
	if day100.EdgesAdded[0].NS != "ns2.internetemc1aj2kdy.biz" {
		t.Errorf("day 100 add = %+v", day100.EdgesAdded)
	}
	if quiet := all.Deltas[50]; quiet.Changes != 0 || len(quiet.EdgesAdded) != 0 {
		t.Errorf("quiet day = %+v", quiet)
	}
	// Spans running into the close day emit no removals.
	if last := all.Deltas[200]; last.Day != d(200) || last.Changes != 0 {
		t.Errorf("close day = %+v", last)
	}

	// The wire round-trip preserves the change set.
	dd := day100.DayDelta
	if dd.Day != d(100) || dd.Changes() != day100.Changes || len(dd.EdgesRemoved) != 2 {
		t.Errorf("round-trip = %+v", dd)
	}
}

// TestDeltasPagination walks the feed with a small page size and checks
// the paged walk reconstructs the unpaginated window exactly, with a
// stable epoch across pages.
func TestDeltasPagination(t *testing.T) {
	c := startAPI(t)
	ctx := context.Background()

	all, err := c.Deltas(ctx, dates.None, "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	var paged []DayDeltaJSON
	cursor := ""
	for page := 0; ; page++ {
		resp, err := c.Deltas(ctx, dates.None, cursor, 90, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Epoch != all.Epoch {
			t.Fatalf("page %d epoch %d, want %d", page, resp.Epoch, all.Epoch)
		}
		if page < 2 && len(resp.Deltas) != 90 {
			t.Fatalf("page %d has %d days", page, len(resp.Deltas))
		}
		paged = append(paged, resp.Deltas...)
		cursor = resp.NextCursor
		if cursor == "" {
			break
		}
		if page > 3 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(paged) != len(all.Deltas) {
		t.Fatalf("paged %d days, unpaginated %d", len(paged), len(all.Deltas))
	}
	for i := range paged {
		if paged[i].Day != all.Deltas[i].Day || paged[i].Changes != all.Deltas[i].Changes {
			t.Fatalf("day %d: paged %+v != %+v", i, paged[i], all.Deltas[i])
		}
	}

	// A ?from= mid-window shrinks the page but not the advertised window.
	mid, err := c.Deltas(ctx, d(100), "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mid.FirstDay != d(0) || mid.CloseDay != d(200) {
		t.Errorf("mid window = %+v", mid)
	}
	if len(mid.Deltas) != 101 {
		t.Fatalf("from=100: %d days", len(mid.Deltas))
	}
	if mid.Deltas[0].Day != d(100) {
		t.Fatalf("from=100 starts %s", mid.Deltas[0].Day)
	}
}

// TestDeltasEmptyFinalPage: a consumer that has caught up polls with
// from just past the close day and must get a well-formed empty page —
// non-nil Deltas, no cursor — rather than an error.
func TestDeltasEmptyFinalPage(t *testing.T) {
	c := startAPI(t)
	ctx := context.Background()

	resp, err := c.Deltas(ctx, d(201), "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Deltas == nil || len(resp.Deltas) != 0 || resp.NextCursor != "" {
		t.Fatalf("past-close page = %+v", resp)
	}
	if resp.FirstDay != d(0) || resp.CloseDay != d(200) {
		t.Errorf("past-close window = %+v", resp)
	}
	// Exactly the close day still yields the (quiet) final day.
	at, err := c.Deltas(ctx, d(200), "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(at.Deltas) != 1 || at.Deltas[0].Day != d(200) {
		t.Fatalf("at-close page = %+v", at)
	}
}

// TestDeltasErrors covers the route's failure modes, both raw (envelope
// shape) and through the typed client (APIError.Code round-trip).
func TestDeltasErrors(t *testing.T) {
	ts := httptest.NewServer(New(testDB()))
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/deltas?from=not-a-date", 400, CodeInvalidDate},
		{"/v1/deltas?cursor=%21%21", 400, CodeInvalidCursor},
		{"/v1/deltas?limit=abc", 400, CodeInvalidLimit},
		{"/v1/deltas?limit=-3", 400, CodeInvalidLimit},
	} {
		status, ae := rawError(t, ts.URL, tc.path)
		if status != tc.status || ae.Error.Code != tc.code {
			t.Errorf("GET %s = %d %q, want %d %q", tc.path, status, ae.Error.Code, tc.status, tc.code)
		}
	}

	// The same failures surface through the typed client with the
	// machine-readable code intact.
	if _, err := c.Deltas(ctx, d(0), "!!not-base64!!", 0, 0); err == nil {
		t.Error("bad cursor: want error")
	} else if ae, ok := err.(*APIError); !ok || ae.Status != 400 || ae.Code != CodeInvalidCursor {
		t.Errorf("bad cursor err = %v", err)
	}
	if _, err := c.Deltas(ctx, d(0), "", -1, 0); err != nil {
		// limit<=0 is omitted by the client; only the raw path can send it.
		t.Errorf("negative limit should be dropped client-side: %v", err)
	}

	// An unclosed database has no delta feed: not_found, not a 500.
	open := httptest.NewServer(New(zonedb.New()))
	t.Cleanup(open.Close)
	oc := &Client{BaseURL: open.URL}
	if _, err := oc.Deltas(ctx, dates.None, "", 0, 0); err == nil {
		t.Error("unclosed DB: want error")
	} else if ae, ok := err.(*APIError); !ok || ae.Status != 404 || ae.Code != CodeNotFound {
		t.Errorf("unclosed DB err = %v", err)
	}
}

// TestErrorCodeThroughClient pins that APIError.Code round-trips on the
// pre-existing v1 routes too, not just the delta feed.
func TestErrorCodeThroughClient(t *testing.T) {
	c := startAPI(t)
	if _, err := c.Domain("ghost.com"); err == nil {
		t.Error("missing domain: want error")
	} else if ae, ok := err.(*APIError); !ok || ae.Code != CodeNotFound {
		t.Errorf("missing domain err = %v", err)
	}
	if _, err := c.Domain("-bad-.com"); err == nil {
		t.Error("invalid name: want error")
	} else if ae, ok := err.(*APIError); !ok || ae.Code != CodeInvalidName {
		t.Errorf("invalid name err = %v", err)
	}
	if _, err := c.Zones(context.Background(), "%%%not-a-cursor", 1); err == nil {
		t.Error("invalid cursor: want error")
	} else if ae, ok := err.(*APIError); !ok || ae.Code != CodeInvalidCursor {
		t.Errorf("invalid cursor err = %v", err)
	}
}

// FuzzDeltasQuery drives /v1/deltas with arbitrary ?from=, ?cursor=,
// ?limit= and ?wait= (a wait that parses is held to a few milliseconds)
// against a small sealed node. No input panics or answers 5xx, and every
// 200 is a page of consecutive days inside [first_day, close_day].
func FuzzDeltasQuery(f *testing.F) {
	srv := New(testDB())
	f.Add("", "", "", "")
	f.Add(d(100).String(), "", "10", "")
	f.Add("", encodeCursor(d(50).String()), "60", "")
	f.Add(d(201).String(), "", "", "1ms")
	f.Add("", "!!", "", "")
	f.Add("", encodeCursor(d(5).String()), "9223372036854775807", "")
	f.Add("1999-13-40", "", "-1", "soon")
	f.Fuzz(func(t *testing.T, from, cursor, limit, wait string) {
		if w, err := time.ParseDuration(wait); err == nil && w > 2*time.Millisecond {
			wait = "2ms"
		}
		q := url.Values{}
		for k, v := range map[string]string{"from": from, "cursor": cursor, "limit": limit, "wait": wait} {
			if v != "" {
				q.Set(k, v)
			}
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/deltas?"+q.Encode(), nil))
		if rec.Code >= 500 {
			t.Fatalf("%s: status %d: %s", q.Encode(), rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var page DeltasResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("%s: 200 does not decode: %v", q.Encode(), err)
		}
		for i, dd := range page.Deltas {
			if dd.Day < page.FirstDay || dd.Day > page.CloseDay {
				t.Fatalf("%s: day %s outside [%s, %s]", q.Encode(), dd.Day, page.FirstDay, page.CloseDay)
			}
			if i > 0 && dd.Day != page.Deltas[i-1].Day+1 {
				t.Fatalf("%s: day %s follows %s", q.Encode(), dd.Day, page.Deltas[i-1].Day)
			}
		}
	})
}
