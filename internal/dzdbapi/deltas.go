package dzdbapi

import (
	"context"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// DeltaEdge is one delegation edge on the wire.
type DeltaEdge struct {
	Domain dnsname.Name `json:"domain"`
	NS     dnsname.Name `json:"ns"`
}

// DayDeltaJSON is one day's change set on the wire. Day-less lists are
// omitted, so quiet days serialize as just {"day":...,"changes":0} —
// the feed includes every day of the window to make gap detection
// trivial for consumers.
type DayDeltaJSON struct {
	Day            dates.Day      `json:"day"`
	EdgesAdded     []DeltaEdge    `json:"edges_added,omitempty"`
	EdgesRemoved   []DeltaEdge    `json:"edges_removed,omitempty"`
	DomainsAdded   []dnsname.Name `json:"domains_added,omitempty"`
	DomainsRemoved []dnsname.Name `json:"domains_removed,omitempty"`
	GlueAdded      []dnsname.Name `json:"glue_added,omitempty"`
	GlueRemoved    []dnsname.Name `json:"glue_removed,omitempty"`
	Changes        int            `json:"changes"`
}

// Delta converts the wire form back to the delta package's type.
func (d *DayDeltaJSON) Delta() *delta.DayDelta {
	out := &delta.DayDelta{
		Day:            d.Day,
		DomainsAdded:   d.DomainsAdded,
		DomainsRemoved: d.DomainsRemoved,
		GlueAdded:      d.GlueAdded,
		GlueRemoved:    d.GlueRemoved,
	}
	for _, e := range d.EdgesAdded {
		out.EdgesAdded = append(out.EdgesAdded, zonedb.Edge{Domain: e.Domain, NS: e.NS})
	}
	for _, e := range d.EdgesRemoved {
		out.EdgesRemoved = append(out.EdgesRemoved, zonedb.Edge{Domain: e.Domain, NS: e.NS})
	}
	return out
}

func dayDeltaJSON(d *delta.DayDelta) DayDeltaJSON {
	out := DayDeltaJSON{
		Day:            d.Day,
		DomainsAdded:   d.DomainsAdded,
		DomainsRemoved: d.DomainsRemoved,
		GlueAdded:      d.GlueAdded,
		GlueRemoved:    d.GlueRemoved,
		Changes:        d.Changes(),
	}
	for _, e := range d.EdgesAdded {
		out.EdgesAdded = append(out.EdgesAdded, DeltaEdge{Domain: e.Domain, NS: e.NS})
	}
	for _, e := range d.EdgesRemoved {
		out.EdgesRemoved = append(out.EdgesRemoved, DeltaEdge{Domain: e.Domain, NS: e.NS})
	}
	return out
}

// DeltasResponse is one page of the /v1/deltas feed. Deltas covers a
// contiguous day window within [FirstDay, CloseDay]; NextCursor resumes
// after the last day of the page and is empty once the page reaches
// CloseDay. Epoch identifies the sealed generation the page was derived
// from, so a consumer can detect that the server adopted a new archive
// mid-walk.
type DeltasResponse struct {
	Epoch      uint64         `json:"epoch"`
	FirstDay   dates.Day      `json:"first_day"`
	CloseDay   dates.Day      `json:"close_day"`
	Deltas     []DayDeltaJSON `json:"deltas"`
	NextCursor string         `json:"next_cursor,omitempty"`
	// Partial marks a degraded coordinator answer (see
	// NameserverResponse.Partial). The merged feed never serves partial
	// pages — a day is either complete or withheld — so coordinators
	// leave it false; it exists for forward compatibility of the
	// envelope.
	Partial bool `json:"partial,omitempty"`
}

// Feed is one epoch's day window, in wire form. A node converts days out
// of its delta index as they are asked for; a coordinator slices the
// days it merged at sync time.
type Feed interface {
	// Window returns the first day with any change (dates.None when the
	// epoch recorded no facts at all) and the close day, the last day
	// for which the feed is complete.
	Window() (first, last dates.Day)
	// Days returns the n consecutive days starting at from, all inside
	// the window; n == 0 yields an empty, non-nil list.
	Days(from dates.Day, n int) []DayDeltaJSON
}

// indexFeed is a node's Feed: the delta index of one sealed view. The
// index is built by the first request that needs it, not by the publish
// hook — an epoch no feed consumer asks about never pays the
// O(total spans) walk — and then lives as long as the epoch's state.
// The one index a publish does make is the cheap one: when the view is a
// dated advance of the epoch before it and that epoch's index was built,
// the hook extends it by the new days (extended), so a consumer that
// follows every epoch pays for each day once. A feed holds its own view
// and index and nothing of its predecessor, so epochs nobody reads cost
// nothing and chain nothing.
type indexFeed struct {
	view *zonedb.View
	once sync.Once // guards the one store into idx
	idx  atomic.Pointer[delta.Index]
}

func (f *indexFeed) index() *delta.Index {
	f.once.Do(func() {
		idx, err := delta.Build(f.view)
		if err != nil {
			// Build refuses only an unsealed view, and a state is given a
			// feed only for a sealed one.
			panic(err)
		}
		f.idx.Store(idx)
	})
	return f.idx.Load()
}

// extended returns the feed of v, the view published after f's. If f's
// index was built and v is an advance of f's view the new feed starts
// with that index extended; otherwise it starts empty, like any other.
func (f *indexFeed) extended(v *zonedb.View) *indexFeed {
	next := &indexFeed{view: v}
	if prev := f.idx.Load(); prev != nil {
		if idx, err := delta.Extend(prev, v); err == nil {
			next.once.Do(func() { next.idx.Store(idx) })
		}
	}
	return next
}

func (f *indexFeed) Window() (first, last dates.Day) {
	idx := f.index()
	return idx.First(), idx.Last()
}

func (f *indexFeed) Days(from dates.Day, n int) []DayDeltaJSON {
	idx := f.index()
	out := make([]DayDeltaJSON, 0, n)
	for d := from; d < from+dates.Day(n); d++ {
		out = append(out, dayDeltaJSON(idx.Day(d)))
	}
	return out
}

// Deltas serves the per-day change feed, /v1/deltas. Without a close
// day there is no boundary between "removed" and "not yet sealed", so
// until the source has a sealed epoch the route answers with the
// source's refusal.
//
// Parameters: ?from=YYYY-MM-DD starts the window (clamped to the first
// changed day); ?cursor= resumes a paginated walk; ?limit= caps the
// number of days per page (0 = the whole remaining window). Two push
// modes replace polling: Accept: text/event-stream upgrades to an SSE
// stream, and ?wait=30s long-polls an empty window until a publish.
func (e *EpochRoutes) Deltas(w http.ResponseWriter, r *http.Request, st *EpochState) {
	if wantsSSE(r) {
		e.deltasSSE(w, r)
		return
	}
	if raw := r.URL.Query().Get("wait"); raw != "" {
		wait, err := time.ParseDuration(raw)
		if err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidWait,
				"invalid wait %q (want a duration like 30s)", raw)
			return
		}
		e.deltasLongPoll(w, r, wait)
		return
	}
	if st == nil || st.Feed == nil {
		e.src.Unavailable(w)
		return
	}
	resp, ok := deltaPage(w, r, st)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// deltaPage resolves one page of st's feed. ok=false means an error
// response has already been written.
func deltaPage(w http.ResponseWriter, r *http.Request, st *EpochState) (*DeltasResponse, bool) {
	first, last := st.Feed.Window()
	resp := &DeltasResponse{Epoch: st.Epoch, FirstDay: first, CloseDay: last}
	from := first
	if raw := r.URL.Query().Get("from"); raw != "" {
		d, err := dates.Parse(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidDate, "invalid from %q (want YYYY-MM-DD)", raw)
			return nil, false
		}
		if d > from {
			from = d
		}
	}
	if from == dates.None || from > last {
		// Nothing (or nothing yet) in the window: an empty final page.
		resp.Deltas = []DayDeltaJSON{}
		return resp, true
	}
	n := int(last-from) + 1
	start, end, next, ok := pageWindow(w, r, n, func(i int) string { return (from + dates.Day(i)).String() })
	if !ok {
		return nil, false
	}
	resp.Deltas = st.Feed.Days(from+dates.Day(start), end-start)
	resp.NextCursor = next
	return resp, true
}

// Deltas fetches one page of the per-day change feed. from bounds the
// window start (dates.None starts at the first changed day); cursor ""
// starts the walk, limit 0 fetches the whole remaining window in one
// page. The returned NextCursor resumes the walk and is empty on the
// final page.
func (c *Client) Deltas(ctx context.Context, from dates.Day, cursor string, limit int) (*DeltasResponse, error) {
	q := url.Values{}
	if from != dates.None {
		q.Set("from", from.String())
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/v1/deltas"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out DeltasResponse
	if err := c.getJSON(ctx, "deltas", path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
