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
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// DayDeltaJSON is one day of the feed on the wire: the delta package's
// day, whose empty lists are omitted, plus its change count. Quiet days
// serialize as just {"day":...,"changes":0} — the feed includes every
// day of the window to make gap detection trivial for consumers.
type DayDeltaJSON struct {
	delta.DayDelta
	Changes int `json:"changes"`
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
}

// Feed is one epoch's day window. A node reads days out of its delta
// index as they are asked for; a coordinator out of the days it merged at
// sync time.
type Feed interface {
	// Window returns the first day with any change (dates.None when the
	// epoch recorded no facts at all) and the close day, the last day
	// for which the feed is complete.
	Window() (first, last dates.Day)
	// Day returns the change set of one day inside the window, an empty
	// one for a quiet day. The caller must not modify it.
	Day(d dates.Day) *delta.DayDelta
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

func (f *indexFeed) Day(d dates.Day) *delta.DayDelta { return f.index().Day(d) }

// deltasQuery is a /v1/deltas request's parameters, parsed before any
// work is done for it.
type deltasQuery struct {
	from dates.Day // dates.None: from the first changed day
	page Page
	wait time.Duration // 0: answer at once; else the long-poll hold, capped
}

// parseDeltasQuery parses ?wait=, ?from= and the page window; ok=false
// means the 400 has been written.
func parseDeltasQuery(w http.ResponseWriter, r *http.Request) (q deltasQuery, ok bool) {
	v := r.URL.Query()
	if raw := v.Get("wait"); raw != "" {
		wait, err := time.ParseDuration(raw)
		if err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidWait,
				"invalid wait %q (want a duration like 30s)", raw)
			return q, false
		}
		q.wait = min(wait, MaxLongPollWait)
	}
	q.from = dates.None
	if raw := v.Get("from"); raw != "" {
		d, err := dates.Parse(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeInvalidDate, "invalid from %q (want YYYY-MM-DD)", raw)
			return q, false
		}
		q.from = d
	}
	q.page, ok = ParsePage(w, r)
	return q, ok
}

// deltas serves the per-day change feed, /v1/deltas. Without a close
// day there is no boundary between "removed" and "not yet sealed", so
// until the source has a sealed epoch the route answers with the
// source's refusal.
//
// Parameters: ?from=YYYY-MM-DD starts the window (clamped to the first
// changed day); ?cursor= resumes a paginated walk; ?limit= caps the
// number of days per page (0 = the whole remaining window); ?wait=30s
// long-polls an empty window until a publish (see deltasLongPoll).
func (f *Front) deltas(w http.ResponseWriter, r *http.Request, st *EpochState) {
	q, ok := parseDeltasQuery(w, r)
	switch {
	case !ok:
	case q.wait > 0:
		f.deltasLongPoll(w, r, q)
	case st == nil || st.Feed == nil:
		f.src.Unavailable(w)
	default:
		writeJSON(w, http.StatusOK, deltaPage(st, q))
	}
}

// deltaPage is the page q selects from st's feed.
func deltaPage(st *EpochState, q deltasQuery) *DeltasResponse {
	first, last := st.Feed.Window()
	resp := &DeltasResponse{Epoch: st.Epoch, FirstDay: first, CloseDay: last, Deltas: []DayDeltaJSON{}}
	from := max(first, q.from)
	if from == dates.None || from > last {
		// Nothing (or nothing yet) in the window: an empty final page.
		return resp
	}
	start, end, next := q.page.window(int(last-from)+1, func(i int) string { return (from + dates.Day(i)).String() })
	resp.Deltas = make([]DayDeltaJSON, 0, end-start)
	for d := from + dates.Day(start); d < from+dates.Day(end); d++ {
		dd := st.Feed.Day(d)
		resp.Deltas = append(resp.Deltas, DayDeltaJSON{DayDelta: *dd, Changes: dd.Changes()})
	}
	resp.NextCursor = next
	return resp
}

// longPollMargin pads the per-call HTTP timeout past the server-side
// hold so a request parked for the full wait still completes cleanly.
const longPollMargin = 10 * time.Second

// Deltas fetches one page of the per-day change feed. from bounds the
// window start (dates.None starts at the first changed day); cursor ""
// starts the walk, limit 0 fetches the whole remaining window in one
// page. The returned NextCursor resumes the walk and is empty on the
// final page. wait > 0 long-polls: when the requested window is empty
// the server holds the request up to wait (at most MaxLongPollWait) and
// answers the moment a new epoch publishes, or with an empty final page
// on timeout; the call's HTTP timeout then stretches to wait+10s so the
// default 2s never kills a parked request.
func (c *Client) Deltas(ctx context.Context, from dates.Day, cursor string, limit int, wait time.Duration) (*DeltasResponse, error) {
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
	if wait > 0 {
		q.Set("wait", wait.String())
	}
	path := "/v1/deltas"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	hc := c.httpClient()
	if wait > 0 && hc.Timeout > 0 && hc.Timeout < wait+longPollMargin {
		clone := *hc
		clone.Timeout = wait + longPollMargin
		hc = &clone
	}
	var out DeltasResponse
	if err := c.getJSONClient(ctx, "deltas", path, &out, hc); err != nil {
		return nil, err
	}
	return &out, nil
}
