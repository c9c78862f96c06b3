package watch

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/sim"
	"repro/internal/whois"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// TestInternedIDsFollowState replays a history and holds the intern
// table to the state the checkpoint lists: every live id names a glue
// host, a registered domain, a delegating domain, a nameserver ever seen
// or a candidate, and the ids of names that lost all of that are free.
func TestInternedIDsFollowState(t *testing.T) {
	w, _, idx := buildWorld(t, 2, 1)
	e := New(w.WHOIS(), w.Directory())
	replay(t, e, idx, idx.First(), idx.Last())

	cp := e.Checkpoint()
	carry := map[dnsname.Name]bool{}
	for _, n := range cp.Glue {
		carry[n] = true
	}
	for _, n := range cp.Domains {
		carry[n] = true
	}
	for _, ed := range cp.Edges {
		carry[ed.Domain], carry[ed.NS] = true, true
	}
	for _, s := range cp.Seen {
		carry[s.NS] = true
	}
	for _, st := range cp.Cands {
		carry[st.NS] = true
	}
	if len(e.ids) > len(carry) {
		t.Errorf("%d interned ids, only %d names carry state", len(e.ids), len(carry))
	}
	if live := len(e.recs) - len(e.free); live != len(e.ids) {
		t.Errorf("%d records less %d free = %d, but %d ids", len(e.recs), len(e.free), live, len(e.ids))
	}
	if len(e.free) == 0 {
		t.Error("no id was ever recycled over a whole history")
	}
	if len(e.cands) != len(cp.Cands) {
		t.Errorf("%d candidate ids, checkpoint lists %d candidates", len(e.cands), len(cp.Cands))
	}
	for id, r := range e.recs {
		if _, live := e.ids[r.name]; !live && !r.idle() {
			t.Fatalf("record %d (%q) carries state but has no id", id, r.name)
		}
	}
}

// TestRedundantEdges: a day that adds a delegation already active, or
// removes one that is not, leaves the state a day without that edge
// would — an active delegation is a set member, not a count.
func TestRedundantEdges(t *testing.T) {
	d0 := dates.FromYMD(2020, 1, 1)
	shop, blog := dnsname.Name("shop.org"), dnsname.Name("blog.org")
	ns1, ns2 := dnsname.Name("ns1.host.com"), dnsname.Name("ns2.host.com")
	setup := &delta.DayDelta{
		Day:          d0,
		DomainsAdded: []dnsname.Name{blog, shop},
		GlueAdded:    []dnsname.Name{ns1, ns2},
		EdgesAdded:   []zonedb.Edge{{Domain: blog, NS: ns2}, {Domain: shop, NS: ns1}},
	}
	clean := &delta.DayDelta{Day: d0 + 1, GlueAdded: []dnsname.Name{"ns3.host.com"}}
	for _, tc := range []struct {
		name string
		day  delta.DayDelta
	}{
		{"add an active edge", delta.DayDelta{EdgesAdded: []zonedb.Edge{{Domain: shop, NS: ns1}}}},
		{"remove an edge never added", delta.DayDelta{EdgesRemoved: []zonedb.Edge{{Domain: shop, NS: ns2}}}},
		{"remove from a domain delegating nowhere", delta.DayDelta{EdgesRemoved: []zonedb.Edge{{Domain: "idle.org", NS: ns1}}}},
		{"remove to a nameserver never seen", delta.DayDelta{EdgesRemoved: []zonedb.Edge{{Domain: shop, NS: "ns9.host.com"}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			noisy := tc.day
			noisy.Day, noisy.GlueAdded = clean.Day, clean.GlueAdded
			var want, got bytes.Buffer
			for _, run := range []struct {
				day *delta.DayDelta
				out *bytes.Buffer
			}{{clean, &want}, {&noisy, &got}} {
				e := New(whois.New(), sim.StandardDirectory())
				for _, dd := range []*delta.DayDelta{setup, run.day} {
					if _, err := e.ApplyDay(dd); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Save(run.out); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("checkpoint after the redundant edge:\n%s\nwithout it:\n%s", got.Bytes(), want.Bytes())
			}
		})
	}
}

// TestUnsortedRemovalsRefused: the original-nameserver evidence is found
// in a day's removed edges by binary search, so a day whose removals are
// out of DayDelta.Sort order is refused before it changes anything — and
// is not sorted in place, since the day may be shared.
func TestUnsortedRemovalsRefused(t *testing.T) {
	good, wh, dir, register := watchingCheckpoint(t)
	e, err := Restore(bytes.NewReader(good), wh, dir)
	if err != nil {
		t.Fatal(err)
	}
	removed := []zonedb.Edge{{Domain: "shop.org", NS: "ns1.victim123.biz"}, {Domain: "blog.org", NS: "ns1.a.com"}}
	dd := *register
	dd.EdgesRemoved = slices.Clone(removed)
	if _, err := e.ApplyDay(&dd); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("ApplyDay(unsorted removals) = %v, want a refusal", err)
	}
	if !slices.Equal(dd.EdgesRemoved, removed) {
		t.Errorf("refused day was reordered: %v", dd.EdgesRemoved)
	}
	var after bytes.Buffer
	if err := e.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), good) {
		t.Errorf("refused day changed the engine:\n%s", after.Bytes())
	}
	// The same day in order applies, and fires the watch it would have.
	dd.Sort()
	if alerts, err := e.ApplyDay(&dd); err != nil || len(alerts) != 1 || alerts[0].Type != AlertHijacked {
		t.Fatalf("ApplyDay(sorted) = %+v, %v; want one hijacked alert", alerts, err)
	}
}

// TestApplyDayAllocs: a quiet day allocates nothing, and a busy day
// allocates only for what it adds to the state — names interned,
// candidates started, spans sealed, alerts — not a map per day. It holds
// the replay by name of the live view's index and the replay by id of the
// index of the view loaded from its segment; by id, a name given a record
// costs no entry in a name map either.
func TestApplyDayAllocs(t *testing.T) {
	w, v, live := buildWorld(t, 2, 1)
	_, loaded := loadedIndex(t, v)
	for _, c := range []struct {
		name string
		idx  *delta.Index
	}{{"live", live}, {"loaded", loaded}} {
		t.Run(c.name, func(t *testing.T) {
			testApplyDayAllocs(t, New(w.WHOIS(), w.Directory()), c.idx)
		})
	}
}

func testApplyDayAllocs(t *testing.T, e *Engine, idx *delta.Index) {
	mid := idx.First() + (idx.Last()-idx.First())/2
	replay(t, e, idx, idx.First(), mid)

	quiet := &delta.DayDelta{Day: mid}
	if n := testing.AllocsPerRun(100, func() {
		quiet.Day++
		if _, err := e.ApplyDay(quiet); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a quiet day allocates %.1f times", n)
	}

	// The busy days of the rest of the history, each measured alone, with
	// the names it gives a record counted beforehand.
	var allocs, size uint64
	days, changes, given := 0, 0, 0
	var ids []int32
	for d := quiet.Day + 1; d <= idx.Last(); d++ {
		dd := idx.Day(d)
		if dd.Changes() == 0 {
			continue
		}
		if byID, ok := dd.IDs(); ok {
			ids = append(append(ids[:0], byID.DomainsAdded...), byID.GlueAdded...)
			for _, ed := range byID.EdgesAdded {
				ids = append(ids, ed.Domain, ed.NS)
			}
			slices.Sort(ids)
			for i, did := range ids {
				if (i == 0 || did != ids[i-1]) && e.byDict[did] < 0 {
					given++
				}
			}
		}
		n, b := allocated(func() {
			if _, err := e.ApplyDay(dd); err != nil {
				t.Fatal(err)
			}
		})
		allocs, size = allocs+n, size+b
		days++
		changes += dd.Changes()
	}
	perChange := float64(allocs) / float64(changes)
	t.Logf("%d busy days, %.1f changes and %.1f allocations a day", days, float64(changes)/float64(days), float64(allocs)/float64(days))
	if perChange > 0.25 {
		t.Errorf("a busy day allocates %.2f times per change, want at most 0.25", perChange)
	}
	if e.dict == nil {
		return
	}
	// By id, a name given a record costs its share of the record slice and
	// of its delegations: 35 bytes a name over these days at scale 2, seed
	// 1. Entering each name in a name map too, which then grows with the
	// names live, measured 87.
	perName := float64(size) / float64(given)
	t.Logf("%d names given a record, %.1f bytes allocated a name", given, perName)
	if perName > 64 {
		t.Errorf("a busy day by id allocates %.1f bytes per name it gives a record, want at most 64", perName)
	}
}

// allocated returns the number of allocations fn makes and their bytes,
// measured on one P, as testing.AllocsPerRun does.
func allocated(fn func()) (n, size uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// BenchmarkReplay is the go-test twin of the bench's watch.apply_s: one
// engine replaying a scale-8 world's whole history (~15 s of set-up).
// The bench replays the index of a view loaded from its segment, whose
// days carry ids (loaded); live replays the simulated world's own view,
// by name, as a feed follower and the ingest-fed workloads do.
func BenchmarkReplay(b *testing.B) {
	w, v, live := buildWorld(b, 8, 1)
	_, loaded := loadedIndex(b, v)
	for _, c := range []struct {
		name string
		idx  *delta.Index
	}{{"live", live}, {"loaded", loaded}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				e := New(w.WHOIS(), w.Directory())
				for d := c.idx.First(); d <= c.idx.Last(); d++ {
					if _, err := e.ApplyDay(c.idx.Day(d)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
