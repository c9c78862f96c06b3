package delta

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/sim"
	"repro/internal/zonedb"
)

var (
	com = dnsname.MustParse("com")
	biz = dnsname.MustParse("biz")
)

func day(s string) dates.Day {
	d, err := dates.Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}

// TestBuildHandCrafted pins the event placement rules on a tiny
// hand-built database: adds on a span's first day, removes the day
// after its last day, and no remove for spans running into the close
// day.
func TestBuildHandCrafted(t *testing.T) {
	db := zonedb.New()
	ex := dnsname.MustParse("example.com")
	ns1 := dnsname.MustParse("ns1.example.com")
	orphan := dnsname.MustParse("old.example.biz")

	// example.com delegates to ns1 over two separate spans; the second
	// runs into the close day.
	db.DomainAdded(com, ex, day("2020-01-01"))
	db.DelegationAdded(com, ex, ns1, day("2020-01-01"))
	db.GlueAdded(com, ns1, day("2020-01-01"))
	db.DelegationRemoved(com, ex, ns1, day("2020-01-10"))
	db.DelegationAdded(com, ex, ns1, day("2020-02-01"))
	// A biz-zone name whose zone is sealed early: its open span must be
	// cut at the biz zone's own last day, with the removal visible in
	// the delta because it lands before the overall close day.
	db.DelegationAdded(biz, dnsname.MustParse("shop.biz"), orphan, day("2020-01-05"))
	db.CloseZones(map[dnsname.Name]dates.Day{
		com: day("2020-03-01"),
		biz: day("2020-01-20"),
	})

	v := db.View()
	idx, err := Build(v)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if idx.Epoch() != v.Epoch() {
		t.Errorf("epoch %d, view %d", idx.Epoch(), v.Epoch())
	}
	if got, want := idx.First(), day("2020-01-01"); got != want {
		t.Errorf("First = %s, want %s", got, want)
	}
	if got, want := idx.Last(), day("2020-03-01"); got != want {
		t.Errorf("Last = %s, want %s", got, want)
	}

	d1 := idx.Day(day("2020-01-01"))
	if len(d1.EdgesAdded) != 1 || len(d1.DomainsAdded) != 1 || len(d1.GlueAdded) != 1 {
		t.Errorf("2020-01-01: %+v", d1)
	}
	// Delegation removed on Jan 10: last present day is Jan 9, so the
	// remove event lands on the 10th.
	if d := idx.Day(day("2020-01-10")); len(d.EdgesRemoved) != 1 || d.EdgesRemoved[0].NS != ns1 {
		t.Errorf("2020-01-10: want ns1 edge removal, got %+v", d)
	}
	if d := idx.Day(day("2020-02-01")); len(d.EdgesAdded) != 1 {
		t.Errorf("2020-02-01: want re-add, got %+v", d)
	}
	// The early-sealed biz zone cuts the orphan edge at Jan 20; the
	// remove must surface on Jan 21 even though com runs on.
	if d := idx.Day(day("2020-01-21")); len(d.EdgesRemoved) != 1 || d.EdgesRemoved[0].NS != orphan {
		t.Errorf("2020-01-21: want early-sealed removal, got %+v", d)
	}
	// Facts running into the close day never emit removals: the feed
	// cannot distinguish "gone" from "not yet observed".
	quiet := idx.Day(day("2020-03-01"))
	if !quiet.Empty() {
		t.Errorf("close day should be quiet, got %+v", quiet)
	}
	if d := idx.Day(day("2020-03-02")); !d.Empty() {
		t.Errorf("beyond close day should be empty, got %+v", d)
	}

	// An unclosed DB has no delta feed.
	if _, err := Build(zonedb.New().View()); err == nil {
		t.Error("Build on unclosed view: want error")
	}
}

// TestCumulativeReconstruction replays a simulated world's deltas into
// running active sets and checks them against the view's own per-day
// queries on sampled days — the delta feed and the interval store must
// describe the same history.
func TestCumulativeReconstruction(t *testing.T) {
	v := world(t, 1, 7)
	idx, err := Build(v)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	edges := make(map[zonedb.Edge]bool)
	doms := make(map[dnsname.Name]bool)
	glue := make(map[dnsname.Name]bool)
	changes := 0
	check := func(today dates.Day) {
		for e := range edges {
			if !v.EdgeSpans(e.Domain, e.NS).Contains(today) {
				t.Fatalf("%s: edge %v active in replay but not in view", today, e)
			}
		}
		for d := range doms {
			if !v.DomainRegisteredOn(d, today) {
				t.Fatalf("%s: domain %s active in replay but not in view", today, d)
			}
		}
		for g := range glue {
			if !v.GlueSpans(g).Contains(today) {
				t.Fatalf("%s: glue %s active in replay but not in view", today, g)
			}
		}
	}
	for today := idx.First(); today <= idx.Last(); today++ {
		d := idx.Day(today)
		for _, e := range d.EdgesRemoved {
			if !edges[e] {
				t.Fatalf("%s: removal of inactive edge %v", today, e)
			}
			delete(edges, e)
		}
		for _, e := range d.EdgesAdded {
			if edges[e] {
				t.Fatalf("%s: duplicate add of edge %v", today, e)
			}
			edges[e] = true
		}
		for _, n := range d.DomainsRemoved {
			delete(doms, n)
		}
		for _, n := range d.DomainsAdded {
			doms[n] = true
		}
		for _, g := range d.GlueRemoved {
			delete(glue, g)
		}
		for _, g := range d.GlueAdded {
			glue[g] = true
		}
		changes += d.Changes()
		if today%97 == 0 { // sample roughly every three months
			check(today)
		}
	}
	check(idx.Last())
	if changes == 0 {
		t.Fatal("no changes in simulated history")
	}
	// Total span-days must match exactly: every domain's registration
	// days reconstructed from the feed equal the interval store's count.
	totalView := 0
	v.Domains(func(dom dnsname.Name) bool {
		totalView += v.DomainSpans(dom).TotalDays()
		return true
	})
	active := 0
	integral := 0
	for today := idx.First(); today <= idx.Last(); today++ {
		d := idx.Day(today)
		active += len(d.DomainsAdded) - len(d.DomainsRemoved)
		integral += active
	}
	if integral != totalView {
		t.Errorf("domain-days: feed integral %d, view %d", integral, totalView)
	}
}

// replay plays a simulated history into a live database through the
// event API, the way a registry feeds one: every day up to a start day
// in bulk, sealed by one Close, and from there an epoch at a time.
type replay struct {
	hist *Index // the whole history: the writer's script
	live *zonedb.DB
	day  dates.Day // the live database's close day
}

// world simulates a world and returns its sealed view.
func world(tb testing.TB, scale float64, seed int64) *zonedb.View {
	tb.Helper()
	cfg := sim.DefaultConfig(scale)
	cfg.Seed = seed
	w, err := sim.NewWorld(cfg)
	if err != nil {
		tb.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(); err != nil {
		tb.Fatalf("Run: %v", err)
	}
	return w.ZoneDB().View()
}

// history simulates a world and returns the index of its whole history.
func history(tb testing.TB, scale float64, seed int64) *Index {
	tb.Helper()
	hist, err := Build(world(tb, scale, seed))
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return hist
}

// newReplay returns a live database holding hist up to back days before
// its end, and that database's index.
func newReplay(tb testing.TB, hist *Index, back int) (*replay, *Index) {
	tb.Helper()
	r := &replay{hist: hist, live: zonedb.New(), day: hist.Last() - dates.Day(back)}
	for d := hist.First(); d <= r.day; d++ {
		r.apply(d)
	}
	r.live.Close(r.day)
	idx, err := Build(r.live.View())
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	return r, idx
}

func (r *replay) apply(day dates.Day) {
	dd := r.hist.Day(day)
	for _, e := range dd.EdgesRemoved {
		r.live.DelegationRemoved(e.Domain.TLD(), e.Domain, e.NS, day)
	}
	for _, d := range dd.DomainsRemoved {
		r.live.DomainRemoved(d.TLD(), d, day)
	}
	for _, h := range dd.GlueRemoved {
		r.live.GlueRemoved(h.TLD(), h, day)
	}
	for _, d := range dd.DomainsAdded {
		r.live.DomainAdded(d.TLD(), d, day)
	}
	for _, h := range dd.GlueAdded {
		r.live.GlueAdded(h.TLD(), h, day)
	}
	for _, e := range dd.EdgesAdded {
		r.live.DelegationAdded(e.Domain.TLD(), e.Domain, e.NS, day)
	}
}

// advance plays the next n days and publishes them as one epoch.
func (r *replay) advance(n int) *zonedb.View {
	for i := 0; i < n; i++ {
		r.day++
		r.apply(r.day)
	}
	r.live.Close(r.day)
	return r.live.View()
}

// sameIndex fails unless got answers every question the way want does.
func sameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	if got.Epoch() != want.Epoch() || got.First() != want.First() || got.Last() != want.Last() || got.Days() != want.Days() {
		t.Fatalf("index (epoch %d, %s..%s, %d days), want (epoch %d, %s..%s, %d days)",
			got.Epoch(), got.First(), got.Last(), got.Days(), want.Epoch(), want.First(), want.Last(), want.Days())
	}
	if want.First() == dates.None {
		return
	}
	for d := want.First() - 1; d <= want.Last()+1; d++ {
		if g, w := got.Day(d), want.Day(d); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: delta %+v, want %+v", d, g, w)
		}
	}
}

// TestExtendEqualsBuild replays the tail of a simulated history an epoch
// at a time — one day, or several under one Close — and holds the index
// extended from the epoch before to the index built from the view.
func TestExtendEqualsBuild(t *testing.T) {
	r, idx := newReplay(t, history(t, 1, 7), 60)
	changes := 0
	for i := 0; r.day+3 <= r.hist.Last(); i++ {
		v := r.advance(1 + i%3)
		if v.Advance() == nil {
			t.Fatalf("epoch %d closed %s is not an advance", v.Epoch(), v.CloseDay())
		}
		ext, err := Extend(idx, v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(v)
		if err != nil {
			t.Fatal(err)
		}
		sameIndex(t, ext, want)
		for d := idx.Last() + 1; d <= ext.Last(); d++ {
			changes += ext.Day(d).Changes()
		}
		idx = ext
	}
	if changes == 0 {
		t.Fatal("the replayed days changed nothing")
	}
}

// TestExtendRefuses: Extend answers only for the epoch after prev's, and
// only when that epoch is an advance; otherwise the caller is told to
// build.
func TestExtendRefuses(t *testing.T) {
	db := zonedb.New()
	ex := dnsname.MustParse("example.com")
	db.DomainAdded(com, ex, day("2020-01-01"))
	db.Close(day("2020-01-05"))
	first, err := Build(db.View())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extend(first, db.View()); err == nil {
		t.Error("Extend onto a view that is not an advance: want error")
	}
	db.DomainRemoved(com, ex, day("2020-01-06"))
	db.Close(day("2020-01-06"))
	second := db.View()
	ext, err := Extend(first, second)
	if err != nil {
		t.Fatal(err)
	}
	if d := ext.Day(day("2020-01-06")); len(d.DomainsRemoved) != 1 {
		t.Errorf("2020-01-06: want the removal, got %+v", d)
	}
	db.Close(day("2020-01-07"))
	if _, err := Extend(first, db.View()); err == nil {
		t.Error("Extend from the index of two epochs back: want error")
	}
	// A back-dated event makes the epoch a rebuild.
	db.DomainAdded(com, ex, day("2020-01-03"))
	db.Close(day("2020-01-08"))
	prev, err := Build(second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extend(prev, db.View()); err == nil {
		t.Error("Extend onto an epoch with a back-dated event: want error")
	}
}

// referenceBuild is Build as it was first written — a map of days, an
// append per boundary, a sort of each day's lists — and the oracle the
// counting Build is held to. It returns the non-quiet days and the
// earliest addition.
func referenceBuild(v *zonedb.View) (map[dates.Day]*DayDelta, dates.Day) {
	days := make(map[dates.Day]*DayDelta)
	first, last := dates.None, v.CloseDay()
	at := func(day dates.Day) *DayDelta {
		d, ok := days[day]
		if !ok {
			d = &DayDelta{Day: day}
			days[day] = d
		}
		return d
	}
	spread := func(spans *interval.Set, add, remove func(*DayDelta)) {
		for _, r := range spans.Spans() {
			add(at(r.First))
			if first == dates.None || r.First < first {
				first = r.First
			}
			if end := r.Last + 1; end <= last {
				remove(at(end))
			}
		}
	}
	v.EachEdgeSpans(func(e zonedb.Edge, spans *interval.Set) bool {
		spread(spans, func(d *DayDelta) { d.EdgesAdded = append(d.EdgesAdded, e) },
			func(d *DayDelta) { d.EdgesRemoved = append(d.EdgesRemoved, e) })
		return true
	})
	v.EachDomainSpans(func(domain dnsname.Name, spans *interval.Set) bool {
		spread(spans, func(d *DayDelta) { d.DomainsAdded = append(d.DomainsAdded, domain) },
			func(d *DayDelta) { d.DomainsRemoved = append(d.DomainsRemoved, domain) })
		return true
	})
	v.EachGlueSpans(func(host dnsname.Name, spans *interval.Set) bool {
		spread(spans, func(d *DayDelta) { d.GlueAdded = append(d.GlueAdded, host) },
			func(d *DayDelta) { d.GlueRemoved = append(d.GlueRemoved, host) })
		return true
	})
	sortEdges := func(es []zonedb.Edge) {
		sort.Slice(es, func(i, j int) bool {
			if es[i].Domain != es[j].Domain {
				return es[i].Domain < es[j].Domain
			}
			return es[i].NS < es[j].NS
		})
	}
	sortNames := func(ns []dnsname.Name) {
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
	for _, d := range days {
		sortEdges(d.EdgesAdded)
		sortEdges(d.EdgesRemoved)
		sortNames(d.DomainsAdded)
		sortNames(d.DomainsRemoved)
		sortNames(d.GlueAdded)
		sortNames(d.GlueRemoved)
	}
	return days, first
}

// sparseView holds two facts a million days apart.
func sparseView() *zonedb.View {
	db := zonedb.New()
	db.DomainAdded(com, "early.com", 10)
	db.DomainRemoved(com, "early.com", 20)
	db.DomainAdded(com, "late.com", 1_000_000)
	db.DelegationAdded(com, "late.com", "ns.late.com", 1_000_000)
	db.Close(1_000_050)
	return db.View()
}

// buildsReference fails unless Build makes of v what referenceBuild does,
// day for day.
func buildsReference(t *testing.T, name string, v *zonedb.View) {
	t.Helper()
	idx, err := Build(v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, first := referenceBuild(v)
	if idx.First() != first || idx.Last() != v.CloseDay() || idx.Days() != len(want) {
		t.Errorf("%s: index (%s..%s, %d days), reference (%s..%s, %d days)",
			name, idx.First(), idx.Last(), idx.Days(), first, v.CloseDay(), len(want))
	}
	for d, w := range want {
		if g := idx.Day(d); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s, %s: delta %+v, reference %+v", name, d, g, w)
		}
	}
	// Every other day is quiet, the days either side of the record too.
	if first != dates.None {
		for d := first - 1; d <= v.CloseDay()+1 && d <= first+20_000; d++ {
			if g := idx.Day(d); want[d] == nil && (g.Day != d || !g.Empty()) {
				t.Fatalf("%s, %s: delta %+v on a quiet day", name, d, g)
			}
		}
	}
}

// TestBuildEqualsReference holds Build to referenceBuild day for day:
// over simulated worlds whole and sharded, and over the views that leave
// the dense day axis — none, a span past the close day, two facts a
// million days apart.
func TestBuildEqualsReference(t *testing.T) {
	views := map[string]*zonedb.View{"sparse": sparseView()}
	for seed := int64(1); seed <= 3; seed++ {
		v := world(t, 1, seed)
		views[fmt.Sprintf("seed %d", seed)] = v
		views[fmt.Sprintf("seed %d shard 0/2", seed)] = v.FilterShard(0, 2).View()
		views[fmt.Sprintf("seed %d shard 1/2", seed)] = v.FilterShard(1, 2).View()
	}
	empty := zonedb.New()
	empty.Close(day("2020-01-01"))
	views["empty"] = empty.View()
	// A delegation made and withdrawn after the day the view closes on:
	// the span's start is on the record, its end is not.
	late := zonedb.New()
	late.DomainAdded(com, "example.com", day("2020-01-01"))
	late.DelegationAdded(com, "example.com", "ns1.example.com", day("2020-01-05"))
	late.DelegationRemoved(com, "example.com", "ns1.example.com", day("2020-01-10"))
	late.Close(day("2020-01-03"))
	views["span past the close day"] = late.View()

	for name, v := range views {
		buildsReference(t, name, v)
	}
	if got := len(views["span past the close day"].EdgeSpans("example.com", "ns1.example.com").Spans()); got != 1 {
		t.Fatalf("the late view holds %d spans of its edge, want 1", got)
	}
}

// TestBuildAcrossProcs: Build buckets edges and names on goroutines of
// their own and sorts on GOMAXPROCS of them, and what it makes does not
// depend on how many cores it had. At GOMAXPROCS 1, 2 and 8 it equals
// referenceBuild on a scale-2 world, replayed and loaded from its
// segment, and on the sparse view, and leaves no goroutine behind.
func TestBuildAcrossProcs(t *testing.T) {
	v := world(t, 2, 1)
	views := []struct {
		name string
		v    *zonedb.View
	}{{"scale 2", v}, {"scale 2 loaded", loaded(t, v)}, {"sparse", sparseView()}}
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, c := range views {
				base := runtime.NumGoroutine()
				buildsReference(t, fmt.Sprintf("GOMAXPROCS=%d, %s", procs, c.name), c.v)
				for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("GOMAXPROCS=%d, %s: %d goroutines after Build, %d before", procs, c.name, runtime.NumGoroutine(), base)
					}
				}
			}
		}()
	}
}

// TestExtendAcrossAGap: an epoch that closes a million days on, with two
// events either end of the gap, extends to what Build makes of it — and
// does not count the days between.
func TestExtendAcrossAGap(t *testing.T) {
	db := zonedb.New()
	db.DomainAdded(com, "early.com", 10)
	db.Close(20)
	prev, err := Build(db.View())
	if err != nil {
		t.Fatal(err)
	}
	db.DomainRemoved(com, "early.com", 30)
	db.DomainAdded(com, "late.com", 1_000_000)
	db.Close(1_000_050)
	ext, err := Extend(prev, db.View())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(db.View())
	if err != nil {
		t.Fatal(err)
	}
	if ext.First() != 10 || ext.Days() != 3 || !reflect.DeepEqual(ext.days, want.days) {
		t.Errorf("extended index (%s.., %d days) %+v, built %+v", ext.First(), ext.Days(), ext.days, want.days)
	}
}

// TestBuildListsDoNotAlias: a day's lists are cut from shared slabs, so
// growing one must copy it out rather than write over its neighbour.
func TestBuildListsDoNotAlias(t *testing.T) {
	idx := history(t, 1, 7)
	var prev *DayDelta
	for d := idx.First(); d <= idx.Last(); d++ {
		dd := idx.Day(d)
		if len(dd.EdgesAdded) == 0 || len(dd.DomainsAdded) == 0 {
			continue
		}
		if prev != nil {
			nextEdge, nextName := dd.EdgesAdded[0], dd.DomainsAdded[0]
			_ = append(prev.EdgesRemoved, zonedb.Edge{Domain: "x", NS: "y"})
			_ = append(prev.EdgesAdded, zonedb.Edge{Domain: "x", NS: "y"})
			_ = append(prev.GlueRemoved, "x")
			_ = append(prev.DomainsAdded, "x")
			if dd.EdgesAdded[0] != nextEdge || dd.DomainsAdded[0] != nextName {
				t.Fatalf("%s: appending to the lists of %s wrote into them", d, prev.Day)
			}
		}
		prev = dd
	}
	if prev == nil {
		t.Fatal("no day adds both an edge and a domain")
	}
}

// TestBuildAllocations: Build allocates its tables and slabs, not per
// fact or per day — the same handful at twice the facts — and a view
// whose facts are a million days apart does not pay per day between.
func TestBuildAllocations(t *testing.T) {
	for _, scale := range []float64{2, 4} {
		v := world(t, scale, 1)
		if n := testing.AllocsPerRun(3, func() { Build(v) }); n > 64 {
			t.Errorf("scale %g: Build makes %v allocations, want at most 64", scale, n)
		}
	}
	v := sparseView()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	idx, err := Build(v)
	runtime.ReadMemStats(&after)
	if err != nil || idx.Days() != 3 {
		t.Fatalf("sparse view: %d days, %v", idx.Days(), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("sparse view: Build allocated %d bytes, want under 1 MiB", got)
	}
}

var benchIndex *Index

// BenchmarkBuild derives the whole index of a world from its spans: what
// a feed's first request costs after a rebuild. Scale 8 is the world of
// the bench's detect-cold workload, which builds over a view loaded from
// its segment (scale=8/loaded): the same facts as the replayed view, in
// other maps and slabs.
func BenchmarkBuild(b *testing.B) {
	replayed := map[float64]*zonedb.View{}
	for _, c := range []struct {
		scale  float64
		loaded bool
	}{{3, false}, {8, false}, {8, true}} {
		name := fmt.Sprintf("scale=%g", c.scale)
		if c.loaded {
			name += "/loaded"
		}
		b.Run(name, func(b *testing.B) {
			v := replayed[c.scale]
			if v == nil {
				r, _ := newReplay(b, history(b, c.scale, 1), 0)
				v = r.live.View()
				replayed[c.scale] = v
			}
			if c.loaded {
				v = loaded(b, v)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := Build(v)
				if err != nil {
					b.Fatal(err)
				}
				benchIndex = idx
			}
		})
	}
}

// loaded returns v after a round trip through its segment encoding.
func loaded(tb testing.TB, v *zonedb.View) *zonedb.View {
	tb.Helper()
	var buf bytes.Buffer
	if err := v.WriteSegment(&buf); err != nil {
		tb.Fatal(err)
	}
	db, err := zonedb.ReadSegment(buf.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	return db.View()
}

// BenchmarkExtendDay extends the index of a scale-3 world by one
// replayed day: what a feed costs per epoch on a dated advance. Each
// epoch's events and Close run outside the timer.
func BenchmarkExtendDay(b *testing.B) {
	hist := history(b, 3, 1)
	r, idx := newReplay(b, hist, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if r.day == hist.Last() {
			r, idx = newReplay(b, hist, 400)
		}
		v := r.advance(1)
		b.StartTimer()
		var err error
		if idx, err = Extend(idx, v); err != nil {
			b.Fatal(err)
		}
	}
	benchIndex = idx
}
