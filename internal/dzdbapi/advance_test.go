package dzdbapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
	"repro/internal/sim"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// body is what the server answers path with.
func body(t *testing.T, s *Server, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// snapList is a zonedb.SnapshotSource over snapshots in memory.
type snapList struct{ snaps []*dnszone.Snapshot }

func (l *snapList) Next() (*dnszone.Snapshot, string, error) {
	if len(l.snaps) == 0 {
		return nil, "", io.EOF
	}
	snap := l.snaps[0]
	l.snaps = l.snaps[1:]
	return snap, "", nil
}

// script drives one database through a random sequence of epochs over a
// small world, and after each holds the two extended answers — the delta
// index and the server's epoch state — to the ones derived from scratch.
type script struct {
	t   *testing.T
	rng *rand.Rand
	db  *zonedb.DB
	srv *Server
	idx *delta.Index // of the last epoch, extended where it could be

	day dates.Day // the database's close day

	// The script's own account of whether the next plain epoch must be an
	// advance: lineage is false while the tables came from bytes, reach is
	// the latest day any event or Close has named, and sealed says whether
	// the published view is known to be sealed through day for every fact
	// (yes), known not to be (no), or would take the database's own
	// bookkeeping to tell (unknown).
	lineage bool
	reach   dates.Day
	sealed  tri

	unique int            // names made so far for events that must take effect
	drawn  map[string]int // epochs by kind, and paths taken
}

type tri int

const (
	unknown tri = iota
	yes
	no
)

var (
	scriptZones   = []dnsname.Name{"com", "net", "org"}
	scriptDomains = func() (out []dnsname.Name) {
		for _, z := range scriptZones {
			for i := 0; i < 6; i++ {
				out = append(out, dnsname.Name(fmt.Sprintf("d%d.%s", i, z)))
			}
		}
		return out
	}()
	scriptNS = []dnsname.Name{"ns1.d0.com", "ns2.d0.com", "ns1.d1.net", "ns1.d2.org", "a.dns.biz", "b.dns.biz", "ns.solo.net"}
)

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

// events issues a few random events dated day, among them the shapes an
// extension could get wrong: a fact added and removed the same day,
// removed and re-added the same day, and added twice.
func (s *script) events(day dates.Day) {
	s.reach = dates.Max(s.reach, day)
	for n := s.rng.Intn(6); n > 0; n-- {
		dom, ns := pick(s.rng, scriptDomains), pick(s.rng, scriptNS)
		zone := dom.TLD()
		switch s.rng.Intn(12) {
		case 0, 1, 2:
			s.db.DelegationAdded(zone, dom, ns, day)
		case 3, 4:
			s.db.DelegationRemoved(zone, dom, ns, day)
		case 5:
			s.db.DomainAdded(zone, dom, day)
		case 6:
			s.db.DomainRemoved(zone, dom, day)
		case 7:
			s.db.GlueAdded(ns.TLD(), ns, day)
		case 8:
			s.db.GlueRemoved(ns.TLD(), ns, day)
		case 9: // same-day add then remove
			s.db.DelegationAdded(zone, dom, ns, day)
			s.db.DelegationRemoved(zone, dom, ns, day)
			s.db.GlueAdded(ns.TLD(), ns, day)
			s.db.GlueRemoved(ns.TLD(), ns, day)
		case 10: // same-day remove then re-add
			s.db.DelegationRemoved(zone, dom, ns, day)
			s.db.DelegationAdded(zone, dom, ns, day)
			s.db.DomainRemoved(zone, dom, day)
			s.db.DomainAdded(zone, dom, day)
		case 11: // duplicate add
			s.db.DelegationAdded(zone, dom, ns, day)
			s.db.DelegationAdded(zone, dom, ns, day)
		}
	}
}

// fresh returns a domain no event has named, so that the event naming it
// takes effect whatever the database holds.
func (s *script) fresh() dnsname.Name {
	s.unique++
	return dnsname.Name(fmt.Sprintf("u%d.com", s.unique))
}

// close publishes the epoch by Close(day) and checks it. plain says the
// epoch did nothing but issue events dated after the close day before it
// and no later than day.
func (s *script) close(kind string, day dates.Day, plain bool) {
	want := unknown
	switch {
	case !plain || day <= s.day || s.sealed == no:
		want = no
	case s.sealed == yes:
		want = yes
	}
	next := unknown
	if day >= s.reach {
		next = no
		if s.lineage {
			next = yes
		}
	}
	s.db.Close(day)
	s.day, s.reach, s.sealed = day, dates.Max(s.reach, day), next
	s.check(kind, want)
}

// adopt publishes other's tables as the next epoch, never an advance.
func (s *script) adopt(kind string, other *zonedb.DB, lineage bool, sealed tri) {
	s.db.Adopt(other)
	s.day = other.View().CloseDay()
	s.lineage, s.reach, s.sealed = lineage, s.day, sealed
	s.check(kind, no)
}

// step runs one epoch of a randomly drawn kind. Over half are plain and a
// tenth adopt a sealed database, so a script spends about as long on a
// lineage that can advance as on one that cannot.
func (s *script) step() {
	switch k := s.rng.Intn(40); {
	case k == 0:
		s.db.DomainAdded("com", s.fresh(), s.day-dates.Day(s.rng.Intn(3)))
		s.events(s.day + 1)
		s.close("back-dated event", s.day+1, false)
	case k == 1:
		s.events(s.day + 1)
		s.reach = dates.Max(s.reach, s.day+3)
		s.db.DomainAdded("com", s.fresh(), s.day+3)
		s.close("future-dated event", s.day+1, false)
	case k == 2:
		s.close("Close with the same day", s.day, false)
	case k == 3:
		s.close("Close with an earlier day", s.day-1, false)
	case k == 4: // zones end on different days, and the next Close evens them out
		s.events(s.day + 1)
		last := map[dnsname.Name]dates.Day{"com": s.day + 2, "net": s.day + 1, "org": s.day + 2, "biz": s.day + 1}
		s.db.CloseZones(last)
		s.day, s.reach, s.sealed = s.day+2, dates.Max(s.reach, s.day+2), no
		s.check("CloseZones with ragged ends", no)
		s.events(s.day + 1)
		s.close("Close after CloseZones", s.day+1, true)
	case k == 5: // the served view through its segment: tables from bytes
		var buf bytes.Buffer
		if err := s.db.View().WriteSegment(&buf); err != nil {
			s.t.Fatal(err)
		}
		other, err := zonedb.ReadSegment(buf.Bytes())
		if err != nil {
			s.t.Fatal(err)
		}
		s.adopt("Adopt of ReadSegment", other, false, no)
	case k == 6 && len(s.db.View().Zones()) > 0: // two days of the served view re-ingested in parallel: absorb
		ing := zonedb.NewIngester()
		ing.Workers = 2
		var snaps []*dnszone.Snapshot
		for _, day := range []dates.Day{s.day - 1, s.day} {
			for _, z := range s.db.View().Zones() {
				snaps = append(snaps, s.db.View().SnapshotOn(z, day))
			}
		}
		if err := ing.IngestAll(&snapList{snaps: snaps}); err != nil {
			s.t.Fatal(err)
		}
		s.adopt("Adopt of a parallel ingest", ing.Finish(), true, no)
	case k == 7: // the served view's first shard: a projection, not an event log
		s.adopt("Adopt of a shard projection", s.db.View().FilterShard(0, 2), false, no)
	case k < 12: // a database built by events elsewhere, sealed by Close
		other := zonedb.New()
		for _, dom := range scriptDomains[:4] {
			other.DomainAdded(dom.TLD(), dom, s.day-5)
			other.DelegationAdded(dom.TLD(), dom, pick(s.rng, scriptNS), s.day-3)
		}
		other.Close(s.day + 1)
		s.adopt("Adopt of a sealed database", other, true, yes)
	case k < 16:
		s.close("empty epoch", s.day+1, true)
	default: // one to three days of events under one Close
		last := s.day + dates.Day(1+s.rng.Intn(3))
		for d := s.day + 1; d <= last; d++ {
			s.events(d)
		}
		kind := "plain"
		if last > s.day+1 {
			kind = "skipped closes"
		}
		s.close(kind, last, true)
	}
}

// check holds the epoch just published to the from-scratch answers.
func (s *script) check(kind string, want tri) {
	t := s.t
	t.Helper()
	s.drawn[kind]++
	v := s.db.View()
	advance := v.Advance() != nil
	if (want == yes && !advance) || (want == no && advance) {
		t.Fatalf("%s (epoch %d, closed %s): advance = %v", kind, v.Epoch(), v.CloseDay(), advance)
	}

	// The index: extended from the epoch before when the view says it can
	// be, refused otherwise, and equal to Build either way.
	built, err := delta.Build(v)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := delta.Extend(s.idx, v)
	if advance != (err == nil) {
		t.Fatalf("%s (epoch %d): advance = %v, Extend: %v", kind, v.Epoch(), advance, err)
	}
	if !advance {
		ext = built
	}
	sameIndex(t, kind, ext, built)
	s.idx = ext

	// The server took the same way, by its own counter, and holds the
	// state a walk of the view yields.
	how := "rebuild"
	if advance {
		how = "advance"
	}
	s.drawn[how]++
	if got := int(s.srv.published.With(how).Value()); got != s.drawn[how] {
		t.Fatalf("%s (epoch %d): %d epochs counted as %s, want %d", kind, v.Epoch(), got, how, s.drawn[how])
	}
	if got, want := int(s.srv.hookSeconds.Count()), s.drawn["advance"]+s.drawn["rebuild"]; got != want {
		t.Fatalf("%s (epoch %d): %d publish hooks timed, want %d", kind, v.Epoch(), got, want)
	}
	got, ref := s.srv.state.Load(), computeState(v)
	if got.Epoch != ref.Epoch || !reflect.DeepEqual(got.Stats, ref.Stats) {
		t.Fatalf("%s (epoch %d): stats %+v, want %+v", kind, v.Epoch(), got.Stats, ref.Stats)
	}
	if !reflect.DeepEqual(got.exposure, ref.exposure) || !reflect.DeepEqual(got.open, ref.open) {
		t.Fatalf("%s (epoch %d): exposure table\n got %+v %v\nwant %+v %v", kind, v.Epoch(), got.exposure, got.open, ref.exposure, ref.open)
	}
	if !reflect.DeepEqual(got.TopNS, ref.TopNS) {
		t.Fatalf("%s (epoch %d): leaderboard\n got %+v\nwant %+v", kind, v.Epoch(), got.TopNS, ref.TopNS)
	}

	// Bodies, against a server started on the same view. Some epochs go
	// unread, so the next one finds no index to extend and builds its own
	// on demand.
	if s.rng.Intn(4) == 0 {
		return
	}
	fresh := New(s.db)
	fresh.SetShardIdentity(0, 1)
	paths := []string{"/v1/stats", "/v1/deltas", "/v1/deltas?limit=3", "/v1/top/nameservers?limit=100", "/v1/internal/ns-exposure"}
	for cursor := ""; ; {
		path := "/v1/internal/ns-exposure?limit=2" + cursor
		paths = append(paths, path)
		var page NSExposureResponse
		if err := json.Unmarshal(body(t, fresh, path), &page); err != nil {
			t.Fatal(err)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = "&cursor=" + page.NextCursor
	}
	for _, path := range paths {
		if got, want := body(t, s.srv, path), body(t, fresh, path); !bytes.Equal(got, want) {
			t.Fatalf("%s (epoch %d): GET %s\n got %s\nwant %s", kind, v.Epoch(), path, got, want)
		}
	}
}

// sameIndex fails unless got answers every question the way want does.
func sameIndex(t *testing.T, kind string, got, want *delta.Index) {
	t.Helper()
	if got.Epoch() != want.Epoch() || got.First() != want.First() || got.Last() != want.Last() || got.Days() != want.Days() {
		t.Fatalf("%s: index (epoch %d, %s..%s, %d days), want (epoch %d, %s..%s, %d days)", kind,
			got.Epoch(), got.First(), got.Last(), got.Days(), want.Epoch(), want.First(), want.Last(), want.Days())
	}
	if want.First() == dates.None {
		return
	}
	for d := want.First() - 1; d <= want.Last()+1; d++ {
		if g, w := got.Day(d), want.Day(d); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s: delta %+v, want %+v", kind, d, g, w)
		}
	}
}

// TestAdvanceEquivalence is the generative oracle for O(change) publish:
// over seeds × random event scripts, every epoch's extended delta index
// equals delta.Build of its view, the server's maintained exposure table
// and leaderboard equal a fresh computeState, and the bodies that render
// them are byte-identical to a server started on the same view — on
// plain dated advances, which must take the extension, and across every
// way an epoch stops being one, which must fall back to the walk.
func TestAdvanceEquivalence(t *testing.T) {
	const seeds, epochs = 24, 40
	drawn := make(map[string]int)
	for seed := int64(1); seed <= seeds; seed++ {
		s := &script{t: t, rng: rand.New(rand.NewSource(seed)), db: zonedb.New(), drawn: make(map[string]int),
			day: dates.FromYMD(2015, 1, 1), lineage: true, reach: dates.None}
		s.srv = New(s.db)
		s.srv.SetShardIdentity(0, 1) // the exposure table is paged on /v1/internal/ns-exposure
		var err error
		if s.idx, err = delta.Build(sealedEmpty(t)); err != nil {
			t.Fatal(err)
		}
		// Odd seeds start the way a registry does, with a history of
		// events sealed by the first Close; even seeds from an empty
		// database sealed before its first fact.
		if seed%2 == 1 {
			for d := s.day - 20; d <= s.day; d++ {
				s.events(d)
			}
			s.close("first Close of a history", s.day, true)
		} else {
			s.close("first Close, empty", s.day, true)
			s.events(s.day + 1)
			s.close("first facts after an empty sealed DB", s.day+1, true)
		}
		for i := 0; i < epochs; i++ {
			s.step()
		}
		for k, n := range s.drawn {
			drawn[k] += n
		}
	}
	for _, kind := range []string{
		"advance", "rebuild", "plain", "skipped closes", "empty epoch", "first facts after an empty sealed DB",
		"back-dated event", "future-dated event", "Close with the same day", "Close with an earlier day",
		"CloseZones with ragged ends", "Close after CloseZones", "Adopt of a sealed database", "Adopt of ReadSegment",
		"Adopt of a parallel ingest", "Adopt of a shard projection",
	} {
		if drawn[kind] == 0 {
			t.Errorf("no script drew %q", kind)
		}
	}
	t.Logf("%d seeds: %d epochs advanced, %d rebuilt", seeds, drawn["advance"], drawn["rebuild"])
}

// sealedEmpty is a view no index can be extended from: the script's
// stand-in for "no index yet".
func sealedEmpty(t *testing.T) *zonedb.View {
	t.Helper()
	db := zonedb.New()
	db.Close(dates.FromYMD(2000, 1, 1))
	return db.View()
}

// TestRankNameserversSelects holds the one-pass selection to a full sort,
// on rows with ties at every level of the order.
func TestRankNameserversSelects(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, topNSKeep - 1, topNSKeep, topNSKeep + 1, 1000} {
		rows := make([]TopNameserver, n)
		for i := range rows {
			rows[i] = TopNameserver{Nameserver: fmt.Sprintf("ns%04d.example", rng.Intn(5000)), Domains: rng.Intn(8), DomainDays: rng.Intn(4)}
		}
		given := slices.Clone(rows)
		got := RankNameservers(rows)
		if !reflect.DeepEqual(rows, given) {
			t.Fatalf("n=%d: RankNameservers reordered its input", n)
		}
		want := slices.Clone(rows)
		sort.SliceStable(want, func(i, j int) bool { return outranks(want[i], want[j]) })
		if len(want) > topNSKeep {
			want = want[:topNSKeep]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: leaderboard\n got %+v\nwant %+v", n, got, want)
		}
	}
}

// churnDB is a sealed database of n domains on two nameservers each, and
// flip, which publishes the next day as an advance that rewrites every
// delegation — removed and re-added the same day, so each key is touched
// twice and no span grows.
func churnDB(n int) (db *zonedb.DB, flip func()) {
	db = zonedb.New()
	day := dates.FromYMD(2015, 1, 1)
	var edges []zonedb.Edge
	for i := 0; i < n; i++ {
		dom := dnsname.Name(fmt.Sprintf("d%04d.com", i))
		db.DomainAdded("com", dom, day)
		for _, ns := range []dnsname.Name{"ns1.host.net", dnsname.Name(fmt.Sprintf("ns.d%04d.com", i))} {
			db.DelegationAdded("com", dom, ns, day)
			edges = append(edges, zonedb.Edge{Domain: dom, NS: ns})
		}
	}
	db.Close(day)
	return db, func() {
		day++
		for _, e := range edges {
			db.DelegationRemoved("com", e.Domain, e.NS, day)
			db.DelegationAdded("com", e.Domain, e.NS, day)
		}
		db.DomainAdded("com", dnsname.Name(fmt.Sprintf("new%d.com", day)), day)
		db.Close(day)
	}
}

// TestAdvanceImmutability: readers page the feed of a pinned epoch while
// the writer publishes fifty advances, each extending the index of the
// epoch before — a chain that starts at the pinned one. Under -race a
// write into a DayDelta the pinned index shares is a reported race; in
// any mode the pinned pages must come back byte for byte.
func TestAdvanceImmutability(t *testing.T) {
	db, flip := churnDB(40)
	srv := New(db)
	flip()
	pinned := srv.state.Load()
	page := func(path string) []byte {
		rec := httptest.NewRecorder()
		srv.deltas(rec, httptest.NewRequest(http.MethodGet, path, nil), pinned)
		return rec.Body.Bytes()
	}
	paths := []string{"/v1/deltas", "/v1/deltas?limit=1", "/v1/deltas?from=2015-01-02"}
	var want [][]byte
	for _, p := range paths {
		want = append(want, page(p)) // the first of these builds the pinned index
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, p := range paths {
					if got := page(p); !bytes.Equal(got, want[i]) {
						t.Errorf("pinned epoch %d: GET %s changed\n got %s\nwant %s", pinned.Epoch, p, got, want[i])
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		flip()
		st := srv.state.Load()
		if st.Feed.(*indexFeed).idx.Load() == nil {
			t.Fatalf("epoch %d: the publish hook did not extend the index of the epoch before", st.Epoch)
		}
		body(t, srv, "/v1/deltas?limit=1")
	}
	close(stop)
	wg.Wait()
	if got := srv.published.With("advance").Value(); got != 51 {
		t.Fatalf("%d epochs advanced, want 51", got)
	}
}

// TestAdvanceRetention: two hundred advances with no feed consumer, each
// touching four thousand keys, leave the heap where the first of them
// left it (1.4 MB; it has read 1.3 MB after). The bound is 2 MiB over
// that: one epoch's lists are 130 KB and its cloned tables 900 KB, so a
// database that kept its lists stands 26 MB past it and a view or feed
// that kept its predecessor 186 MB (both tried).
func TestAdvanceRetention(t *testing.T) {
	db, flip := churnDB(1000)
	srv := New(db)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	flip()
	base := heap()
	for i := 0; i < 200; i++ {
		flip()
	}
	after := heap()
	t.Logf("heap after the first advance %d bytes, after 200 more %d", base, after)
	const bound = 2 << 20
	if after > base+bound {
		t.Fatalf("heap grew from %d to %d bytes over 200 unread epochs, more than the %d allowed", base, after, bound)
	}
	if st := srv.state.Load(); st.Feed.(*indexFeed).idx.Load() != nil {
		t.Fatal("an epoch nobody read built an index")
	}
	if got := srv.published.With("advance").Value(); got != 201 {
		t.Fatalf("%d epochs advanced, want 201", got)
	}
	runtime.KeepAlive(srv)
}

// BenchmarkPublishAdvance is the publish hook on one replayed day of a
// scale-3 world with a feed consumer reading every epoch: the exposure
// table advanced and the delta index extended. The day's events, its
// Close and the consumer's read run outside the timer, and the server
// is fed the views by hand so that nothing but its hook is inside.
func BenchmarkPublishAdvance(b *testing.B) {
	cfg := sim.DefaultConfig(3)
	cfg.Seed = 1
	w, err := sim.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
	hist, err := delta.Build(w.ZoneDB().View())
	if err != nil {
		b.Fatal(err)
	}
	var live *zonedb.DB
	var srv *Server
	var day dates.Day
	apply := func(day dates.Day) {
		dd := hist.Day(day)
		for _, e := range dd.EdgesRemoved {
			live.DelegationRemoved(e.Domain.TLD(), e.Domain, e.NS, day)
		}
		for _, d := range dd.DomainsRemoved {
			live.DomainRemoved(d.TLD(), d, day)
		}
		for _, h := range dd.GlueRemoved {
			live.GlueRemoved(h.TLD(), h, day)
		}
		for _, d := range dd.DomainsAdded {
			live.DomainAdded(d.TLD(), d, day)
		}
		for _, h := range dd.GlueAdded {
			live.GlueAdded(h.TLD(), h, day)
		}
		for _, e := range dd.EdgesAdded {
			live.DelegationAdded(e.Domain.TLD(), e.Domain, e.NS, day)
		}
	}
	restart := func() {
		live, srv, day = zonedb.New(), New(zonedb.New()), hist.Last()-400
		for d := hist.First(); d <= day; d++ {
			apply(d)
		}
		live.Close(day)
		srv.onPublish(live.View())
		srv.state.Load().Feed.Window()
	}
	restart()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if day == hist.Last() {
			restart()
		}
		day++
		apply(day)
		live.Close(day)
		v := live.View()
		b.StartTimer()
		srv.onPublish(v)
		b.StopTimer()
		srv.state.Load().Feed.Window()
		b.StartTimer()
	}
	if got := srv.published.With("advance").Value(); got == 0 {
		b.Fatal("no epoch advanced")
	}
}
