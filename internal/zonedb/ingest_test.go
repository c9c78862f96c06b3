package zonedb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"testing/fstest"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
	"repro/internal/interval"
)

var glueAddr = netip.MustParseAddr("192.0.2.5")

// eventDB and the matching snapshot series describe the same three-day
// history through both channels.
func buildBoth(t *testing.T) (events, ingested *DB) {
	t.Helper()
	// Event channel.
	ev := New()
	ev.DelegationAdded("com", "a.com", "ns1.a.com", d(0))
	ev.GlueAdded("com", "ns1.a.com", d(0))
	ev.DelegationAdded("com", "b.com", "ns1.a.com", d(1))
	ev.DelegationRemoved("com", "b.com", "ns1.a.com", d(2))
	ev.DelegationAdded("com", "b.com", "dropthishost-q.biz", d(2))
	ev.Close(d(2))

	// Snapshot channel: the daily zone files the same history produces.
	ing := NewIngester()
	mk := func(day dates.Day, rows map[dnsname.Name][]dnsname.Name) *dnszone.Snapshot {
		s := dnszone.NewSnapshot("com", day)
		for dom, ns := range rows {
			s.AddDelegation(dom, ns...)
		}
		s.AddGlue("ns1.a.com", glueAddr)
		s.Sort()
		return s
	}
	snaps := []*dnszone.Snapshot{
		mk(d(0), map[dnsname.Name][]dnsname.Name{"a.com": {"ns1.a.com"}}),
		mk(d(1), map[dnsname.Name][]dnsname.Name{"a.com": {"ns1.a.com"}, "b.com": {"ns1.a.com"}}),
		mk(d(2), map[dnsname.Name][]dnsname.Name{"a.com": {"ns1.a.com"}, "b.com": {"dropthishost-q.biz"}}),
	}
	for _, s := range snaps {
		if err := ing.AddSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	return ev, ing.Finish()
}

func TestIngestMatchesEvents(t *testing.T) {
	ev, ing := buildBoth(t)
	type probe struct{ dom, ns dnsname.Name }
	for _, p := range []probe{
		{"a.com", "ns1.a.com"}, {"b.com", "ns1.a.com"}, {"b.com", "dropthishost-q.biz"},
	} {
		a, b := ev.View().EdgeSpans(p.dom, p.ns), ing.View().EdgeSpans(p.dom, p.ns)
		if a.String() != b.String() {
			t.Errorf("edge %v: events %s vs ingest %s", p, a.String(), b.String())
		}
	}
	if ev.View().GlueSpans("ns1.a.com").String() != ing.View().GlueSpans("ns1.a.com").String() {
		t.Error("glue spans differ")
	}
	if ev.View().NSFirstSeen("dropthishost-q.biz") != ing.View().NSFirstSeen("dropthishost-q.biz") {
		t.Error("first-seen differs")
	}
}

func TestIngestRejectsGapsAndReordering(t *testing.T) {
	ing := NewIngester()
	s0 := dnszone.NewSnapshot("com", d(0))
	s0.AddDelegation("a.com", "ns1.x.net")
	if err := ing.AddSnapshot(s0); err != nil {
		t.Fatal(err)
	}
	gap := dnszone.NewSnapshot("com", d(5))
	if err := ing.AddSnapshot(gap); err == nil {
		t.Error("gap should be rejected")
	}
	back := dnszone.NewSnapshot("com", d(0))
	if err := ing.AddSnapshot(back); err == nil {
		t.Error("same-day replay should be rejected")
	}
	undated := dnszone.NewSnapshot("com", dates.None)
	if err := ing.AddSnapshot(undated); err == nil {
		t.Error("undated snapshot should be rejected")
	}
}

func TestIngestMultipleZonesIndependent(t *testing.T) {
	ing := NewIngester()
	for day := 0; day < 3; day++ {
		sc := dnszone.NewSnapshot("com", d(day))
		sc.AddDelegation("a.com", "ns1.x.net")
		if err := ing.AddSnapshot(sc); err != nil {
			t.Fatal(err)
		}
	}
	// .org only starts on day 2; that is its first observation, not a gap.
	so := dnszone.NewSnapshot("org", d(2))
	so.AddDelegation("b.org", "ns1.x.net")
	if err := ing.AddSnapshot(so); err != nil {
		t.Fatal(err)
	}
	db := ing.Finish()
	if got := db.View().EdgeSpans("a.com", "ns1.x.net").TotalDays(); got != 3 {
		t.Errorf("a.com edge days = %d", got)
	}
	if got := db.View().EdgeSpans("b.org", "ns1.x.net").TotalDays(); got != 1 {
		t.Errorf("b.org edge days = %d", got)
	}
	if len(db.View().Zones()) != 2 {
		t.Errorf("zones = %v", db.View().Zones())
	}
}

// mislabelled is a zone file whose header says com over records in net:
// dnszone.Read keeps the header's zone, so every owner sits outside it.
var mislabelled = "; zone com snapshot " + d(1).String() + "\n$ORIGIN net.\nfoo 86400 IN NS ns1.x.org.\n"

// secondOrigin changes $ORIGIN half-way: the records after it are in net,
// the file is com's.
var secondOrigin = "; zone com snapshot " + d(1).String() + "\n$ORIGIN com.\na 86400 IN NS ns1.x.org.\n" +
	"$ORIGIN net.\nfoo 86400 IN NS ns1.x.org.\nns1.foo 86400 IN A 192.0.2.1\n"

// TestIngestRejectsRecordsOutsideZone: the DB seals a fact on the last day
// of the zone its name ends in, so a record filed under any other zone
// used to be published with no days at all. Such a snapshot is corrupt,
// and is rejected before it changes anything.
func TestIngestRejectsRecordsOutsideZone(t *testing.T) {
	day0 := snapBytes(t, "com", d(0), map[dnsname.Name][]dnsname.Name{"a.com": {"ns1.x.org"}})
	day1 := snapBytes(t, "com", d(1), map[dnsname.Name][]dnsname.Name{"a.com": {"ns1.x.org"}})
	want := func() string {
		ing := NewIngester()
		if err := ing.IngestAll(&FileSource{FS: fstest.MapFS{"0": {Data: day0}, "1": {Data: day1}}, Paths: []string{"0", "1"}}); err != nil {
			t.Fatal(err)
		}
		return archive(t, ing.Finish())
	}()

	for name, bad := range map[string]string{"header over another origin": mislabelled, "second $ORIGIN mid-file": secondOrigin} {
		fsys := fstest.MapFS{"0": {Data: day0}, "bad": {Data: []byte(bad)}, "1": {Data: day1}}
		paths := []string{"0", "bad", "1"}
		for _, workers := range []int{0, 2} {
			strict := NewIngester()
			strict.Workers = workers
			err := strict.IngestAll(&FileSource{FS: fsys, Paths: paths})
			if !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "bad") {
				t.Errorf("%s, workers=%d: strict ingest = %v, want ErrSnapshotCorrupt naming the file", name, workers, err)
			}

			degraded := NewIngester()
			degraded.Degraded, degraded.Workers = true, workers
			if err := degraded.IngestAll(&FileSource{FS: fsys, Paths: paths}); err != nil {
				t.Fatalf("%s, workers=%d: degraded ingest: %v", name, workers, err)
			}
			q := degraded.Quarantine().Entries
			if len(q) != 1 || q[0].Source != "bad" || q[0].Reason != "corrupt" || q[0].Zone != "com" || q[0].Date != d(1) {
				t.Errorf("%s, workers=%d: quarantine = %+v", name, workers, q)
			}
			db := degraded.Finish()
			if got := archive(t, db); got != want {
				t.Errorf("%s, workers=%d: the rejected snapshot changed the database:\n%s", name, workers, got)
			}
			db.View().EachNSOf("foo.net", func(dnsname.Name, *interval.Set) bool {
				t.Errorf("%s, workers=%d: foo.net was published", name, workers)
				return false
			})

			capped := NewIngester()
			capped.Degraded, capped.Workers, capped.MaxQuarantine = true, workers, 1
			fsys["worse"] = &fstest.MapFile{Data: []byte(bad)}
			err = capped.IngestAll(&FileSource{FS: fsys, Paths: []string{"0", "bad", "worse", "1"}})
			if !errors.Is(err, ErrTooManyQuarantined) {
				t.Errorf("%s, workers=%d: second corrupt file with MaxQuarantine=1: %v", name, workers, err)
			}
		}
	}

	// Built in memory rather than parsed: a delegation owner and a glue
	// host are each checked, and the zone apex is inside its zone.
	ing := NewIngester()
	owner := dnszone.NewSnapshot("com", d(0))
	owner.AddDelegation("a.org", "ns1.x.net")
	glue := dnszone.NewSnapshot("com", d(0))
	glue.AddDelegation("a.com", "ns1.a.org")
	glue.AddGlue("ns1.a.org", glueAddr)
	for _, s := range []*dnszone.Snapshot{owner, glue} {
		if err := ing.AddSnapshot(s); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("AddSnapshot = %v, want ErrSnapshotCorrupt", err)
		}
	}
	apex := dnszone.NewSnapshot("com", d(0))
	apex.AddDelegation("com", "a.gtld-servers.net")
	if err := ing.AddSnapshot(apex); err != nil {
		t.Errorf("zone apex delegation: %v", err)
	}
}

// threeDays is a small history with every kind of change in it: domains
// and nameservers come and go, glue appears and vanishes, a domain loses
// every nameserver but one. Day 1 arrives twice and day 4 is missing, so
// a degraded ingest also has something to quarantine.
func threeDays() []*dnszone.Snapshot {
	mk := func(day dates.Day, rows map[dnsname.Name][]dnsname.Name, glue ...dnsname.Name) *dnszone.Snapshot {
		s := dnszone.NewSnapshot("com", day)
		for dom, ns := range rows {
			s.AddDelegation(dom, ns...)
		}
		for _, h := range glue {
			s.AddGlue(h, glueAddr)
			s.AddGlue(h, netip.MustParseAddr("2001:db8::5"))
		}
		s.Sort()
		return s
	}
	type rows = map[dnsname.Name][]dnsname.Name
	return []*dnszone.Snapshot{
		mk(d(0), rows{"a.com": {"ns1.a.com", "ns2.a.com"}, "b.com": {"ns1.a.com"}, "m.com": {"ns1.x.net", "ns2.x.net", "ns3.x.net"}}, "ns1.a.com", "ns2.a.com"),
		mk(d(1), rows{"a.com": {"ns1.a.com", "ns2.a.com"}, "c.com": {"ns1.a.com", "dropthishost-q.biz"}, "m.com": {"ns2.x.net"}}, "ns1.a.com"),
		mk(d(1), rows{"z.com": {"ns1.x.net"}}),
		mk(d(2), rows{"a.com": {"ns1.a.com"}, "b.com": {"ns9.x.net"}, "c.com": {"dropthishost-q.biz"}, "m.com": {"ns2.x.net", "ns4.x.net"}}, "ns1.a.com", "ns1.c.com"),
		mk(d(4), rows{"a.com": {"ns1.a.com"}}),
	}
}

// TestIngestOrderIndependent: the diff sorts what does not arrive sorted,
// so the order of a snapshot's records, repeated records, and a domain's
// nameservers scattered over several delegations change nothing — not the
// archive, not the quarantine report.
func TestIngestOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	variants := map[string]func(*dnszone.Snapshot) *dnszone.Snapshot{
		"sorted": func(s *dnszone.Snapshot) *dnszone.Snapshot { return s },
		"shuffled": func(s *dnszone.Snapshot) *dnszone.Snapshot {
			out := dnszone.NewSnapshot(s.Zone, s.Date)
			for _, i := range rng.Perm(len(s.Delegations)) {
				ns := append([]dnsname.Name(nil), s.Delegations[i].Nameservers...)
				rng.Shuffle(len(ns), func(a, b int) { ns[a], ns[b] = ns[b], ns[a] })
				out.AddDelegation(s.Delegations[i].Domain, ns...)
			}
			for _, i := range rng.Perm(len(s.Glue)) {
				out.AddGlue(s.Glue[i].Host, s.Glue[i].Addr)
			}
			return out
		},
		"duplicated and split": func(s *dnszone.Snapshot) *dnszone.Snapshot {
			// One delegation per nameserver, the first of each domain
			// repeated, in two interleaved rounds so that no domain's
			// delegations are neighbours.
			out := dnszone.NewSnapshot(s.Zone, s.Date)
			for round := 0; round < 4; round++ {
				for _, dl := range s.Delegations {
					if round < len(dl.Nameservers) {
						out.AddDelegation(dl.Domain, dl.Nameservers[round], dl.Nameservers[0])
					}
				}
			}
			for _, g := range s.Glue {
				out.AddGlue(g.Host, g.Addr)
			}
			for _, g := range s.Glue {
				out.AddGlue(g.Host, g.Addr)
			}
			return out
		},
		"written and read": func(s *dnszone.Snapshot) *dnszone.Snapshot {
			var buf bytes.Buffer
			if err := s.Write(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := dnszone.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return back
		},
	}
	ingest := func(variant func(*dnszone.Snapshot) *dnszone.Snapshot) (string, string) {
		ing := NewIngester()
		ing.Degraded = true
		for _, s := range threeDays() {
			if err := ing.AddSnapshot(variant(s)); err != nil {
				t.Fatal(err)
			}
		}
		var report strings.Builder
		for _, e := range ing.Quarantine().Entries {
			fmt.Fprintf(&report, "%s %s %s: %v\n", e.Zone, e.Date, e.Reason, e.Err)
		}
		return archive(t, ing.Finish()), report.String()
	}
	wantArchive, wantReport := ingest(variants["sorted"])
	if !strings.Contains(wantReport, "out-of-order") || !strings.Contains(wantReport, "gap") {
		t.Fatalf("report = %q, want the replayed day and the gap", wantReport)
	}
	for name, variant := range variants {
		gotArchive, gotReport := ingest(variant)
		if gotArchive != wantArchive {
			t.Errorf("%s: archive differs\n got %s\nwant %s", name, gotArchive, wantArchive)
		}
		if gotReport != wantReport {
			t.Errorf("%s: quarantine report %q, want %q", name, gotReport, wantReport)
		}
	}
}

// TestIngestDoesNotRetainSnapshot: what AddSnapshot keeps of a snapshot
// is its own, so a caller overwriting the snapshot's slices afterwards —
// or a parser reusing them — changes neither tomorrow's diff nor what is
// published.
func TestIngestDoesNotRetainSnapshot(t *testing.T) {
	run := func(scribble bool) string {
		ing := NewIngester()
		for _, s := range threeDays()[:2] {
			if err := ing.AddSnapshot(s); err != nil {
				t.Fatal(err)
			}
			if !scribble {
				continue
			}
			for i := range s.Delegations {
				for j := range s.Delegations[i].Nameservers {
					s.Delegations[i].Nameservers[j] = "overwritten.example"
				}
				s.Delegations[i] = dnszone.Delegation{Domain: "overwritten.com"}
			}
			for i := range s.Glue {
				s.Glue[i].Host = "overwritten.com"
			}
			s.Delegations, s.Glue = s.Delegations[:0], nil
		}
		if err := ing.AddSnapshot(threeDays()[3]); err != nil {
			t.Fatal(err)
		}
		return archive(t, ing.Finish())
	}
	if got, want := run(true), run(false); got != want {
		t.Errorf("overwriting ingested snapshots changed the database:\n got %s\nwant %s", got, want)
	}
}

// growingZone writes day's file of a zone of n domains that gains one
// domain, with nameservers and glue of its own, every day.
func growingZone(n int, day int) []byte {
	s := dnszone.NewSnapshot("com", d(day))
	for i := 0; i < n+day; i++ {
		dom := dnsname.Name(fmt.Sprintf("domain-%06d.com", i))
		if i < n {
			s.AddDelegation(dom, dnsname.Name(fmt.Sprintf("ns1.provider-%03d.net", i%300)), dnsname.Name(fmt.Sprintf("ns2.provider-%03d.net", i%300)))
			continue
		}
		s.AddDelegation(dom, dnsname.Join("ns1", dom), dnsname.Join("ns2", dom))
		s.AddGlue(dnsname.Join("ns1", dom), glueAddr)
	}
	s.Sort()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestIngestDoesNotRetainParseArenas: dnszone.Read carves a file's names
// from a few large chunks, and the database takes in a handful of new
// names a day. Were those names not copied out as they are inserted, each
// day's newcomer would keep one of that day's chunks alive for as long as
// the database lives. After 40 days of a 1 MB zone the database, alone on
// the heap, must be within 10 % of the database of day 0; without the
// copy it is 30 % larger.
func TestIngestDoesNotRetainParseArenas(t *testing.T) {
	const domains, days = 12000, 40
	if n := len(growingZone(domains, 0)); n < 1<<20 {
		t.Fatalf("zone file is %d bytes, want at least 1 MiB", n)
	}
	heapOf := func(days int) (uint64, *DB) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ing := NewIngester()
		for day := 0; day < days; day++ {
			snap, err := dnszone.Read(bytes.NewReader(growingZone(domains, day)))
			if err != nil {
				t.Fatal(err)
			}
			if err := ing.AddSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
		db := ing.Finish()
		ing = nil
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return after.HeapAlloc - before.HeapAlloc, db
	}
	one, db1 := heapOf(1)
	all, dbN := heapOf(days)
	t.Logf("database after 1 day %d bytes, after %d days %d bytes (%.3fx)", one, days, all, float64(all)/float64(one))
	if float64(all) > 1.10*float64(one) {
		t.Errorf("database after %d days holds %d bytes, %.2fx the %d of day 0: parse arenas are being retained", days, all, float64(all)/float64(one), one)
	}
	if got := dbN.View().NumDomains() - db1.View().NumDomains(); got != days-1 {
		t.Errorf("domains gained = %d, want %d", got, days-1)
	}
	runtime.KeepAlive(db1)
}

// BenchmarkAddSnapshotSteadyState is the write path's common case and the
// go-test twin of the benchmark's zonedb.add_us_per_record: the next day
// of a zone of 20,000 records of which about 0.5 % changed.
func BenchmarkAddSnapshotSteadyState(b *testing.B) {
	build := func(variant int) *dnszone.Snapshot {
		s := dnszone.NewSnapshot("com", d(0))
		for i := 0; i < 9000; i++ {
			dom := dnsname.Name(fmt.Sprintf("domain-%06d.com", i))
			ns1 := dnsname.Name(fmt.Sprintf("ns1.provider-%03d.net", i%300))
			ns2 := dnsname.Name(fmt.Sprintf("ns2.provider-%03d.net", i%300))
			if i%180 == 0 { // 50 domains change one nameserver: 100 records
				ns2 = dnsname.Name(fmt.Sprintf("ns%d.provider-%03d.net", 3+variant, i%300))
			}
			s.AddDelegation(dom, ns1, ns2)
			if i%5 == 0 {
				s.AddGlue(dnsname.Join("ns1", dom), glueAddr)
			}
		}
		s.Sort()
		return s
	}
	days := [2]*dnszone.Snapshot{build(0), build(1)}
	ing := NewIngester()
	if err := ing.AddSnapshot(days[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		s := days[i%2]
		s.Date = d(i)
		if err := ing.AddSnapshot(s); err != nil {
			b.Fatal(err)
		}
	}
}
