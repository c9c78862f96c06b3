package zonedb

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
)

// seedDB builds a small closed database through the event channel.
func seedDB() *DB {
	db := New()
	db.DomainAdded("com", "a.com", d(0))
	db.DelegationAdded("com", "a.com", "ns1.a.com", d(0))
	db.GlueAdded("com", "ns1.a.com", d(0))
	db.DomainAdded("org", "b.org", d(1))
	db.DelegationAdded("org", "b.org", "ns1.a.com", d(1))
	db.Close(d(2))
	return db
}

// series renders a daily snapshot run for one zone with one delegation
// per domain, suitable for SliceSource.
func series(zone dnsname.Name, days int, rows map[dnsname.Name][]dnsname.Name) []*dnszone.Snapshot {
	var out []*dnszone.Snapshot
	for day := 0; day < days; day++ {
		s := dnszone.NewSnapshot(zone, d(day))
		for dom, ns := range rows {
			s.AddDelegation(dom, ns...)
		}
		s.Sort()
		out = append(out, s)
	}
	return out
}

// TestViewPinsEpochAcrossAdopt: a View taken before a whole-database
// swap keeps serving the old generation, byte for byte, while View()
// calls after the swap see the new epoch.
func TestViewPinsEpochAcrossAdopt(t *testing.T) {
	db := seedDB()
	v0 := db.View()
	before := archiveView(t, v0)

	ing := NewIngester()
	for _, s := range series("net", 3, map[dnsname.Name][]dnsname.Name{"c.net": {"ns9.x.net"}}) {
		if err := ing.AddSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	db.Adopt(ing.Finish())

	if got := archiveView(t, v0); got != before {
		t.Error("pinned view changed across Adopt")
	}
	v1 := db.View()
	if v1.Epoch() <= v0.Epoch() {
		t.Errorf("epoch did not advance: %d -> %d", v0.Epoch(), v1.Epoch())
	}
	if v1.NumDomains() != 1 || v1.DomainSpans("c.net") == nil {
		t.Error("post-Adopt view does not serve the adopted data")
	}
	if v0.DomainSpans("a.com") == nil {
		t.Error("pinned view lost its data")
	}
}

// TestViewImmutableUnderWrites: mutating and re-Closing a DB after a
// publish must never leak into an already-held View (the copy-on-write
// contract).
func TestViewImmutableUnderWrites(t *testing.T) {
	db := seedDB()
	v := db.View()
	before := archiveView(t, v)
	spans := v.EdgeSpans("a.com", "ns1.a.com").String()

	// Extend an existing edge (clones the shared set), add a fresh one,
	// and publish a later close.
	db.DelegationAdded("com", "a.com", "ns1.a.com", d(3))
	db.DelegationAdded("com", "zz.com", "ns1.a.com", d(3))
	db.Close(d(9))

	if got := archiveView(t, v); got != before {
		t.Error("held view observed later writes")
	}
	if got := v.EdgeSpans("a.com", "ns1.a.com").String(); got != spans {
		t.Errorf("held view's edge spans changed: %s -> %s", spans, got)
	}
	if db.View().EdgeSpans("zz.com", "ns1.a.com") == nil {
		t.Error("new edge missing from the fresh view")
	}
}

// archiveView renders a view's archive for equality checks.
func archiveView(t *testing.T, v *View) string {
	t.Helper()
	var sb strings.Builder
	if err := v.WriteArchive(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestConcurrentReadsDuringReingest is the tentpole stress test (run
// under -race): reader goroutines hammer View() and query the results
// while the main goroutine interleaves direct mutation rounds with full
// parallel re-ingests swapped in via Adopt. Readers must only ever see
// fully published, internally consistent epochs.
func TestConcurrentReadsDuringReingest(t *testing.T) {
	db := seedDB()

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
				v := db.View()
				if !v.Closed() {
					t.Error("published view is not closed")
					return
				}
				n := v.NumDomains()
				for _, zone := range v.Zones() {
					v.SnapshotOn(zone, v.CloseDay())
				}
				v.Nameservers(func(ns dnsname.Name) bool {
					v.NSFirstSeen(ns)
					return true
				})
				if m := v.NumDomains(); m != n {
					t.Errorf("view changed underfoot: %d domains then %d", n, m)
					return
				}
			}
		}()
	}

	rows := map[dnsname.Name][]dnsname.Name{
		"a.com": {"ns1.a.com"}, "b.com": {"ns1.a.com"}, "c.com": {"ns2.b.net"},
	}
	for round := 0; round < 20; round++ {
		// Direct writes against the live DB (exercises thaw + COW).
		day := dates.Day(10 + round)
		db.DelegationAdded("com", "churn.com", "ns1.a.com", day)
		db.DelegationRemoved("com", "churn.com", "ns1.a.com", day+1)
		db.Close(day + 1)

		// Full parallel re-ingest into a private DB, then one atomic swap.
		ing := NewIngester()
		ing.Workers = 4
		snaps := append(series("com", 4, rows),
			series("net", 4, map[dnsname.Name][]dnsname.Name{"d.net": {"ns2.b.net"}})...)
		if err := ing.IngestAll(&SliceSource{Snaps: snaps, Name: "round"}); err != nil {
			t.Fatal(err)
		}
		db.Adopt(ing.Finish())
	}
	close(stop)
	wg.Wait()

	v := db.View()
	if got := v.EdgeSpans("a.com", "ns1.a.com").TotalDays(); got != 4 {
		t.Errorf("final view edge days = %d, want 4", got)
	}
}

// TestParallelIngestMatchesSerial: sharding the ingest across workers
// must produce a database byte-identical to the serial one, for any
// worker count.
func TestParallelIngestMatchesSerial(t *testing.T) {
	build := func() []*dnszone.Snapshot {
		var snaps []*dnszone.Snapshot
		for _, zone := range []dnsname.Name{"com", "net", "org", "info", "biz"} {
			snaps = append(snaps, series(zone, 6, map[dnsname.Name][]dnsname.Name{
				dnsname.Name("a." + string(zone)): {"ns1.host.com"},
				dnsname.Name("b." + string(zone)): {dnsname.Name("ns1.b." + string(zone))},
			})...)
		}
		return snaps
	}

	serial := NewIngester()
	if err := serial.IngestAll(&SliceSource{Snaps: build(), Name: "s"}); err != nil {
		t.Fatal(err)
	}
	want := archive(t, serial.Finish())

	for _, workers := range []int{2, 3, 8} {
		par := NewIngester()
		par.Workers = workers
		if err := par.IngestAll(&SliceSource{Snaps: build(), Name: "s"}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := archive(t, par.Finish()); got != want {
			t.Errorf("workers=%d: archive differs from serial ingest", workers)
		}
	}
}

// TestParallelEfficiencyWithoutObs: the efficiency figure is measured by
// the pool itself, so an ingester with no registry still reports it.
func TestParallelEfficiencyWithoutObs(t *testing.T) {
	var snaps []*dnszone.Snapshot
	for _, zone := range []dnsname.Name{"com", "net", "org"} {
		snaps = append(snaps, series(zone, 4, map[dnsname.Name][]dnsname.Name{
			dnsname.Name("a." + string(zone)): {"ns1.host.com"},
		})...)
	}
	ing := NewIngester()
	ing.Workers = 2
	if ing.Obs != nil {
		t.Fatal("NewIngester set Obs")
	}
	if err := ing.IngestAll(&SliceSource{Snaps: snaps, Name: "s"}); err != nil {
		t.Fatal(err)
	}
	if eff := ing.ParallelEfficiency(); eff <= 0 || eff > 1 {
		t.Errorf("ParallelEfficiency() = %v, want in (0, 1]", eff)
	}
}

// TestQuarantineMidSeriesKeepsPerZoneEnds is the gap-cascade regression
// test: when one zone's series dies mid-study (a quarantined middle day
// cascades into gaps for the rest of its files), Finish must close that
// zone's facts at its own last good day — not extend them through other
// zones' later days, and not drag the healthy zone's end back.
func TestQuarantineMidSeriesKeepsPerZoneEnds(t *testing.T) {
	com := series("com", 5, map[dnsname.Name][]dnsname.Name{"a.com": {"ns1.x.net"}})
	org := series("org", 5, map[dnsname.Name][]dnsname.Name{"b.org": {"ns2.x.net"}})
	// org's day-2 file is undated (quarantined), which makes days 3 and 4
	// gaps: the whole tail of the series is lost.
	org[2] = dnszone.NewSnapshot("org", dates.None)

	var interleaved []*dnszone.Snapshot
	for i := 0; i < 5; i++ {
		interleaved = append(interleaved, com[i], org[i])
	}
	ing := NewIngester()
	ing.Degraded = true
	if err := ing.IngestAll(&SliceSource{Snaps: interleaved, Name: "day"}); err != nil {
		t.Fatal(err)
	}
	if got := ing.Quarantine().Total(); got != 3 {
		t.Fatalf("quarantined %d snapshots, want 3 (undated + 2 cascade gaps): %+v",
			got, ing.Quarantine().Entries)
	}
	db := ing.Finish()

	if got := db.View().EdgeSpans("a.com", "ns1.x.net").TotalDays(); got != 5 {
		t.Errorf("healthy zone edge days = %d, want 5", got)
	}
	// The regression: org's facts used to be sealed at the database-wide
	// close day (4), inventing three days of presence nobody observed.
	if got := db.View().EdgeSpans("b.org", "ns2.x.net").TotalDays(); got != 2 {
		t.Errorf("quarantined zone edge days = %d, want 2 (days 0-1 only)", got)
	}
	v := db.View()
	if !v.Closed() || v.CloseDay() != d(4) {
		t.Errorf("close day = %v, want 4 (the healthy zone's last day)", v.CloseDay())
	}
}
