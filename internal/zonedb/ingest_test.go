package zonedb

import (
	"net/netip"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
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
