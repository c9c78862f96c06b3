package zonedb

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
)

func d(n int) dates.Day { return dates.Day(n) }

func TestEdgeLifecycle(t *testing.T) {
	db := New()
	db.DelegationAdded("com", "foo.com", "ns1.x.net", d(10))
	db.DelegationRemoved("com", "foo.com", "ns1.x.net", d(20)) // last visible day 19
	db.DelegationAdded("com", "foo.com", "ns1.x.net", d(30))
	db.Close(d(40))

	spans := db.View().EdgeSpans("foo.com", "ns1.x.net")
	if spans == nil {
		t.Fatal("edge missing")
	}
	if !spans.Contains(d(10)) || !spans.Contains(d(19)) || spans.Contains(d(20)) ||
		!spans.Contains(d(30)) || !spans.Contains(d(40)) {
		t.Fatalf("spans = %v", spans.String())
	}
	if spans.TotalDays() != 10+11 {
		t.Fatalf("TotalDays = %d", spans.TotalDays())
	}
}

func TestDuplicateEventsIgnored(t *testing.T) {
	db := New()
	db.DelegationAdded("com", "a.com", "ns.x.net", d(5))
	db.DelegationAdded("com", "a.com", "ns.x.net", d(7)) // duplicate open
	db.DelegationRemoved("com", "a.com", "ns.x.net", d(10))
	db.DelegationRemoved("com", "a.com", "ns.x.net", d(12)) // already closed
	db.Close(d(20))
	if got := db.View().EdgeSpans("a.com", "ns.x.net").TotalDays(); got != 5 {
		t.Fatalf("TotalDays = %d, want 5", got)
	}
}

func TestSameDayAddRemove(t *testing.T) {
	db := New()
	// Removed the same day it was added: never visible in a daily
	// snapshot, so the span is empty.
	db.DelegationAdded("com", "a.com", "ns.x.net", d(5))
	db.DelegationRemoved("com", "a.com", "ns.x.net", d(5))
	db.Close(d(20))
	if got := db.View().EdgeSpans("a.com", "ns.x.net").TotalDays(); got != 0 {
		t.Fatalf("TotalDays = %d, want 0", got)
	}
}

func TestDomainPresence(t *testing.T) {
	db := New()
	db.DomainAdded("biz", "x.biz", d(100))
	db.DomainRemoved("biz", "x.biz", d(465))
	db.DomainAdded("biz", "x.biz", d(500)) // re-registration
	db.Close(d(600))
	v := db.View()
	if v.DomainFirstSeen("x.biz") != d(100) {
		t.Error("first seen wrong")
	}
	if v.DomainFirstSeenAfter("x.biz", d(466)) != d(500) {
		t.Error("re-registration not found")
	}
	if !v.DomainRegisteredOn("x.biz", d(464)) || v.DomainRegisteredOn("x.biz", d(470)) {
		t.Error("presence boundaries wrong")
	}
	if v.DomainFirstSeen("ghost.biz") != dates.None {
		t.Error("unknown domain should be None")
	}
}

func TestNSQueries(t *testing.T) {
	db := New()
	db.DelegationAdded("com", "a.com", "ns1.p.com", d(10))
	db.DelegationAdded("com", "b.com", "ns1.p.com", d(15))
	db.DelegationAdded("com", "a.com", "ns2.p.com", d(10))
	db.DelegationRemoved("com", "a.com", "ns1.p.com", d(20))
	db.Close(d(30))
	v := db.View()

	if v.NSFirstSeen("ns1.p.com") != d(10) {
		t.Error("NSFirstSeen wrong")
	}
	if got := v.DomainsOf("ns1.p.com"); !reflect.DeepEqual(got, []dnsname.Name{"a.com", "b.com"}) {
		t.Fatalf("DomainsOf = %v", got)
	}
	if got := v.NSOn("a.com", d(12)); !reflect.DeepEqual(got, []dnsname.Name{"ns1.p.com", "ns2.p.com"}) {
		t.Fatalf("NSOn(12) = %v", got)
	}
	if got := v.NSOn("a.com", d(25)); !reflect.DeepEqual(got, []dnsname.Name{"ns2.p.com"}) {
		t.Fatalf("NSOn(25) = %v", got)
	}
	hist := make(map[dnsname.Name]*interval.Set)
	v.EachNSOf("a.com", func(ns dnsname.Name, spans *interval.Set) bool {
		hist[ns] = spans
		return true
	})
	if len(hist) != 2 || hist["ns1.p.com"].Last() != d(19) {
		t.Fatalf("EachNSOf = %v", hist)
	}
}

func TestGlue(t *testing.T) {
	db := New()
	db.GlueAdded("com", "ns1.p.com", d(5))
	db.GlueRemoved("com", "ns1.p.com", d(15))
	db.Close(d(20))
	g := db.View().GlueSpans("ns1.p.com")
	if g == nil || g.TotalDays() != 10 {
		t.Fatalf("glue spans = %v", g)
	}
}

func TestCloseReopens(t *testing.T) {
	db := New()
	db.DelegationAdded("com", "a.com", "ns.x.net", d(5))
	db.Close(d(10))
	// More events after a close; second close extends.
	db.Close(d(15))
	if got := db.View().EdgeSpans("a.com", "ns.x.net").TotalDays(); got != 11 {
		t.Fatalf("TotalDays after re-close = %d, want 11", got)
	}
}

func TestCounts(t *testing.T) {
	db := New()
	db.DomainAdded("com", "a.com", d(1))
	db.DomainAdded("net", "b.net", d(1))
	db.DelegationAdded("com", "a.com", "ns1.b.net", d(1))
	db.Close(d(5))
	v := db.View()
	if v.NumDomains() != 2 || v.NumNameservers() != 1 {
		t.Fatalf("counts: %d domains, %d ns", v.NumDomains(), v.NumNameservers())
	}
	if got := v.Zones(); !reflect.DeepEqual(got, []dnsname.Name{"com", "net"}) {
		t.Fatalf("Zones = %v", got)
	}
	n := 0
	v.Nameservers(func(dnsname.Name) bool { n++; return true })
	if n != 1 {
		t.Fatalf("Nameservers visited %d", n)
	}
	n = 0
	v.Domains(func(dnsname.Name) bool { n++; return false })
	if n != 1 {
		t.Fatal("Domains early stop broken")
	}
}

func TestSnapshotOn(t *testing.T) {
	db := New()
	db.DomainAdded("com", "a.com", d(1))
	db.DelegationAdded("com", "a.com", "ns1.a.com", d(1))
	db.GlueAdded("com", "ns1.a.com", d(1))
	db.DelegationAdded("com", "b.com", "dropthishost-1.biz", d(10))
	db.DelegationRemoved("com", "b.com", "dropthishost-1.biz", d(12))
	db.Close(d(20))
	v := db.View()

	snap := v.SnapshotOn("com", d(11))
	if snap.NumDomains() != 2 {
		t.Fatalf("snapshot domains = %d", snap.NumDomains())
	}
	snap2 := v.SnapshotOn("com", d(15))
	if snap2.NumDomains() != 1 {
		t.Fatalf("snapshot after removal = %d", snap2.NumDomains())
	}
	if len(snap.Glue) != 1 {
		t.Fatalf("glue = %v", snap.Glue)
	}
	// Zone filter: nothing from .com shows in .biz.
	if v.SnapshotOn("biz", d(11)).NumDomains() != 0 {
		t.Error("zone filter broken")
	}
}

// TestSnapshotPastSealedDay: a delegation's open span ends on the day its
// zone is sealed through, as its glue's does, so a day past that — after
// the close day, or in a zone CloseZones left unsealed — shows neither
// the delegation nor its glue, never one without the other.
func TestSnapshotPastSealedDay(t *testing.T) {
	db := New()
	db.DelegationAdded("net", "x.net", "ns1.x.net", d(1))
	db.GlueAdded("net", "ns1.x.net", d(1))
	db.Close(d(10))
	v := db.View()
	if snap := v.SnapshotOn("net", d(10)); snap.NumDomains() != 1 || len(snap.Glue) != 1 {
		t.Fatalf("close day: %d delegations, glue %v; want the delegation and its glue", snap.NumDomains(), snap.Glue)
	}
	for _, day := range []dates.Day{d(11), d(500)} {
		if snap := v.SnapshotOn("net", day); snap.NumDomains() != 0 || len(snap.Glue) != 0 {
			t.Errorf("%s, past the close day: %d delegations, glue %v; want neither", day, snap.NumDomains(), snap.Glue)
		}
	}

	ragged := New()
	ragged.DelegationAdded("net", "x.net", "ns1.x.net", d(1))
	ragged.GlueAdded("net", "ns1.x.net", d(1))
	ragged.DomainAdded("com", "a.com", d(1))
	ragged.CloseZones(map[dnsname.Name]dates.Day{"com": d(10)})
	if snap := ragged.View().SnapshotOn("net", d(5)); snap.NumDomains() != 0 || len(snap.Glue) != 0 {
		t.Errorf("unsealed zone: %d delegations, glue %v; want neither", snap.NumDomains(), snap.Glue)
	}
}

// TestRemovalKeepsNoCallerString: a removal writes its fact's entry under
// the strings the tables already hold, so the buffer the caller's names
// were cut from — for the ingester, a day's zone file — is not kept alive
// by the database.
func TestRemovalKeepsNoCallerString(t *testing.T) {
	db := New()
	db.DelegationAdded("com", "a.com", "ns1.a.com", d(1))
	db.DomainAdded("com", "a.com", d(1))
	db.GlueAdded("com", "ns1.a.com", d(1))
	file := func() weak.Pointer[byte] {
		buf := make([]byte, 1<<16)
		n := copy(buf, "a.com ns1.a.com")
		text := unsafe.String(&buf[0], n)
		domain, host := dnsname.Name(text[:5]), dnsname.Name(text[6:])
		db.DelegationRemoved("com", domain, host, d(5))
		db.DomainRemoved("com", domain, d(5))
		db.GlueRemoved("com", host, d(5))
		return weak.Make(&buf[0])
	}()
	runtime.GC()
	if file.Value() != nil {
		t.Error("the database keeps the buffer a removal's names were cut from")
	}
	db.Close(d(10))
	if got := db.View().EdgeSpans("a.com", "ns1.a.com").String(); got != "{[2000-01-02, 2000-01-05]}" {
		t.Errorf("edge spans %s", got)
	}
}
