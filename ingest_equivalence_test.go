package riskybiz

import (
	"testing"

	"repro/internal/dnsname"
	"repro/internal/sim"
	"repro/internal/zonedb"
)

// TestSnapshotIngestEquivalence closes the loop on the zone database's
// central claim: interval recording from live events is identical to
// diffing daily zone files. A short simulation produces the event-driven
// DB; its daily snapshots are re-ingested through the snapshot differ;
// the two databases must agree on every delegation and glue interval.
// (Domain PRESENCE can differ for registered-but-undelegated names,
// which zone files cannot see — the documented caveat.)
func TestSnapshotIngestEquivalence(t *testing.T) {
	cfg := sim.DefaultConfig(3)
	cfg.End = cfg.Start.Add(400) // ~13 months is plenty
	w, err := sim.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	evDB := w.ZoneDB().View()

	ing := zonedb.NewIngester()
	for day := cfg.Start; day <= cfg.End; day++ {
		for _, zone := range evDB.Zones() {
			snap := evDB.SnapshotOn(zone, day)
			if err := ing.AddSnapshot(snap); err != nil {
				t.Fatalf("ingesting %s@%s: %v", zone, day, err)
			}
		}
	}
	inDB := ing.Finish().View()

	// Every nameserver's edge intervals must agree exactly.
	nsCount, edgeCount := 0, 0
	evDB.Nameservers(func(ns dnsname.Name) bool {
		nsCount++
		for _, e := range evDB.EdgesOf(ns) {
			edgeCount++
			a := evDB.EdgeSpans(e.Domain, ns)
			b := inDB.EdgeSpans(e.Domain, ns)
			if b == nil {
				if a.TotalDays() == 0 {
					return true // same-day add/remove: invisible to daily files
				}
				t.Fatalf("edge %s -> %s missing from ingested DB", e.Domain, ns)
			}
			if a.String() != b.String() {
				t.Fatalf("edge %s -> %s: events %s vs ingest %s",
					e.Domain, ns, a.String(), b.String())
			}
		}
		if g := evDB.GlueSpans(ns); g != nil && g.TotalDays() > 0 {
			h := inDB.GlueSpans(ns)
			if h == nil || g.String() != h.String() {
				t.Fatalf("glue for %s differs", ns)
			}
		}
		return true
	})
	if nsCount == 0 || edgeCount == 0 {
		t.Fatal("nothing compared")
	}
	// And the reverse direction: the ingested DB contains no edges the
	// event DB lacks.
	inDB.Nameservers(func(ns dnsname.Name) bool {
		for _, e := range inDB.EdgesOf(ns) {
			if evDB.EdgeSpans(e.Domain, ns) == nil {
				t.Fatalf("phantom edge %s -> %s in ingested DB", e.Domain, ns)
			}
		}
		return true
	})
	t.Logf("compared %d nameservers, %d edges", nsCount, edgeCount)
}
