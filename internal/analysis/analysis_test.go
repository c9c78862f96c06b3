package analysis

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/idioms"
	"repro/internal/interval"
	"repro/internal/zonedb"
)

func d(n int) dates.Day { return dates.Day(n) }

func spans(ranges ...[2]int) *interval.Set {
	s := &interval.Set{}
	for _, r := range ranges {
		s.Add(dates.NewRange(d(r[0]), d(r[1])))
	}
	return s
}

// fixture builds a tiny, fully-known detection result:
//
//	sac1 (DropThisHost, hijackable, HIJACKED on day 110):
//	    v1 delegated days 100-500, v2 delegated days 100-150
//	sac2 (EnomRandom, hijackable, never hijacked):
//	    v3 delegated days 200-300
//	sac3 (LameDelegation sink, non-hijackable): v4 days 50-400
//	sac4 (PleaseDropThisHost, COLLISION): v5 days 120-130
//	sacX (excluded accident name): v6 days 10-20
func fixture() (*Analysis, *zonedb.DB) {
	db := zonedb.New()
	// Registration spans of the hijacked sacrificial domain: one year
	// from day 110, renewed once through day 840 (for Figure 7 steps).
	db.DomainAdded("biz", "dropthishost-1.biz", d(110))
	db.DomainRemoved("biz", "dropthishost-1.biz", d(840))
	// Controlling NS of the hijacked domain (Table 4 attribution).
	db.DelegationAdded("biz", "dropthishost-1.biz", "ns1.mpower.nl", d(110))
	db.DelegationRemoved("biz", "dropthishost-1.biz", "ns1.mpower.nl", d(840))
	db.Close(d(1000))

	sacs := []detect.Sacrificial{
		{
			NS: "dropthishost-1.biz", Created: d(100), Idiom: idioms.DropThisHost,
			Class: idioms.Hijackable, Registrar: "GoDaddy",
			RegDomain: "dropthishost-1.biz", HijackedOn: d(110),
			Domains: []detect.AffectedDomain{
				{Name: "v1.com", Spans: spans([2]int{100, 500})},
				{Name: "v2.com", Spans: spans([2]int{100, 150})},
			},
		},
		{
			NS: "ns1.foo1x.biz", Created: d(200), Idiom: idioms.EnomRandom,
			Class: idioms.Hijackable, Registrar: "Enom",
			RegDomain: "foo1x.biz", HijackedOn: dates.None,
			Domains: []detect.AffectedDomain{
				{Name: "v3.com", Spans: spans([2]int{200, 300})},
			},
		},
		{
			NS: "r1.lamedelegation.org", Created: d(50), Idiom: idioms.LameDelegation,
			Class: idioms.NonHijackable, Registrar: "Network Solutions",
			RegDomain: "lamedelegation.org", HijackedOn: dates.None,
			Domains: []detect.AffectedDomain{
				{Name: "v4.com", Spans: spans([2]int{50, 400})},
			},
		},
		{
			NS: "pleasedropthishostq.brand.biz", Created: d(120), Idiom: idioms.PleaseDropThisHost,
			Class: idioms.Hijackable, Registrar: "GoDaddy",
			RegDomain: "brand.biz", Collision: true, HijackedOn: dates.None,
			Domains: []detect.AffectedDomain{
				{Name: "v5.com", Spans: spans([2]int{120, 130})},
			},
		},
		{
			NS: "ns1.accident1.biz", Created: d(10), Idiom: idioms.EnomRandom,
			Class: idioms.Hijackable, Registrar: "Enom",
			RegDomain: "accident1.biz", HijackedOn: dates.None,
			Domains: []detect.AffectedDomain{
				{Name: "v6.com", Spans: spans([2]int{10, 20})},
			},
		},
	}
	res := detect.NewResult(sacs, detect.Funnel{
		TotalNameservers: 100, Candidates: 10, TestNameservers: 2,
		SingleRepoViolations: 1, Unclassified: 2, Sacrificial: 5,
	})
	window := dates.NewRange(d(0), d(1000))
	a := New(res, db, window, []dnsname.Name{"ns1.accident1.biz"})
	return a, db
}

func TestTable3(t *testing.T) {
	a, _ := fixture()
	t3 := a.Table3()
	// Hijackable: sac1, sac2 (collision sac4 excluded, sink sac3
	// excluded, accident sacX excluded).
	if t3.HijackableNS != 2 || t3.HijackedNS != 1 {
		t.Fatalf("NS counts = %d/%d", t3.HijackableNS, t3.HijackedNS)
	}
	// Domains: v1, v2, v3 hijackable; v1 and v2 hijacked (delegated past
	// day 110).
	if t3.HijackableDomains != 3 || t3.HijackedDomains != 2 {
		t.Fatalf("domain counts = %d/%d", t3.HijackableDomains, t3.HijackedDomains)
	}
	if t3.NSFraction() != 0.5 {
		t.Errorf("NSFraction = %f", t3.NSFraction())
	}
}

func TestTable1And2(t *testing.T) {
	a, _ := fixture()
	t1 := a.Table1()
	if len(t1.Rows) != 1 || t1.Rows[0].Idiom != idioms.LameDelegation || t1.Rows[0].AffectedDomains != 1 {
		t.Fatalf("Table1 = %+v", t1)
	}
	t2 := a.Table2()
	if len(t2.Rows) != 3 { // DropThisHost, EnomRandom, PDTH-collision
		t.Fatalf("Table2 rows = %+v", t2.Rows)
	}
	if t2.TotalNameservers != 3 || t2.TotalDomains != 4 {
		t.Fatalf("Table2 totals = %d NS / %d domains", t2.TotalNameservers, t2.TotalDomains)
	}
	for _, row := range t2.Rows {
		if row.Example == "" {
			t.Errorf("row %s missing example", row.Idiom)
		}
	}
}

func TestTable4(t *testing.T) {
	a, _ := fixture()
	rows := a.Table4(5)
	if len(rows) != 1 || rows[0].NSDomain != "mpower" {
		t.Fatalf("Table4 = %+v", rows)
	}
	if rows[0].NS != 1 || rows[0].Domains != 2 {
		t.Fatalf("Table4 counts = %+v", rows[0])
	}
}

func TestFigure3(t *testing.T) {
	a, _ := fixture()
	s := a.Figure3()
	// First exposures: v1+v2 day 100, v3 day 200 (collision v5 and
	// accident v6 excluded).
	if s.Total() != 3 {
		t.Fatalf("Figure3 total = %d", s.Total())
	}
}

func TestFigure4(t *testing.T) {
	a, _ := fixture()
	s := a.Figure4()
	if s.Total() != 2 { // v1 and v2, hijacked on day 110
		t.Fatalf("Figure4 total = %d", s.Total())
	}
}

func TestFigure5(t *testing.T) {
	a, _ := fixture()
	pts := a.Figure5()
	if len(pts) != 2 {
		t.Fatalf("Figure5 points = %+v", pts)
	}
	byNS := map[dnsname.Name]ScatterPoint{}
	for _, p := range pts {
		byNS[p.NS] = p
	}
	p1 := byNS["dropthishost-1.biz"]
	if p1.Value != 401+51 || p1.NDomains != 2 || !p1.Hijacked {
		t.Fatalf("sac1 point = %+v", p1)
	}
	p2 := byNS["ns1.foo1x.biz"]
	if p2.Value != 101 || p2.Hijacked {
		t.Fatalf("sac2 point = %+v", p2)
	}
}

func TestFigure6(t *testing.T) {
	a, _ := fixture()
	nsCDF, domCDF := a.Figure6()
	if nsCDF.N() != 1 || nsCDF.Quantile(0.5) != 10 {
		t.Fatalf("NS CDF: n=%d q50=%d", nsCDF.N(), nsCDF.Quantile(0.5))
	}
	if domCDF.N() != 2 || domCDF.Quantile(0.9) != 10 {
		t.Fatalf("domain CDF: n=%d", domCDF.N())
	}
}

func TestFigure7(t *testing.T) {
	a, _ := fixture()
	never, exposure, hijacked := a.Figure7()
	// Never hijacked: v3 (101 days exposure).
	if never.N() != 1 || never.Quantile(0.5) != 101 {
		t.Fatalf("never CDF: n=%d q=%d", never.N(), never.Quantile(0.5))
	}
	// Hijacked: v1 (401 days exposure), v2 (51 days).
	if exposure.N() != 2 {
		t.Fatalf("exposure CDF n=%d", exposure.N())
	}
	// Hijack durations: v1 from 110..500 = 391 days; v2 from 110..150 = 41.
	if hijacked.N() != 2 {
		t.Fatalf("hijacked CDF n=%d", hijacked.N())
	}
	if got := hijacked.Samples(); got[0] != 41 || got[1] != 391 {
		t.Fatalf("hijack durations = %v", got)
	}
}

func TestSnapshotAndTable5(t *testing.T) {
	a, _ := fixture()
	// Day 105: sac1 exposed (not yet hijacked), sac2 not created yet.
	s := a.SnapshotOn(d(105))
	if s.VulnerableNS != 1 || s.HijackedNS != 0 || s.VulnerableDomains != 2 {
		t.Fatalf("snapshot 105 = %+v", s)
	}
	// Day 250: sac1 hijacked (v1 still delegated), sac2 vulnerable (v3).
	s = a.SnapshotOn(d(250))
	if s.HijackedNS != 1 || s.VulnerableNS != 1 || s.HijackedDomains != 1 || s.VulnerableDomains != 1 {
		t.Fatalf("snapshot 250 = %+v", s)
	}
	// Day 900: everything gone ("disappeared").
	s = a.SnapshotOn(d(900))
	if s.VulnerableNS != 0 && s.HijackedNS != 0 {
		t.Fatalf("snapshot 900 = %+v", s)
	}
	dis := a.DisappearedBetween(d(250), d(600))
	// sac2 lost its only domain (v3 ends at 300): 1 NS, 1 domain gone.
	if dis.NS != 1 || dis.Domains != 1 {
		t.Fatalf("disappearance = %+v", dis)
	}
}

func TestAccidentReport(t *testing.T) {
	db := zonedb.New()
	db.DelegationAdded("com", "a.com", "ns1.acc.biz", d(100))
	db.DelegationAdded("com", "b.com", "ns1.acc.biz", d(100))
	db.DelegationRemoved("com", "a.com", "ns1.acc.biz", d(102))
	db.DelegationRemoved("com", "b.com", "ns1.acc.biz", d(150))
	db.Close(d(500))
	res := detect.NewResult(nil, detect.Funnel{})
	a := New(res, db, dates.NewRange(d(0), d(500)), nil)
	rep := a.Accident([]dnsname.Name{"ns1.acc.biz"}, d(500))
	if rep.Day != d(100) || rep.PeakDomains != 2 || rep.AfterThreeDays != 1 || rep.Residual != 0 {
		t.Fatalf("accident report = %+v", rep)
	}
	empty := a.Accident(nil, d(500))
	if empty.Day != dates.None {
		t.Error("empty accident should report no day")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]int{5, 1, 3, 3, 10})
	if c.N() != 5 {
		t.Fatal("N broken")
	}
	if c.At(0) != 0 || c.At(3) != 0.6 || c.At(100) != 1 {
		t.Errorf("At: %f %f %f", c.At(0), c.At(3), c.At(100))
	}
	if c.Quantile(0.5) != 3 || c.Quantile(1) != 10 {
		t.Errorf("Quantile: %d %d", c.Quantile(0.5), c.Quantile(1))
	}
	emptyCDF := NewCDF(nil)
	if emptyCDF.At(5) != 0 || emptyCDF.Quantile(0.5) != 0 {
		t.Error("empty CDF misbehaves")
	}
}

func TestMonthlySeriesTrend(t *testing.T) {
	down := &MonthlySeries{Counts: []int{10, 9, 8, 7, 6, 5}}
	if down.TrendSlope() >= 0 {
		t.Error("downward series has non-negative slope")
	}
	up := &MonthlySeries{Counts: []int{1, 2, 3, 4}}
	if up.TrendSlope() <= 0 {
		t.Error("upward series has non-positive slope")
	}
	flat := &MonthlySeries{Counts: []int{5}}
	if flat.TrendSlope() != 0 {
		t.Error("single-point slope should be 0")
	}
	if down.Total() != 45 {
		t.Error("Total broken")
	}
}

func TestPopularExposure(t *testing.T) {
	a, _ := fixture()
	n := a.PopularExposure(map[dnsname.Name]bool{"v1.com": true, "v9.com": true})
	if n != 1 {
		t.Fatalf("PopularExposure = %d", n)
	}
}

func TestFunnelPassThrough(t *testing.T) {
	a, _ := fixture()
	if a.Funnel().Candidates != 10 {
		t.Error("funnel not passed through")
	}
}

func TestSummarizeJSONRoundTrip(t *testing.T) {
	a, _ := fixture()
	s := a.Summarize(d(250), d(600))
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Funnel.Candidates != 10 || back.Table3.HijackableNS != 2 {
		t.Fatalf("summary content lost: %+v", back.Funnel)
	}
	if len(back.Figure5) != 2 || len(back.IdiomTimeline) == 0 {
		t.Fatalf("figure/timeline data lost")
	}
	if back.Table5 == nil || back.Table5.Remediated.NS != 1 {
		t.Fatalf("table5 = %+v", back.Table5)
	}
	if back.Window.First != d(0) {
		t.Fatalf("window = %+v", back.Window)
	}
}
