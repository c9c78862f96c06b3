package watch

import (
	"context"
	"testing"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/sim"
	"repro/internal/whois"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// TestDemotionAndHijack hand-builds the one history the streaming
// engine cannot get right on first sight: a rename classified by the
// original-nameserver match that LATER gains a delegation from a second
// registry operator. The batch pipeline checks the single-repository
// property before the history match, so its verdict is "single-repo
// violation"; the engine must converge to that verdict by retracting
// its earlier alert. A second rename stays clean and is hijacked, so
// the registration watch fires too.
func TestDemotionAndHijack(t *testing.T) {
	org := dnsname.MustParse("org")
	biz := dnsname.MustParse("biz")
	us := dnsname.MustParse("us")
	shop := dnsname.MustParse("shop.org")
	blog := dnsname.MustParse("blog.org")
	another := dnsname.MustParse("another.us")
	victimNS := dnsname.MustParse("ns1.victim.com")
	victimSac := dnsname.MustParse("ns1.victim123.biz")
	acmeNS := dnsname.MustParse("ns1.acme.com")
	acmeSac := dnsname.MustParse("ns1.acme123.biz")

	d0 := dates.FromYMD(2020, 1, 1)
	rename := d0.Add(9)   // both domains renamed away on day 10
	violate := d0.Add(19) // victim's sacrificial gains a .us delegation
	hijack := d0.Add(29)  // acme's sacrificial domain gets registered
	closeAt := d0.Add(39)

	db := zonedb.New()
	db.DomainAdded(org, shop, d0)
	db.DomainAdded(org, blog, d0)
	db.DelegationAdded(org, shop, victimNS, d0)
	db.DelegationAdded(org, blog, acmeNS, d0)
	db.DelegationRemoved(org, shop, victimNS, rename)
	db.DelegationRemoved(org, blog, acmeNS, rename)
	db.DelegationAdded(org, shop, victimSac, rename)
	db.DelegationAdded(org, blog, acmeSac, rename)
	db.DomainAdded(us, another, d0)
	db.DelegationAdded(us, another, victimSac, violate)
	db.DomainAdded(biz, dnsname.MustParse("acme123.biz"), hijack)
	db.CloseZones(map[dnsname.Name]dates.Day{org: closeAt, biz: closeAt, us: closeAt})

	wh := whois.New()
	wh.Observe(dnsname.MustParse("victim.com"), d0, "Enom")
	wh.Observe(dnsname.MustParse("acme.com"), d0, "Enom")
	dir := sim.StandardDirectory()

	idx, err := delta.Build(db.View())
	if err != nil {
		t.Fatalf("delta.Build: %v", err)
	}
	e := New(wh, dir)
	var alerts []Alert
	for d := idx.First(); d <= idx.Last(); d++ {
		as, err := e.ApplyDay(idx.Day(d))
		if err != nil {
			t.Fatalf("ApplyDay(%s): %v", d, err)
		}
		alerts = append(alerts, as...)
	}

	want := []struct {
		typ string
		day dates.Day
		ns  dnsname.Name
	}{
		{AlertSacrificial, rename, acmeSac},
		{AlertSacrificial, rename, victimSac},
		{AlertRetracted, violate, victimSac},
		{AlertHijacked, hijack, acmeSac},
	}
	if len(alerts) != len(want) {
		t.Fatalf("got %d alerts, want %d: %+v", len(alerts), len(want), alerts)
	}
	for i, w := range want {
		a := alerts[i]
		if a.Type != w.typ || a.Day != w.day || a.NS != w.ns {
			t.Errorf("alert %d: got (%s %s %s), want (%s %s %s)",
				i, a.Type, a.Day, a.NS, w.typ, w.day, w.ns)
		}
		if a.Seq != uint64(i+1) {
			t.Errorf("alert %d: seq %d, want %d", i, a.Seq, i+1)
		}
	}
	if !alerts[0].Hijackable || alerts[0].Registrar != "Enom" || alerts[0].Original != acmeNS {
		t.Errorf("sacrificial alert details: %+v", alerts[0])
	}

	f := e.Funnel()
	// Four NS ever delegated to; all unresolvable at first reference;
	// the two originals stay unclassified, victim's rename is demoted to
	// the single-repo bucket, acme's stands.
	if f.TotalNameservers != 4 || f.Candidates != 4 || f.SingleRepoViolations != 1 ||
		f.Unclassified != 2 || f.Sacrificial != 1 || f.TestNameservers != 0 {
		t.Errorf("funnel: %+v", f)
	}

	// And the converged state equals the batch verdict on the same DB.
	batch := (&detect.Detector{DB: db, WHOIS: wh, Dir: dir,
		Cfg: detect.Config{SkipMining: true}}).RunContext(context.Background())
	diffResults(t, batch, e.Result())
	got := e.Result().Lookup(acmeSac)
	if got == nil || !got.Hijacked() || got.HijackedOn != hijack {
		t.Fatalf("acme sacrificial: %+v", got)
	}
}

// TestStrictDepthWhateverTheOrder is resolve's test of the same name asked
// of the engine: six glueless nameservers in a chain that ends in one
// with glue, and a glueless three-cycle, all first seen on one day. A
// name at most three delegations from the glue resolves, one four or more
// away does not, no member of the cycle does, and none of it depends on
// which end of the chain is asked first or on the order Go walks its maps
// in.
func TestStrictDepthWhateverTheOrder(t *testing.T) {
	// The engine classifies a day's new names in name order: the glued
	// end sorts first, so the far end is asked after everything near it.
	chain := []string{"g.xyz", "f.us", "e.biz", "d.info", "c.net", "b.org", "a.com"}
	cycle := []string{"p.com", "q.org", "r.net"}
	glued := len(chain) - 1
	day := dates.FromYMD(2020, 1, 1)
	dd := &delta.DayDelta{Day: day, GlueAdded: []dnsname.Name{dnsname.Name("ns." + chain[glued])}}
	for i := 0; i < glued; i++ {
		dd.EdgesAdded = append(dd.EdgesAdded, zonedb.Edge{Domain: dnsname.Name(chain[i]), NS: dnsname.Name("ns." + chain[i+1])})
	}
	for i, n := range cycle {
		dd.EdgesAdded = append(dd.EdgesAdded, zonedb.Edge{Domain: dnsname.Name(n), NS: dnsname.Name("ns." + cycle[(i+1)%len(cycle)])})
	}
	for run := 0; run < 20; run++ {
		e := New(whois.New(), sim.StandardDirectory())
		if _, err := e.ApplyDay(dd); err != nil {
			t.Fatal(err)
		}
		// ns.f.us and ns.e.biz are too far from the glue; the cycle has none.
		if got := e.Funnel().Candidates; got != 2+len(cycle) {
			t.Errorf("candidates = %d, want %d", got, 2+len(cycle))
		}
		// Ask the engine's own chase over its own day state, the call
		// ApplyDay makes.
		resolvable := func(n string) bool { return e.chase.Resolvable((*today)(e), dnsname.Name("ns."+n)) }
		for i := range chain {
			for _, j := range []int{i, glued - i} {
				want := glued-j <= 3 // resolve reads glue at most three delegations away
				if got := resolvable(chain[j]); got != want {
					t.Errorf("ns.%s, %d delegations from the glue: resolvable = %v, want %v", chain[j], glued-j, got, want)
				}
			}
		}
		for _, n := range cycle {
			if resolvable(n) {
				t.Errorf("ns.%s sits on a glueless cycle and resolves", n)
			}
		}
	}
}
