package registrar

import (
	"errors"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/epp"
	"repro/internal/idioms"
	"repro/internal/registry"
)

var (
	day0 = dates.FromYMD(2014, 1, 1)
	exp1 = dates.FromYMD(2015, 1, 1)
	addr = netip.MustParseAddr("192.0.2.1")
)

func newRegistrar(t *testing.T, name string, phases ...Phase) *Registrar {
	t.Helper()
	return New(epp.RegistrarID(strings.ToLower(name)), name, rand.New(rand.NewSource(5)), phases...)
}

func verisign() *registry.Registry {
	return registry.New("Verisign", nil, "com", "net", "edu", "gov")
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// buildProvider registers provider.com (sponsored by rr) with two glue
// hosts, plus a dependent bar.com sponsored by someone else.
func buildProvider(t *testing.T, reg *registry.Registry, rr epp.RegistrarID) {
	t.Helper()
	must(t, reg.RegisterDomain(rr, "provider.com", day0, exp1))
	must(t, reg.CreateHost(rr, "ns1.provider.com", day0, addr))
	must(t, reg.CreateHost(rr, "ns2.provider.com", day0, addr))
	must(t, reg.SetNS(rr, "provider.com", day0, "ns1.provider.com", "ns2.provider.com"))
	must(t, reg.RegisterDomain("other", "bar.com", day0, exp1))
	must(t, reg.SetNS("other", "bar.com", day0, "ns2.provider.com"))
}

func TestIdiomSchedule(t *testing.T) {
	gd := newRegistrar(t, "GoDaddy",
		Phase{From: dates.FromYMD(2009, 1, 1), Idiom: idioms.PleaseDropThisHost},
		Phase{From: dates.FromYMD(2015, 3, 1), Idiom: idioms.DropThisHost},
	)
	if got := gd.IdiomOn(dates.FromYMD(2012, 1, 1)); got == nil || got.ID != idioms.PleaseDropThisHost {
		t.Errorf("2012 idiom = %v", got)
	}
	if got := gd.IdiomOn(dates.FromYMD(2016, 1, 1)); got == nil || got.ID != idioms.DropThisHost {
		t.Errorf("2016 idiom = %v", got)
	}
	if got := gd.IdiomOn(dates.FromYMD(2008, 1, 1)); got != nil {
		t.Errorf("pre-schedule idiom = %v", got)
	}
	plain := newRegistrar(t, "Tucows")
	if plain.IdiomOn(dates.FromYMD(2015, 1, 1)) != nil {
		t.Error("no-idiom registrar should return nil")
	}
}

func TestScheduleOrderEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-order schedule should panic")
		}
	}()
	newRegistrar(t, "Bad",
		Phase{From: dates.FromYMD(2015, 1, 1), Idiom: idioms.DropThisHost},
		Phase{From: dates.FromYMD(2010, 1, 1), Idiom: idioms.PleaseDropThisHost},
	)
}

func TestDeleteDomainSimple(t *testing.T) {
	reg := verisign()
	rr := newRegistrar(t, "Tucows")
	must(t, reg.RegisterDomain(rr.id, "plain.com", day0, exp1))
	renames, err := rr.DeleteDomain(reg, "plain.com", exp1)
	must(t, err)
	if len(renames) != 0 || reg.Repository().DomainExists("plain.com") {
		t.Fatal("simple deletion should not rename anything")
	}
}

func TestDeleteDomainDeletesUnlinkedHosts(t *testing.T) {
	reg := verisign()
	rr := newRegistrar(t, "Tucows")
	must(t, reg.RegisterDomain(rr.id, "self.com", day0, exp1))
	must(t, reg.CreateHost(rr.id, "ns1.self.com", day0, addr))
	must(t, reg.SetNS(rr.id, "self.com", day0, "ns1.self.com"))
	renames, err := rr.DeleteDomain(reg, "self.com", exp1)
	must(t, err)
	if len(renames) != 0 {
		t.Fatalf("renames = %v", renames)
	}
	if reg.Repository().HostExists("ns1.self.com") {
		t.Error("unlinked subordinate host should be deleted")
	}
}

func TestDeleteDomainRenamesLinkedHosts(t *testing.T) {
	reg := verisign()
	gd := newRegistrar(t, "GoDaddy", Phase{From: day0, Idiom: idioms.DropThisHost})
	buildProvider(t, reg, gd.id)
	renames, err := gd.DeleteDomain(reg, "provider.com", exp1)
	must(t, err)
	if len(renames) != 1 {
		t.Fatalf("renames = %+v", renames)
	}
	rn := renames[0]
	if rn.Old != "ns2.provider.com" || rn.Idiom != idioms.DropThisHost {
		t.Fatalf("rename = %+v", rn)
	}
	if !strings.HasPrefix(string(rn.New), "dropthishost-") {
		t.Fatalf("sacrificial name = %s", rn.New)
	}
	// bar.com silently moved.
	repo := reg.Repository()
	d, _ := repo.DomainInfo("bar.com")
	ns := repo.NSNames(d)
	if len(ns) != 1 || ns[0] != rn.New {
		t.Fatalf("bar.com NS = %v", ns)
	}
	if repo.DomainExists("provider.com") {
		t.Error("provider.com should be deleted")
	}
	// ns1 (linked only by the dying domain) was deleted, not renamed.
	if repo.HostExists("ns1.provider.com") {
		t.Error("ns1 should have been deleted")
	}
}

func TestDeleteDomainNoIdiom(t *testing.T) {
	reg := verisign()
	plain := newRegistrar(t, "Tucows")
	buildProvider(t, reg, plain.id)
	_, err := plain.DeleteDomain(reg, "provider.com", exp1)
	if !errors.Is(err, ErrNoIdiom) {
		t.Fatalf("err = %v, want ErrNoIdiom", err)
	}
	// Domain survives, own delegation cleared.
	repo := reg.Repository()
	if !repo.DomainExists("provider.com") {
		t.Error("domain should survive an ErrNoIdiom deletion attempt")
	}
	d, _ := repo.DomainInfo("provider.com")
	if len(repo.NSNames(d)) != 0 {
		t.Error("own delegation should have been cleared")
	}
}

func TestSinkIdiomRenamesInternally(t *testing.T) {
	reg := verisign()
	ibs := newRegistrar(t, "Internet.bs", Phase{From: day0, Idiom: idioms.DummyNS})
	// The sink domain must exist and be sponsored by the renaming
	// registrar.
	must(t, reg.RegisterDomain(ibs.id, "dummyns.com", day0, exp1.AddYears(20)))
	buildProvider(t, reg, ibs.id)
	renames, err := ibs.DeleteDomain(reg, "provider.com", exp1)
	must(t, err)
	if len(renames) != 1 || renames[0].New.Parent() != "dummyns.com" {
		t.Fatalf("renames = %+v", renames)
	}
	h, err := reg.Repository().HostInfo(renames[0].New)
	must(t, err)
	if h.External() {
		t.Error("sink-renamed host should be internal (subordinate to the sink)")
	}
}

func TestExternalizeAvoidsOwnRepository(t *testing.T) {
	// Internet.bs deleting a .biz provider with DELETED-DROP would
	// generate a .biz name internal to the Neustar repository; the
	// registrar must land in a foreign TLD instead.
	neustar := registry.New("Neustar", nil, "biz", "us")
	ibs := newRegistrar(t, "Internet.bs", Phase{From: day0, Idiom: idioms.DeletedDrop})
	must(t, neustar.RegisterDomain(ibs.id, "provider.biz", day0, exp1))
	must(t, neustar.CreateHost(ibs.id, "ns1.provider.biz", day0, addr))
	must(t, neustar.SetNS(ibs.id, "provider.biz", day0, "ns1.provider.biz"))
	must(t, neustar.RegisterDomain("other", "victim.us", day0, exp1))
	must(t, neustar.SetNS("other", "victim.us", day0, "ns1.provider.biz"))
	renames, err := ibs.DeleteDomain(neustar, "provider.biz", exp1)
	must(t, err)
	if len(renames) != 1 {
		t.Fatalf("renames = %+v", renames)
	}
	if tld := renames[0].New.TLD(); tld == "biz" || tld == "us" {
		t.Fatalf("sacrificial name %s landed inside its own repository", renames[0].New)
	}
}

func TestRemediateDelegations(t *testing.T) {
	reg := verisign()
	gd := newRegistrar(t, "GoDaddy",
		Phase{From: day0, Idiom: idioms.DropThisHost},
		Phase{From: exp1.Add(30), Idiom: idioms.EmptyAS112},
	)
	buildProvider(t, reg, gd.id)
	// Make bar.com GoDaddy-sponsored so remediation applies.
	must(t, reg.Repository().TransferDomain("bar.com", gd.id))
	renames, err := gd.DeleteDomain(reg, "provider.com", exp1)
	must(t, err)
	sac := renames[0].New

	// Before the protected idiom takes effect, remediation refuses.
	if _, err := gd.RemediateDelegations(reg, []dnsname.Name{sac}, exp1); err == nil {
		t.Fatal("remediation with hijackable idiom should fail")
	}
	day := exp1.Add(60)
	n, err := gd.RemediateDelegations(reg, []dnsname.Name{sac}, day)
	must(t, err)
	if n != 1 {
		t.Fatalf("remediated %d domains, want 1", n)
	}
	repo := reg.Repository()
	d, _ := repo.DomainInfo("bar.com")
	ns := repo.NSNames(d)
	if len(ns) != 1 || !ns[0].InZone("empty.as112.arpa") {
		t.Fatalf("bar.com NS after remediation = %v", ns)
	}
	// Idempotent: nothing left to remediate.
	n, err = gd.RemediateDelegations(reg, []dnsname.Name{sac}, day)
	must(t, err)
	if n != 0 {
		t.Fatalf("second remediation touched %d domains", n)
	}
}

func TestRemediationSkipsForeignSponsors(t *testing.T) {
	reg := verisign()
	gd := newRegistrar(t, "GoDaddy",
		Phase{From: day0, Idiom: idioms.DropThisHost},
		Phase{From: exp1.Add(30), Idiom: idioms.EmptyAS112},
	)
	buildProvider(t, reg, gd.id) // bar.com stays sponsored by "other"
	renames, err := gd.DeleteDomain(reg, "provider.com", exp1)
	must(t, err)
	n, err := gd.RemediateDelegations(reg, []dnsname.Name{renames[0].New}, exp1.Add(60))
	must(t, err)
	if n != 0 {
		t.Fatalf("remediated %d foreign domains", n)
	}
}

func TestDeleteDomainWrongSponsor(t *testing.T) {
	reg := verisign()
	gd := newRegistrar(t, "GoDaddy", Phase{From: day0, Idiom: idioms.DropThisHost})
	must(t, reg.RegisterDomain("someone-else", "x.com", day0, exp1))
	if _, err := gd.DeleteDomain(reg, "x.com", exp1); err == nil {
		t.Fatal("deleting a foreign domain should fail")
	}
}

func TestAccessors(t *testing.T) {
	gd := newRegistrar(t, "GoDaddy")
	if gd.id != "godaddy" || gd.Name() != "GoDaddy" {
		t.Error("accessors broken")
	}
}
