package registry

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/epp"
)

var (
	day0 = dates.FromYMD(2015, 1, 1)
	exp1 = dates.FromYMD(2016, 1, 1)
	addr = netip.MustParseAddr("192.0.2.1")
)

// recorder captures events as strings for exact-sequence assertions.
type recorder struct {
	events []string
}

func (r *recorder) log(kind string, args ...any) {
	parts := []string{kind}
	for _, a := range args {
		switch v := a.(type) {
		case dnsname.Name:
			parts = append(parts, string(v))
		case dates.Day:
			parts = append(parts, v.String())
		default:
			parts = append(parts, "?")
		}
	}
	r.events = append(r.events, strings.Join(parts, " "))
}

func (r *recorder) DelegationAdded(zone, domain, ns dnsname.Name, day dates.Day) {
	r.log("edge+", domain, ns, day)
}
func (r *recorder) DelegationRemoved(zone, domain, ns dnsname.Name, day dates.Day) {
	r.log("edge-", domain, ns, day)
}
func (r *recorder) DomainAdded(zone, domain dnsname.Name, day dates.Day) { r.log("dom+", domain, day) }
func (r *recorder) DomainRemoved(zone, domain dnsname.Name, day dates.Day) {
	r.log("dom-", domain, day)
}
func (r *recorder) GlueAdded(zone, host dnsname.Name, day dates.Day)   { r.log("glue+", host, day) }
func (r *recorder) GlueRemoved(zone, host dnsname.Name, day dates.Day) { r.log("glue-", host, day) }

func setup(t *testing.T) (*Registry, *recorder) {
	t.Helper()
	rec := &recorder{}
	reg := New("Verisign", rec, "com", "net", "edu", "gov")
	return reg, rec
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegisterEmitsDomainAdded(t *testing.T) {
	reg, rec := setup(t)
	must(t, reg.RegisterDomain("A", "foo.com", day0, exp1))
	want := []string{"dom+ foo.com 2015-01-01"}
	if !reflect.DeepEqual(rec.events, want) {
		t.Fatalf("events = %v", rec.events)
	}
}

func TestSetNSEmitsDiff(t *testing.T) {
	reg, rec := setup(t)
	must(t, reg.RegisterDomain("A", "foo.com", day0, exp1))
	must(t, reg.CreateHost("A", "ns1.foo.com", day0, addr))
	must(t, reg.CreateHost("A", "ns2.foo.com", day0, addr))
	rec.events = nil
	must(t, reg.SetNS("A", "foo.com", day0, "ns1.foo.com", "ns2.foo.com"))
	must(t, reg.SetNS("A", "foo.com", day0.Add(5), "ns2.foo.com")) // drop ns1 only
	want := []string{
		"edge+ foo.com ns1.foo.com 2015-01-01",
		"edge+ foo.com ns2.foo.com 2015-01-01",
		"edge- foo.com ns1.foo.com 2015-01-06",
	}
	if !reflect.DeepEqual(rec.events, want) {
		t.Fatalf("events = %v", rec.events)
	}
}

func TestRenameEmitsRewriteForAllLinkedDomains(t *testing.T) {
	reg, rec := setup(t)
	must(t, reg.RegisterDomain("A", "foo.com", day0, exp1))
	must(t, reg.CreateHost("A", "ns1.foo.com", day0, addr))
	must(t, reg.RegisterDomain("B", "bar.com", day0, exp1))
	must(t, reg.RegisterDomain("cisa", "agency.gov", day0, exp1))
	must(t, reg.SetNS("B", "bar.com", day0, "ns1.foo.com"))
	must(t, reg.SetNS("cisa", "agency.gov", day0, "ns1.foo.com"))
	rec.events = nil

	day := day0.Add(100)
	must(t, reg.RenameHost("A", "ns1.foo.com", "dropthishost-9.biz", day))
	want := []string{
		"glue- ns1.foo.com 2015-04-11",
		"edge- agency.gov ns1.foo.com 2015-04-11",
		"edge+ agency.gov dropthishost-9.biz 2015-04-11",
		"edge- bar.com ns1.foo.com 2015-04-11",
		"edge+ bar.com dropthishost-9.biz 2015-04-11",
	}
	if !reflect.DeepEqual(rec.events, want) {
		t.Fatalf("events = %v", rec.events)
	}
}

func TestDeleteDomainEmitsEdgeAndPresenceRemoval(t *testing.T) {
	reg, rec := setup(t)
	must(t, reg.RegisterDomain("A", "foo.com", day0, exp1))
	must(t, reg.CreateHost("A", "ns1.foo.com", day0, addr))
	must(t, reg.RegisterDomain("B", "solo.com", day0, exp1))
	must(t, reg.SetNS("B", "solo.com", day0, "ns1.foo.com"))
	rec.events = nil
	must(t, reg.DeleteDomain("B", "solo.com", day0.Add(30)))
	want := []string{
		"edge- solo.com ns1.foo.com 2015-01-31",
		"dom- solo.com 2015-01-31",
	}
	if !reflect.DeepEqual(rec.events, want) {
		t.Fatalf("events = %v", rec.events)
	}
}

func TestDeleteHostEmitsGlueRemoval(t *testing.T) {
	reg, rec := setup(t)
	must(t, reg.RegisterDomain("A", "foo.com", day0, exp1))
	must(t, reg.CreateHost("A", "ns1.foo.com", day0, addr))
	rec.events = nil
	must(t, reg.DeleteHost("A", "ns1.foo.com", day0.Add(3)))
	if !reflect.DeepEqual(rec.events, []string{"glue- ns1.foo.com 2015-01-04"}) {
		t.Fatalf("events = %v", rec.events)
	}
}

func TestExternalHostNoGlueEvents(t *testing.T) {
	reg, rec := setup(t)
	must(t, reg.RegisterDomain("A", "foo.com", day0, exp1))
	rec.events = nil
	must(t, reg.CreateHost("A", "ns9.other.biz", day0))
	if len(rec.events) != 0 {
		t.Fatalf("external host should emit nothing, got %v", rec.events)
	}
}

func TestDirectory(t *testing.T) {
	verisign := New("Verisign", nil, "com", "net")
	afilias := New("Afilias", nil, "org", "info")
	dir := NewDirectory(verisign, afilias)
	if dir.RegistryFor("x.com") != verisign || dir.RegistryFor("y.info") != afilias {
		t.Error("RegistryFor broken")
	}
	if dir.RegistryFor("z.nl") != nil {
		t.Error("unknown TLD should be nil")
	}
	if dir.OperatorOf("org") != "Afilias" || dir.OperatorOf("xx") != "" {
		t.Error("OperatorOf broken")
	}
}

func TestErrorsPropagateEPPCodes(t *testing.T) {
	reg, _ := setup(t)
	must(t, reg.RegisterDomain("A", "foo.com", day0, exp1))
	err := reg.RegisterDomain("B", "foo.com", day0, exp1)
	if epp.CodeOf(err) != epp.CodeObjectExists {
		t.Fatalf("err = %v", err)
	}
}
