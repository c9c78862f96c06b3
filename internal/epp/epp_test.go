package epp

import (
	"errors"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
)

var (
	day0   = dates.FromYMD(2015, 1, 1)
	expiry = dates.FromYMD(2016, 1, 1)
	addr   = netip.MustParseAddr("192.0.2.1")
)

func verisign() *Repository { return NewRepository("Verisign", "com", "net", "edu", "gov") }

// setupFooBar builds the Figure 1 situation: registrar A's foo.com with
// subordinate hosts; registrar B's bar.com delegated to ns2.foo.com.
func setupFooBar(t *testing.T) *Repository {
	t.Helper()
	r := verisign()
	mustOK := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := r.CreateDomain("A", "foo.com", day0, expiry)
	mustOK(err)
	_, err = r.CreateHost("A", "ns1.foo.com", day0, addr)
	mustOK(err)
	_, err = r.CreateHost("A", "ns2.foo.com", day0, addr)
	mustOK(err)
	mustOK(r.SetDomainNS("A", "foo.com", "ns1.foo.com", "ns2.foo.com"))
	_, err = r.CreateDomain("B", "bar.com", day0, expiry)
	mustOK(err)
	mustOK(r.SetDomainNS("B", "bar.com", "ns2.foo.com"))
	return r
}

func wantCode(t *testing.T, err error, code ResultCode) {
	t.Helper()
	if CodeOf(err) != code {
		t.Fatalf("error = %v, want EPP code %d", err, code)
	}
}

func TestCreateDomainValidation(t *testing.T) {
	r := verisign()
	if _, err := r.CreateDomain("A", "foo.org", day0, expiry); CodeOf(err) != CodeParameterPolicy {
		t.Errorf("foreign TLD: %v", err)
	}
	if _, err := r.CreateDomain("A", "sub.foo.com", day0, expiry); CodeOf(err) != CodeParameterPolicy {
		t.Errorf("non-registrable name: %v", err)
	}
	if _, err := r.CreateDomain("A", "foo.com", day0, expiry); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := r.CreateDomain("B", "foo.com", day0, expiry); CodeOf(err) != CodeObjectExists {
		t.Errorf("duplicate: %v", err)
	}
}

func TestDomainDeleteBlockedBySubordinateHosts(t *testing.T) {
	r := setupFooBar(t)
	wantCode(t, r.DeleteDomain("A", "foo.com"), CodeAssociationProhibits)
}

func TestHostDeleteBlockedByLinks(t *testing.T) {
	r := setupFooBar(t)
	wantCode(t, r.DeleteHost("A", "ns2.foo.com"), CodeAssociationProhibits)
}

func TestSponsorshipIsolation(t *testing.T) {
	r := setupFooBar(t)
	wantCode(t, r.SetDomainNS("A", "bar.com", "ns1.foo.com"), CodeAuthorizationError)
	wantCode(t, r.DeleteDomain("B", "foo.com"), CodeAuthorizationError)
	wantCode(t, r.RenameHost("B", "ns2.foo.com", "x.y.biz"), CodeAuthorizationError)
	wantCode(t, r.DeleteHost("B", "ns1.foo.com"), CodeAuthorizationError)
	wantCode(t, r.RenewDomain("B", "foo.com", expiry.AddYears(1)), CodeAuthorizationError)
}

func TestRenameToExternalNamespaceLoophole(t *testing.T) {
	r := setupFooBar(t)
	// No biz domain object exists anywhere, yet the rename succeeds:
	// .biz is external to this repository.
	if err := r.RenameHost("A", "ns2.foo.com", "ns2.fooxxxx.biz"); err != nil {
		t.Fatalf("external rename: %v", err)
	}
	h, err := r.HostInfo("ns2.fooxxxx.biz")
	if err != nil {
		t.Fatal(err)
	}
	if !h.External() {
		t.Error("renamed host should be external")
	}
	if len(h.Addrs) != 0 {
		t.Error("external host must lose glue addresses")
	}
	// bar.com's delegation silently follows the host object.
	d, _ := r.DomainInfo("bar.com")
	ns := r.NSNames(d)
	if len(ns) != 1 || ns[0] != "ns2.fooxxxx.biz" {
		t.Fatalf("bar.com NS = %v", ns)
	}
	// And the old name is gone.
	if r.HostExists("ns2.foo.com") {
		t.Error("old host name still present")
	}
}

func TestRenameToInternalRequiresSuperordinate(t *testing.T) {
	r := setupFooBar(t)
	wantCode(t, r.RenameHost("A", "ns2.foo.com", "ns2.nonexistent.net"), CodeParameterPolicy)
	// With the superordinate present and same-sponsored, it works.
	if _, err := r.CreateDomain("A", "sink.com", day0, expiry); err != nil {
		t.Fatal(err)
	}
	if err := r.RenameHost("A", "ns2.foo.com", "x1.sink.com"); err != nil {
		t.Fatalf("internal rename: %v", err)
	}
	h, _ := r.HostInfo("x1.sink.com")
	if h.External() {
		t.Error("sink-renamed host should be internal")
	}
	// Internal rename under ANOTHER registrar's domain is refused.
	if _, err := r.CreateDomain("B", "bsink.com", day0, expiry); err != nil {
		t.Fatal(err)
	}
	wantCode(t, r.RenameHost("A", "ns1.foo.com", "x2.bsink.com"), CodeAuthorizationError)
}

func TestExternalHostsAreImmutable(t *testing.T) {
	r := setupFooBar(t)
	if err := r.RenameHost("A", "ns2.foo.com", "ns2.fooxxxx.biz"); err != nil {
		t.Fatal(err)
	}
	wantCode(t, r.RenameHost("A", "ns2.fooxxxx.biz", "ns2.back.com"), CodeStatusProhibits)
}

func TestFullFigure1Sequence(t *testing.T) {
	r := setupFooBar(t)
	// Clear foo.com's own delegation, rename the linked host, delete the
	// unlinked one, delete the domain.
	if err := r.SetDomainNS("A", "foo.com"); err != nil {
		t.Fatal(err)
	}
	if err := r.RenameHost("A", "ns2.foo.com", "ns2.fooxxxx.biz"); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteHost("A", "ns1.foo.com"); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteDomain("A", "foo.com"); err != nil {
		t.Fatal(err)
	}
	if r.DomainExists("foo.com") {
		t.Error("foo.com should be gone")
	}
	// bar.com still delegates to the sacrificial name.
	got := r.LinkedDomains("ns2.fooxxxx.biz")
	if len(got) != 1 || got[0] != "bar.com" {
		t.Fatalf("LinkedDomains = %v", got)
	}
}

func TestRenameCollision(t *testing.T) {
	r := setupFooBar(t)
	if _, err := r.CreateHost("A", "taken.external.biz", day0); err != nil {
		t.Fatal(err)
	}
	wantCode(t, r.RenameHost("A", "ns2.foo.com", "taken.external.biz"), CodeObjectExists)
}

func TestCreateHostRules(t *testing.T) {
	r := verisign()
	// Internal host without superordinate domain.
	if _, err := r.CreateHost("A", "ns1.ghost.com", day0, addr); CodeOf(err) != CodeParameterPolicy {
		t.Errorf("missing superordinate: %v", err)
	}
	// External host with addresses.
	if _, err := r.CreateHost("A", "ns1.x.biz", day0, addr); CodeOf(err) != CodeParameterPolicy {
		t.Errorf("external host with glue: %v", err)
	}
	// External host without addresses is fine.
	if _, err := r.CreateHost("A", "ns1.x.biz", day0); err != nil {
		t.Errorf("external host: %v", err)
	}
	// Internal host under another sponsor's domain is refused.
	if _, err := r.CreateDomain("B", "bee.com", day0, expiry); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateHost("A", "ns1.bee.com", day0, addr); CodeOf(err) != CodeAuthorizationError {
		t.Errorf("cross-sponsor internal host: %v", err)
	}
}

func TestSetNSRequiresHostObjects(t *testing.T) {
	r := verisign()
	if _, err := r.CreateDomain("A", "a.com", day0, expiry); err != nil {
		t.Fatal(err)
	}
	wantCode(t, r.SetDomainNS("A", "a.com", "ns1.nowhere.biz"), CodeAssociationProhibits)
}

func TestDeleteDomainUnlinksOutboundDelegations(t *testing.T) {
	r := setupFooBar(t)
	// Delete bar.com: ns2.foo.com loses the bar.com link.
	if err := r.DeleteDomain("B", "bar.com"); err != nil {
		t.Fatal(err)
	}
	linked := r.LinkedDomains("ns2.foo.com")
	if len(linked) != 1 || linked[0] != "foo.com" {
		t.Fatalf("LinkedDomains after delete = %v", linked)
	}
}

func TestRenewAndTransfer(t *testing.T) {
	r := verisign()
	if _, err := r.CreateDomain("A", "a.com", day0, expiry); err != nil {
		t.Fatal(err)
	}
	wantCode(t, r.RenewDomain("A", "a.com", expiry), CodeParameterPolicy)
	if err := r.RenewDomain("A", "a.com", expiry.AddYears(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.TransferDomain("a.com", "B"); err != nil {
		t.Fatal(err)
	}
	d, _ := r.DomainInfo("a.com")
	if d.Sponsor != "B" {
		t.Error("transfer did not change sponsor")
	}
	wantCode(t, r.TransferDomain("ghost.com", "B"), CodeObjectDoesNotExist)
}

func TestRestrictedTLDsShareRepository(t *testing.T) {
	// The §2.4 scoping property: a .com rename rewrites .gov and .edu
	// delegations because Verisign's repository backs them all.
	r := verisign()
	for _, step := range []func() error{
		func() error { _, err := r.CreateDomain("gd", "provider.com", day0, expiry); return err },
		func() error { _, err := r.CreateHost("gd", "ns1.provider.com", day0, addr); return err },
		func() error { _, err := r.CreateDomain("educause", "college.edu", day0, expiry); return err },
		func() error { _, err := r.CreateDomain("cisa", "agency.gov", day0, expiry); return err },
		func() error { return r.SetDomainNS("educause", "college.edu", "ns1.provider.com") },
		func() error { return r.SetDomainNS("cisa", "agency.gov", "ns1.provider.com") },
		func() error { return r.RenameHost("gd", "ns1.provider.com", "dropthishost-42.biz") },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []dnsname.Name{"college.edu", "agency.gov"} {
		d, _ := r.DomainInfo(name)
		ns := r.NSNames(d)
		if len(ns) != 1 || ns[0] != "dropthishost-42.biz" {
			t.Fatalf("%s NS = %v", name, ns)
		}
	}
}

func TestSubordinateHostsListing(t *testing.T) {
	r := setupFooBar(t)
	subs := r.SubordinateHosts("foo.com")
	if len(subs) != 2 || subs[0].Name != "ns1.foo.com" || subs[1].Name != "ns2.foo.com" {
		t.Fatalf("SubordinateHosts = %v", subs)
	}
	if r.SubordinateHosts("bar.com") != nil {
		t.Error("bar.com should have no subordinate hosts")
	}
}

func TestErrorTypeAndCodeOf(t *testing.T) {
	var err error = &Error{Code: CodeObjectExists, Msg: "x"}
	if CodeOf(err) != CodeObjectExists {
		t.Error("CodeOf broken")
	}
	if CodeOf(errors.New("plain")) != 0 {
		t.Error("CodeOf should be 0 for foreign errors")
	}
	if err.Error() == "" {
		t.Error("Error() empty")
	}
}

// TestInvariantUnderRandomOps drives random operations, the §7.3 cascade
// delete among them, and checks the repository's referential invariants
// after every step:
//
//   - every linked domain exists and its delegation contains the host;
//   - every delegation names a live host whose link set holds the domain;
//   - every internal host's superordinate domain exists;
//   - subordinate listings agree with host superordinate fields;
//   - the by-name and by-ROID indexes hold the same objects;
//   - no link set or subordinate set outlives its host or domain.
func TestInvariantUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	r := verisign()
	registrars := []RegistrarID{"A", "B", "C"}
	var domains []dnsname.Name
	var hosts []dnsname.Name
	pick := func(names []dnsname.Name) dnsname.Name {
		if len(names) == 0 {
			return "none.com"
		}
		return names[rng.Intn(len(names))]
	}
	foreignTrims := 0
	for i := 0; i < 3000; i++ {
		rr := registrars[rng.Intn(len(registrars))]
		switch rng.Intn(8) {
		case 0:
			name := dnsname.Name(randWord(rng) + ".com")
			if _, err := r.CreateDomain(rr, name, day0, expiry); err == nil {
				domains = append(domains, name)
			}
		case 1:
			parent := pick(domains)
			h := dnsname.Join("ns"+randWord(rng), parent)
			if _, err := r.CreateHost(rr, h, day0, addr); err == nil {
				hosts = append(hosts, h)
			}
		case 2:
			_ = r.SetDomainNS(rr, pick(domains), pick(hosts))
		case 3:
			_ = r.DeleteDomain(rr, pick(domains))
		case 4:
			_ = r.DeleteHost(rr, pick(hosts))
		case 5:
			old := pick(hosts)
			newName := dnsname.Name(randWord(rng) + ".biz")
			if err := r.RenameHost(rr, old, newName); err == nil {
				hosts = append(hosts, newName)
			}
		case 6:
			_ = r.SetDomainNS(rr, pick(domains))
		case 7:
			// Cascade a host's parent, so the delete has hosts to take.
			parent, _ := dnsname.RegisteredDomain(pick(hosts))
			if affected, err := r.CascadeDeleteDomain(rr, parent); err == nil && len(affected) > 0 {
				foreignTrims++
			}
		}
		domains = slices.DeleteFunc(domains, func(n dnsname.Name) bool { return !r.DomainExists(n) })
		hosts = slices.DeleteFunc(hosts, func(n dnsname.Name) bool { return !r.HostExists(n) })
		checkInvariants(t, r, i)
	}
	t.Logf("%d cascades trimmed a foreign delegation", foreignTrims)
	if foreignTrims == 0 {
		t.Fatal("no cascade delete trimmed another domain's delegation")
	}
}

func checkInvariants(t *testing.T, r *Repository, step int) {
	t.Helper()
	for _, h := range r.hosts {
		for _, d := range r.LinkedDomains(h.Name) {
			dom, err := r.DomainInfo(d)
			if err != nil {
				t.Fatalf("step %d: linked domain %s of %s does not exist", step, d, h.Name)
			}
			if !slices.Contains(r.NSNames(dom), h.Name) {
				t.Fatalf("step %d: link set of %s contains %s but delegation does not", step, h.Name, d)
			}
		}
		if !h.External() {
			if _, ok := r.domainsByROID[h.Superordinate]; !ok {
				t.Fatalf("step %d: internal host %s has dangling superordinate", step, h.Name)
			}
		}
	}
	for _, d := range r.domains {
		for _, roid := range d.nsHosts {
			h := r.hostsByROID[roid]
			if h == nil {
				t.Fatalf("step %d: %s delegates to deleted host %s", step, d.Name, roid)
			}
			if !r.linkedDomains[roid][d.Name] {
				t.Fatalf("step %d: %s delegates to %s but its link set lacks the domain", step, d.Name, h.Name)
			}
		}
		for _, sub := range r.SubordinateHosts(d.Name) {
			if sub.Superordinate != d.ROID {
				t.Fatalf("step %d: subordinate listing inconsistent for %s", step, d.Name)
			}
		}
	}
	if len(r.hosts) != len(r.hostsByROID) || len(r.domains) != len(r.domainsByROID) {
		t.Fatalf("step %d: %d hosts by name, %d by ROID; %d domains by name, %d by ROID",
			step, len(r.hosts), len(r.hostsByROID), len(r.domains), len(r.domainsByROID))
	}
	for roid := range r.linkedDomains {
		if r.hostsByROID[roid] == nil {
			t.Fatalf("step %d: link set kept for deleted host %s", step, roid)
		}
	}
	for roid := range r.subordinates {
		if r.domainsByROID[roid] == nil {
			t.Fatalf("step %d: subordinate set kept for deleted domain %s", step, roid)
		}
	}
}

func randWord(rng *rand.Rand) string {
	b := make([]byte, 4+rng.Intn(5))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}
