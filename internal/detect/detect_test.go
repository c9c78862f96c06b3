package detect

import (
	"context"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/idioms"
	"repro/internal/registry"
	"repro/internal/whois"
	"repro/internal/zonedb"
)

func d(n int) dates.Day { return dates.Day(n) }

// fixture builds a hand-crafted longitudinal history exercising every
// stage of the methodology:
//
//   - glue-backed providers (not candidates);
//   - an Enom-style rename detectable only via original matching;
//   - a GoDaddy DROPTHISHOST rename (marker);
//   - a Network Solutions sink rename;
//   - a registry test nameserver (EMT-);
//   - a shared typo NS spanning two repositories (single-repo violation);
//   - an unclassifiable random rename (the WebFusion limitation);
//   - a hijack: the Enom sacrificial domain gets registered later.
func fixture() (*zonedb.DB, *whois.History, *registry.Directory) {
	db := zonedb.New()
	who := whois.New()
	verisign := registry.New("Verisign", nil, "com", "net", "edu", "gov")
	afilias := registry.New("Afilias", nil, "org", "info")
	neustar := registry.New("Neustar", nil, "biz", "us")
	dir := registry.NewDirectory(verisign, afilias, neustar)

	// Provider internetemc.com (Enom) with glue, victim whitecounty.net.
	db.DomainAdded("com", "internetemc.com", d(0))
	db.GlueAdded("com", "ns2.internetemc.com", d(0))
	db.DelegationAdded("com", "internetemc.com", "ns2.internetemc.com", d(0))
	db.DelegationAdded("net", "whitecounty.net", "ns2.internetemc.com", d(10))
	db.DomainAdded("net", "whitecounty.net", d(10))
	who.Observe("internetemc.com", d(0), "Enom")
	who.Observe("whitecounty.net", d(10), "Tucows")

	// Day 100: Enom renames ns2.internetemc.com -> ns2.internetemc1aj2kdy.biz.
	db.GlueRemoved("com", "ns2.internetemc.com", d(100))
	db.DelegationRemoved("com", "internetemc.com", "ns2.internetemc.com", d(100))
	db.DomainRemoved("com", "internetemc.com", d(100))
	db.DelegationRemoved("net", "whitecounty.net", "ns2.internetemc.com", d(100))
	db.DelegationAdded("net", "whitecounty.net", "ns2.internetemc1aj2kdy.biz", d(100))

	// Day 150: a hijacker registers internetemc1aj2kdy.biz.
	db.DomainAdded("biz", "internetemc1aj2kdy.biz", d(150))
	db.DelegationAdded("biz", "internetemc1aj2kdy.biz", "ns1.mpower.nl", d(150))
	who.Observe("internetemc1aj2kdy.biz", d(150), "openprovider")

	// GoDaddy DROPTHISHOST rename of gdhost.com's host, victim gdvictim.com.
	db.DomainAdded("com", "gdhost.com", d(0))
	db.GlueAdded("com", "ns1.gdhost.com", d(0))
	db.DomainAdded("com", "gdvictim.com", d(5))
	db.DelegationAdded("com", "gdvictim.com", "ns1.gdhost.com", d(5))
	who.Observe("gdhost.com", d(0), "GoDaddy")
	db.GlueRemoved("com", "ns1.gdhost.com", d(200))
	db.DomainRemoved("com", "gdhost.com", d(200))
	db.DelegationRemoved("com", "gdvictim.com", "ns1.gdhost.com", d(200))
	db.DelegationAdded("com", "gdvictim.com", "dropthishost-aaaa-bbbb.biz", d(200))

	// Network Solutions sink rename, victim nsvictim.com.
	db.DomainAdded("org", "lamedelegation.org", d(0))
	db.DomainAdded("com", "nsvictim.com", d(5))
	db.DelegationAdded("com", "nsvictim.com", "abc123xyz.lamedelegation.org", d(300))
	who.Observe("lamedelegation.org", d(0), "Network Solutions")

	// Registry test nameserver.
	db.DomainAdded("com", "emt-t-1-2-u.com", d(50))
	db.DelegationAdded("com", "emt-t-1-2-u.com", "emt-ns1.emt-t-1-2-u.com", d(50))
	db.DelegationRemoved("com", "emt-t-1-2-u.com", "emt-ns1.emt-t-1-2-u.com", d(57))
	db.DomainRemoved("com", "emt-t-1-2-u.com", d(57))

	// Shared typo used by a .com and a .org domain (two repositories).
	db.DomainAdded("com", "typouser1.com", d(20))
	db.DelegationAdded("com", "typouser1.com", "ns1.provder.info", d(20))
	db.DomainAdded("org", "typouser2.org", d(25))
	db.DelegationAdded("org", "typouser2.org", "ns1.provder.info", d(25))

	// A same-operator impossibility: an unresolvable .com nameserver
	// referenced only by .com domains. A rename target is always external
	// to the repository that performed it, so this cannot be sacrificial
	// (the first clause of the §3.2.3 elimination).
	db.DomainAdded("com", "sameop.com", d(30))
	db.DelegationAdded("com", "sameop.com", "ns1.neverexisted.com", d(30))

	// A PLEASEDROPTHISHOST rename colliding with an already-registered
	// brand-protection domain (§4's 3,704 accidental collisions).
	db.DomainAdded("biz", "brandname.biz", d(0)) // pre-existing registration
	db.DomainAdded("com", "brandname.com", d(0))
	db.GlueAdded("com", "ns1.brandname.com", d(0))
	db.DomainAdded("com", "collvictim.com", d(5))
	db.DelegationAdded("com", "collvictim.com", "ns1.brandname.com", d(5))
	who.Observe("brandname.com", d(0), "GoDaddy")
	db.GlueRemoved("com", "ns1.brandname.com", d(350))
	db.DomainRemoved("com", "brandname.com", d(350))
	db.DelegationRemoved("com", "collvictim.com", "ns1.brandname.com", d(350))
	db.DelegationAdded("com", "collvictim.com", "pleasedropthishostzz.brandname.biz", d(350))

	// An unclassifiable random rename (no marker, no original substring).
	db.DomainAdded("com", "wfvictim.com", d(5))
	db.DelegationAdded("com", "wfvictim.com", "ns1.wfhost.com", d(5))
	db.DomainAdded("com", "wfhost.com", d(0))
	db.GlueAdded("com", "ns1.wfhost.com", d(0))
	who.Observe("wfhost.com", d(0), "WebFusion")
	db.GlueRemoved("com", "ns1.wfhost.com", d(400))
	db.DomainRemoved("com", "wfhost.com", d(400))
	db.DelegationRemoved("com", "wfvictim.com", "ns1.wfhost.com", d(400))
	db.DelegationAdded("com", "wfvictim.com", "qx7zk2m9p4w1.biz", d(400))

	db.Close(d(1000))
	return db, who, dir
}

func runDetector(t *testing.T, cfg Config) *Result {
	t.Helper()
	db, who, dir := fixture()
	det := &Detector{DB: db, WHOIS: who, Dir: dir, Cfg: cfg}
	return det.RunContext(context.Background())
}

func TestOriginalMatching(t *testing.T) {
	res := runDetector(t, Config{SkipMining: true})
	s := res.Lookup("ns2.internetemc1aj2kdy.biz")
	if s == nil {
		t.Fatal("Enom rename not detected")
	}
	if s.Idiom != idioms.EnomRandom || s.Registrar != "Enom" {
		t.Errorf("idiom/registrar = %s/%s", s.Idiom, s.Registrar)
	}
	if s.Original != "ns2.internetemc.com" {
		t.Errorf("original = %s", s.Original)
	}
	if s.Created != d(100) {
		t.Errorf("created = %v", s.Created)
	}
	if len(s.Domains) != 1 || s.Domains[0].Name != "whitecounty.net" {
		t.Errorf("domains = %+v", s.Domains)
	}
}

func TestHijackDetection(t *testing.T) {
	res := runDetector(t, Config{SkipMining: true})
	s := res.Lookup("ns2.internetemc1aj2kdy.biz")
	if s == nil || !s.Hijackable() || !s.Hijacked() {
		t.Fatalf("hijack not detected: %+v", s)
	}
	if s.HijackedOn != d(150) {
		t.Errorf("HijackedOn = %v", s.HijackedOn)
	}
	gd := res.Lookup("dropthishost-aaaa-bbbb.biz")
	if gd == nil || gd.Hijacked() {
		t.Fatalf("unreg GoDaddy NS should be hijackable but not hijacked: %+v", gd)
	}
}

func TestMarkerClassification(t *testing.T) {
	res := runDetector(t, Config{SkipMining: true})
	s := res.Lookup("dropthishost-aaaa-bbbb.biz")
	if s == nil || s.Idiom != idioms.DropThisHost || s.Registrar != "GoDaddy" {
		t.Fatalf("marker classification: %+v", s)
	}
}

func TestSinkClassification(t *testing.T) {
	res := runDetector(t, Config{SkipMining: true})
	s := res.Lookup("abc123xyz.lamedelegation.org")
	if s == nil || s.Class != idioms.NonHijackable {
		t.Fatalf("sink classification: %+v", s)
	}
	if s.Hijackable() || s.Hijacked() {
		t.Error("sink NS must not be hijackable")
	}
}

func TestTestNSFiltered(t *testing.T) {
	res := runDetector(t, Config{SkipMining: true})
	if res.Funnel.TestNameservers != 1 {
		t.Errorf("test NS filtered = %d", res.Funnel.TestNameservers)
	}
	if res.Lookup("emt-ns1.emt-t-1-2-u.com") != nil {
		t.Error("test NS classified as sacrificial")
	}
}

func TestSingleRepoViolation(t *testing.T) {
	res := runDetector(t, Config{SkipMining: true})
	// Two violations: the cross-repository shared typo and the
	// same-operator .com-serving-.com candidate.
	if res.Funnel.SingleRepoViolations != 2 {
		t.Errorf("violations = %d", res.Funnel.SingleRepoViolations)
	}
	if res.Lookup("ns1.provder.info") != nil {
		t.Error("cross-repo typo classified as sacrificial")
	}
	if res.Lookup("ns1.neverexisted.com") != nil {
		t.Error("same-operator candidate classified as sacrificial")
	}
	// Ablation: with the check disabled, it lands in unclassified
	// (original matching still fails), not in sacrificial.
	res2 := runDetector(t, Config{SkipMining: true, SkipSingleRepoCheck: true})
	if res2.Funnel.SingleRepoViolations != 0 {
		t.Error("ablation did not disable the check")
	}
	if res2.Lookup("ns1.provder.info") != nil {
		t.Error("typo misclassified even without the repo check")
	}
}

func TestUndetectableIdiomMissed(t *testing.T) {
	res := runDetector(t, Config{SkipMining: true})
	if res.Lookup("qx7zk2m9p4w1.biz") != nil {
		t.Error("random rename without structure should NOT be classified (§3.3)")
	}
	if res.Funnel.Unclassified == 0 {
		t.Error("unclassified count should be nonzero")
	}
}

func TestFunnelArithmetic(t *testing.T) {
	res := runDetector(t, Config{SkipMining: true})
	f := res.Funnel
	if f.Candidates != f.TestNameservers+f.SingleRepoViolations+f.Unclassified+f.Sacrificial {
		t.Errorf("funnel does not add up: %+v", f)
	}
	if f.TotalNameservers < f.Candidates {
		t.Errorf("total < candidates: %+v", f)
	}
}

func TestResolvableNSNotCandidates(t *testing.T) {
	res := runDetector(t, Config{SkipMining: true})
	// The glue-backed provider hosts must never appear as candidates.
	if res.Lookup("ns2.internetemc.com") != nil || res.Lookup("ns1.gdhost.com") != nil {
		t.Error("resolvable NS classified as sacrificial")
	}
}

func TestValueAndDomainAccessors(t *testing.T) {
	res := runDetector(t, Config{SkipMining: true})
	s := res.Lookup("ns2.internetemc1aj2kdy.biz")
	if s.NumDomains() != 1 {
		t.Errorf("NumDomains = %d", s.NumDomains())
	}
	// whitecounty.net delegated from day 100 through close (1000).
	if got := s.Value(); got != 901 {
		t.Errorf("Value = %d, want 901", got)
	}
}

func TestCollisionClassification(t *testing.T) {
	res := runDetector(t, Config{SkipMining: true})
	s := res.Lookup("pleasedropthishostzz.brandname.biz")
	if s == nil {
		t.Fatal("collision rename not detected")
	}
	if s.Idiom != idioms.PleaseDropThisHost {
		t.Errorf("idiom = %s", s.Idiom)
	}
	if !s.Collision {
		t.Error("collision with a registered domain not flagged")
	}
	if s.Hijackable() || s.Hijacked() {
		t.Error("collision names cannot be hijacked by registration")
	}
}

func TestMiningFindsMarkers(t *testing.T) {
	names := []dnsname.Name{}
	for i := 0; i < 40; i++ {
		names = append(names,
			dnsname.Name("dropthishost-"+string(rune('a'+i%26))+"x.biz"),
			dnsname.Name("rand"+string(rune('a'+i%26))+"q.lamedelegation.org"),
		)
	}
	pats := MineSubstrings(names, MinerConfig{MinLen: 8, MinSupport: 10, Top: 10})
	foundMarker, foundSink := false, false
	for _, p := range pats {
		if p.Substring == "dropthishost-" || p.Substring == "dropthishost" {
			foundMarker = true
		}
		if p.Substring == "lamedelegation.org" {
			foundSink = true
		}
	}
	if !foundMarker || !foundSink {
		t.Fatalf("patterns = %+v", pats)
	}
}

func TestMiningIgnoresRandomNoise(t *testing.T) {
	var names []dnsname.Name
	for i := 0; i < 50; i++ {
		names = append(names, dnsname.Name("x"+string(rune('a'+i%26))+"9182736450.biz"))
	}
	pats := MineSubstrings(names, MinerConfig{MinLen: 8, MinSupport: 10, Top: 10})
	for _, p := range pats {
		if p.Substring == "9182736450" {
			t.Fatalf("digit noise mined: %+v", pats)
		}
	}
}

// TestParallelWorkersIdentical verifies that candidate extraction is
// independent of the worker count.
func TestParallelWorkersIdentical(t *testing.T) {
	seq := runDetector(t, Config{SkipMining: true, Workers: 1})
	for _, workers := range []int{2, 4, 8} {
		par := runDetector(t, Config{SkipMining: true, Workers: workers})
		if seq.Funnel != par.Funnel {
			t.Fatalf("workers=%d: funnel %+v vs %+v", workers, par.Funnel, seq.Funnel)
		}
		if len(par.Sacrificial) != len(seq.Sacrificial) {
			t.Fatalf("workers=%d: %d vs %d sacrificial", workers, len(par.Sacrificial), len(seq.Sacrificial))
		}
		for i := range seq.Sacrificial {
			if par.Sacrificial[i].NS != seq.Sacrificial[i].NS ||
				par.Sacrificial[i].Idiom != seq.Sacrificial[i].Idiom {
				t.Fatalf("workers=%d: record %d differs", workers, i)
			}
		}
	}
}

// TestNeverClosedDBDetectsNothing: a run reads the DB's published view,
// and a database that recorded events but never sealed them publishes
// the empty one — the run must not reach into the writer's generation.
func TestNeverClosedDBDetectsNothing(t *testing.T) {
	db := zonedb.New()
	db.DomainAdded("net", "whitecounty.net", d(10))
	db.DelegationAdded("net", "whitecounty.net", "ns2.internetemc1aj2kdy.biz", d(100))
	_, who, dir := fixture()
	res := (&Detector{DB: db, WHOIS: who, Dir: dir}).RunContext(context.Background())
	if res.Funnel != (Funnel{}) || len(res.Sacrificial) != 0 || len(res.Patterns) != 0 {
		t.Fatalf("unsealed database produced funnel %+v, %d sacrificial, %d patterns",
			res.Funnel, len(res.Sacrificial), len(res.Patterns))
	}
	// The same events, sealed, are a candidate.
	db.Close(d(1000))
	if res := (&Detector{DB: db, WHOIS: who, Dir: dir}).RunContext(context.Background()); res.Funnel.TotalNameservers != 1 {
		t.Fatalf("sealed: funnel %+v, want one nameserver seen", res.Funnel)
	}
}
