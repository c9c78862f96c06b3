package idioms

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dnsname"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(7)) }

func TestCatalogIntegrity(t *testing.T) {
	seen := map[ID]bool{}
	for _, id := range catalog {
		if seen[id.ID] {
			t.Errorf("duplicate idiom ID %s", id.ID)
		}
		seen[id.ID] = true
		if id.Registrar == "" {
			t.Errorf("%s: missing registrar", id.ID)
		}
		if Lookup(id.ID) == nil {
			t.Errorf("%s: Lookup fails", id.ID)
		}
	}
	if Lookup("nonsense") != nil {
		t.Error("Lookup of unknown ID should be nil")
	}
	if len(ByClass(NonHijackable)) != 6 || len(ByClass(Hijackable)) != 8 || len(ByClass(Protected)) != 4 {
		t.Errorf("class counts: %d/%d/%d",
			len(ByClass(NonHijackable)), len(ByClass(Hijackable)), len(ByClass(Protected)))
	}
}

func TestClassString(t *testing.T) {
	if NonHijackable.String() != "non-hijackable" || Hijackable.String() != "hijackable" ||
		Protected.String() != "protected" || Class(9).String() == "" {
		t.Error("Class.String broken")
	}
}

func TestRenameShapes(t *testing.T) {
	orig := dnsname.MustParse("ns2.internetemc.com")
	r := rng()
	cases := []struct {
		id    ID
		check func(n dnsname.Name) bool
	}{
		{PleaseDropThisHost, func(n dnsname.Name) bool {
			return strings.HasPrefix(n.FirstLabel(), "pleasedropthishost") &&
				strings.Contains(string(n), ".internetemc") && n.TLD() == "biz"
		}},
		{DropThisHost, func(n dnsname.Name) bool {
			return strings.HasPrefix(n.FirstLabel(), "dropthishost-") && n.TLD() == "biz" && strings.Count(string(n), ".") == 1
		}},
		{DeletedDrop, func(n dnsname.Name) bool {
			return strings.HasPrefix(string(n), "deleted-") && strings.Contains(string(n), ".drop-") && n.TLD() == "biz"
		}},
		{Enom123, func(n dnsname.Name) bool {
			return n == "ns2.internetemc123.biz"
		}},
		{EnomRandom, func(n dnsname.Name) bool {
			sld, _ := dnsname.SecondLevelLabel(n)
			return n.FirstLabel() == "ns2" && strings.HasPrefix(sld, "internetemc") && sld != "internetemc" && n.TLD() == "biz"
		}},
		{DummyNS, func(n dnsname.Name) bool { return n.Parent() == "dummyns.com" }},
		{LameDelegation, func(n dnsname.Name) bool { return n.Parent() == "lamedelegation.org" }},
		{EmptyAS112, func(n dnsname.Name) bool { return n.Parent() == "empty.as112.arpa" }},
		{NotAPlaceToBe, func(n dnsname.Name) bool { return n.Parent() == "notaplaceto.be" }},
		{DeleteRegistrar, func(n dnsname.Name) bool { return n.Parent() == "delete-registration.com" }},
		{InvalidTLD, func(n dnsname.Name) bool { return n.TLD() == "invalid" }},
	}
	for _, c := range cases {
		idiom := Lookup(c.id)
		got := idiom.Rename(orig, r)
		if !c.check(got) {
			t.Errorf("%s: Rename(%s) = %s, unexpected shape", c.id, orig, got)
		}
		if _, err := dnsname.Parse(string(got)); err != nil {
			t.Errorf("%s: generated invalid name %q: %v", c.id, got, err)
		}
	}
}

func TestBizFlipsToCom(t *testing.T) {
	origBiz := dnsname.MustParse("ns1.foo.biz")
	r := rng()
	if got := Lookup(PleaseDropThisHost).Rename(origBiz, r); got.TLD() != "com" {
		t.Errorf("PDTH on .biz host should land in .com, got %s", got)
	}
	if got := Lookup(EnomRandom).Rename(origBiz, r); got.TLD() != "com" {
		t.Errorf("EnomRandom on .biz host should land in .com, got %s", got)
	}
	// DROPTHISHOST always uses .biz regardless.
	if got := Lookup(DropThisHost).Rename(origBiz, r); got.TLD() != "biz" {
		t.Errorf("DropThisHost should always be .biz, got %s", got)
	}
}

func TestSRSPlusAlternatesSinks(t *testing.T) {
	idiom := Lookup(LameDelegationSrvs)
	r := rng()
	seen := map[dnsname.Name]bool{}
	for i := 0; i < 200; i++ {
		seen[idiom.Rename("ns1.x.com", r).Parent()] = true
	}
	if !seen["lamedelegationservers.com"] || !seen["lamedelegationservers.net"] {
		t.Errorf("SRSPlus sinks seen = %v", seen)
	}
}

func TestRecognizeSink(t *testing.T) {
	if id, ok := RecognizeSink("abc123.dummyns.com"); !ok || id.ID != DummyNS {
		t.Error("dummyns not recognized")
	}
	if id, ok := RecognizeSink("x.lamedelegationservers.net"); !ok || id.ID != LameDelegationSrvs {
		t.Error("alt sink not recognized")
	}
	if id, ok := RecognizeSink("y.empty.as112.arpa"); !ok || id.ID != EmptyAS112 {
		t.Error("as112 not recognized")
	}
	if _, ok := RecognizeSink("ns1.innocent.com"); ok {
		t.Error("false positive sink")
	}
	// The sink domain itself (no subdomain label) also matches via InZone.
	if _, ok := RecognizeSink("dummyns.com"); !ok {
		t.Error("bare sink should match")
	}
}

func TestRecognizeMarker(t *testing.T) {
	cases := map[string]ID{
		"pleasedropthishostabc12.foo.biz":                       PleaseDropThisHost,
		"dropthishost-0a1b2c3d-1111-2222-3333-444455556666.biz": DropThisHost,
		"deleted-ab1cd.drop-xy2zw9.biz":                         DeletedDrop,
	}
	for in, want := range cases {
		id, ok := RecognizeMarker(dnsname.Name(in))
		if !ok || id.ID != want {
			t.Errorf("RecognizeMarker(%s) = %v, want %s", in, id, want)
		}
	}
	for _, in := range []dnsname.Name{"ns1.innocent.com", "deleted-only.biz", "drop-only.biz"} {
		if _, ok := RecognizeMarker(in); ok {
			t.Errorf("false positive marker on %s", in)
		}
	}
}

func TestMarkerPrecedence(t *testing.T) {
	// "pleasedropthishost" contains "dropthishost"; the longer marker
	// must win.
	id, ok := RecognizeMarker("pleasedropthishostxyz.foo.biz")
	if !ok || id.ID != PleaseDropThisHost {
		t.Fatalf("precedence broken: %v", id)
	}
}

func TestIsTestNameserver(t *testing.T) {
	if !IsTestNameserver("emt-ns1.emt-t-407979799-1575645880157-2-u.com") {
		t.Error("EMT nameserver not recognized")
	}
	if IsTestNameserver("ns1.emt-like.com") {
		t.Error("prefix must anchor at name start")
	}
}

func TestMatchesOriginal(t *testing.T) {
	cases := []struct {
		sac, orig string
		want      bool
	}{
		{"ns2.internetemc1aj2kdy.biz", "ns2.internetemc.com", true},
		{"ns1.foo123.biz", "ns1.foo.com", true},
		{"pleasedropthishostxx.foo.biz", "ns1.foo.com", true},
		{"ns2.unrelated.biz", "ns2.internetemc.com", false},
		{"ns2.internetemc.com", "ns2.internetemc.com", false}, // same domain
		{"com", "ns1.foo.com", false},
		{"ns1.fo.biz", "ns1.foo.com", false}, // prefix the wrong way
	}
	for _, c := range cases {
		if got := MatchesOriginal(dnsname.Name(c.sac), dnsname.Name(c.orig)); got != c.want {
			t.Errorf("MatchesOriginal(%s, %s) = %v, want %v", c.sac, c.orig, got, c.want)
		}
	}
}

// TestGeneratedNamesSelfConsistent: every hijackable generator's output
// must be recognized by the recognition path the detector would use —
// marker recognition or original matching.
func TestGeneratedNamesSelfConsistent(t *testing.T) {
	r := rng()
	f := func(seed uint32) bool {
		orig := dnsname.Name([]string{"ns1.alpha.com", "ns2.betahost.net", "ns1.gamma.biz"}[seed%3])
		for _, idiom := range ByClass(Hijackable) {
			got := idiom.Rename(orig, r)
			if _, err := dnsname.Parse(string(got)); err != nil {
				return false
			}
			if idiom.Marker != "" {
				if _, ok := RecognizeMarker(got); !ok {
					return false
				}
			}
			if idiom.OriginalBased && !MatchesOriginal(got, orig) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSinkGeneratedRecognized: sink-style outputs recognize as their own
// idiom.
func TestSinkGeneratedRecognized(t *testing.T) {
	r := rng()
	for _, class := range []Class{NonHijackable, Protected} {
		for _, idiom := range ByClass(class) {
			got := idiom.Rename("ns1.whatever.com", r)
			rec, ok := RecognizeSink(got)
			if !ok || rec.ID != idiom.ID {
				t.Errorf("%s: generated %s not recognized (got %v)", idiom.ID, got, rec)
			}
		}
	}
}
