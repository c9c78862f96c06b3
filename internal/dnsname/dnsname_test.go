package dnsname

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := map[string]Name{
		"Example.COM.":      "example.com",
		"ns1.foo.com":       "ns1.foo.com",
		"a-b.c_d.org":       "a-b.c_d.org",
		"xn--dmin-moa0i.de": "xn--dmin-moa0i.de",
		"EMT-NS1.EMT-T.COM": "emt-ns1.emt-t.com",
		"single":            "single",
		"123.biz":           "123.biz",
	}
	for in, want := range cases {
		got, err := Parse(in)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	cases := map[string]error{
		"":                                  ErrEmpty,
		".":                                 ErrEmpty,
		"foo..com":                          ErrBadLabel,
		"-foo.com":                          ErrBadLabel,
		"foo-.com":                          ErrBadLabel,
		"foo.com..":                         ErrBadLabel,
		"f!oo.com":                          ErrBadLabel,
		"fo o.com":                          ErrBadLabel,
		strings.Repeat("a", 64) + ".com":    ErrLabelTooLong,
		strings.Repeat("abcd.", 51) + "com": ErrTooLong,
	}
	for in, wantErr := range cases {
		if _, err := Parse(in); !errors.Is(err, wantErr) {
			t.Errorf("Parse(%q) err = %v, want %v", in, err, wantErr)
		}
	}
}

func TestCanonicalIdempotent(t *testing.T) {
	f := func(s string) bool {
		c := Canonical(s)
		return Canonical(string(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLabels(t *testing.T) {
	n := MustParse("ns1.foo.co.uk")
	if n.TLD() != "uk" || n.FirstLabel() != "ns1" || n.Parent() != "foo.co.uk" {
		t.Error("label accessors broken")
	}
	if Name("com").Parent() != "" {
		t.Error("TLD parent should be empty")
	}
}

func TestSubdomainRelations(t *testing.T) {
	if !Name("ns1.foo.com").IsSubdomainOf("foo.com") {
		t.Error("direct subdomain not detected")
	}
	if Name("foo.com").IsSubdomainOf("foo.com") {
		t.Error("name is not its own subdomain")
	}
	if Name("xfoo.com").IsSubdomainOf("foo.com") {
		t.Error("label-boundary violation: xfoo.com is not under foo.com")
	}
	if !Name("foo.com").InZone("com") || !Name("com").InZone("com") {
		t.Error("InZone broken")
	}
	if Name("foo.org").InZone("com") {
		t.Error("InZone cross-TLD false positive")
	}
}

// registeredDomainReference is RegisteredDomain as it was first written,
// one strings.Join per label suffix: the oracle for the table and the
// fuzz differential below.
func registeredDomainReference(n Name) (Name, bool) {
	labels := strings.Split(string(n), ".")
	if len(labels) <= 1 {
		return n, false
	}
	suffixLabels := 1
	for i := len(labels) - 2; i >= 0; i-- {
		if publicSuffixes[Name(strings.Join(labels[i:], "."))] {
			suffixLabels = len(labels) - i
		}
	}
	if len(labels) == suffixLabels {
		return n, false
	}
	return Name(strings.Join(labels[len(labels)-suffixLabels-1:], ".")), true
}

func TestRegisteredDomain(t *testing.T) {
	cases := []struct {
		in   Name
		want Name
		ok   bool
	}{
		{"ns1.foo.com", "foo.com", true},
		{"foo.com", "foo.com", true},
		{"a.b.c.foo.com", "foo.com", true},
		{"a.b.co.uk", "b.co.uk", true},
		{"b.co.uk", "b.co.uk", true},
		{"co.uk", "co.uk", false},
		{"com", "com", false},
		{"uk", "uk", false},
		{"", "", false},
		{"x.empty.as112.arpa", "empty.as112.arpa", true},
		{"as112.arpa", "as112.arpa", false},
		{"in-addr.arpa", "in-addr.arpa", false},
		{"1.0.0.127.in-addr.arpa", "127.in-addr.arpa", true},
		{"co.uk.com", "uk.com", true},
	}
	for _, c := range cases {
		got, ok := RegisteredDomain(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("RegisteredDomain(%q) = %q, %v; want %q, %v", c.in, got, ok, c.want, c.ok)
		}
		if ref, refOK := registeredDomainReference(c.in); got != ref || ok != refOK {
			t.Errorf("RegisteredDomain(%q) = %q, %v; reference %q, %v", c.in, got, ok, ref, refOK)
		}
	}
}

func TestRegisteredDomainDoesNotAllocate(t *testing.T) {
	names := []Name{"ns1.foo.com", "a.b.co.uk", "co.uk", "com", "1.0.0.127.in-addr.arpa"}
	if n := testing.AllocsPerRun(100, func() {
		for _, name := range names {
			RegisteredDomain(name)
		}
	}); n != 0 {
		t.Errorf("RegisteredDomain allocates: %v per run", n)
	}
}

// FuzzRegisteredDomain holds RegisteredDomain to the reference on any
// string at all: a Name is not validated on the way in.
func FuzzRegisteredDomain(f *testing.F) {
	for _, s := range []string{"", "com", "co.uk", "a.b.co.uk", "ns1.foo.com", "in-addr.arpa", ".", "a..uk", ".co.uk", "co.uk."} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := RegisteredDomain(Name(s))
		if want, wantOK := registeredDomainReference(Name(s)); got != want || ok != wantOK {
			t.Errorf("RegisteredDomain(%q) = %q, %v; reference %q, %v", s, got, ok, want, wantOK)
		}
	})
}

// FuzzParse: Parse never panics, and a name it accepts is canonical —
// it parses again to itself.
func FuzzParse(f *testing.F) {
	for _, s := range []string{"", "Example.COM.", "-bad-.com", "a..b", "_dmarc.example.org", "xn--bcher-kva.example", strings.Repeat("a", 64) + ".com"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := Parse(s)
		if err != nil {
			return
		}
		if again, err := Parse(string(n)); err != nil || again != n {
			t.Errorf("Parse(%q) = %q, which parses to %q, %v", s, n, again, err)
		}
	})
}

func TestSecondLevelLabel(t *testing.T) {
	if sld, ok := SecondLevelLabel("ns2.internetemc.com"); !ok || sld != "internetemc" {
		t.Errorf("SecondLevelLabel = %q, %v", sld, ok)
	}
	if _, ok := SecondLevelLabel("com"); ok {
		t.Error("bare TLD should have no SLD")
	}
}

func TestJoin(t *testing.T) {
	if Join("ns1", "foo.com") != "ns1.foo.com" {
		t.Error("Join broken")
	}
	if Join("x", "") != "x" {
		t.Error("Join with empty parent broken")
	}
	if Join("NS1", "Foo.COM") != "ns1.foo.com" {
		t.Error("Join should canonicalize")
	}
}

func TestCompare(t *testing.T) {
	if Compare("a.com", "b.com") >= 0 || Compare("b.com", "a.com") <= 0 || Compare("a.com", "a.com") != 0 {
		t.Error("Compare broken")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on invalid input")
		}
	}()
	MustParse("-bad-.com")
}
