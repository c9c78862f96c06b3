package detect

import (
	"testing"

	"repro/internal/dnsname"
	"repro/internal/idioms"
	"repro/internal/registry"
	"repro/internal/whois"
)

// listEvidence is Evidence given outright.
type listEvidence []dnsname.Name

func (listEvidence) Operators() map[string]bool { return nil }

func (l listEvidence) EachDropped(fn func(prev dnsname.Name)) {
	for _, prev := range l {
		fn(prev)
	}
}

// TestOriginalVote: the registrar with the most matching originals wins,
// a tie goes to the registrar first by name, the original reported is
// the winner's first by name, and none of it depends on the order the
// evidence arrives in.
func TestOriginalVote(t *testing.T) {
	who := whois.New()
	for dom, rr := range map[dnsname.Name]string{
		"acme.com": "Register.com", "acme.org": "Register.com", "acmebrand.com": "Enom",
	} {
		who.Observe(dom, d(0), rr)
	}
	rules := Rules{WHOIS: who, Dir: registry.NewDirectory()}
	ns := dnsname.Name("ns1.acmebrand123.biz")
	for _, tc := range []struct {
		name      string
		dropped   listEvidence
		registrar string
		original  dnsname.Name
		idiom     idioms.ID
	}{
		{"majority beats name order", listEvidence{"ns2.acme.org", "ns1.acmebrand.com", "ns1.acme.com", "ns1.other.com", ns},
			"Register.com", "ns1.acme.com", idioms.RegisterComRandom},
		{"tie goes to the first name", listEvidence{"ns1.acme.com", "ns1.acmebrand.com"},
			"Enom", "ns1.acmebrand.com", idioms.Enom123},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, ev := range []listEvidence{tc.dropped, reversed(tc.dropped)} {
				v := rules.Classify(ns, d(10), ev)
				if v.Outcome != OutSacrificial || v.Method != "original" || v.Registrar != tc.registrar ||
					v.Original != tc.original || v.Idiom.ID != tc.idiom {
					t.Errorf("evidence %v: verdict %+v, want %s via %s (%s)", ev, v, tc.registrar, tc.original, tc.idiom)
				}
			}
		})
	}
	if v := rules.Classify(ns, d(10), listEvidence{"ns1.other.com", ns}); v.Outcome != OutUnclassified {
		t.Errorf("no matching original: verdict %+v, want unclassified", v)
	}
}

// TestEnom123OutsideBiz: Enom's 123 era renames a .biz original into
// .com (".biz unless already .biz, then .com"), and the shape still
// files it as the 123.BIZ idiom, not the random-name one.
func TestEnom123OutsideBiz(t *testing.T) {
	who := whois.New()
	who.Observe("shukurhub.biz", d(0), "Enom")
	rules := Rules{WHOIS: who, Dir: registry.NewDirectory()}
	v := rules.Classify("ns1.shukurhub123.com", d(10), listEvidence{"ns1.shukurhub.biz"})
	if v.Outcome != OutSacrificial || v.Registrar != "Enom" || v.Idiom == nil || v.Idiom.ID != idioms.Enom123 {
		t.Fatalf("verdict %+v, want Enom's %s", v, idioms.Enom123)
	}
}

func reversed(l listEvidence) listEvidence {
	out := make(listEvidence, len(l))
	for i, n := range l {
		out[len(l)-1-i] = n
	}
	return out
}
