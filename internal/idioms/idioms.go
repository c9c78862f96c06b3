// Package idioms catalogs the registrar renaming idioms documented in the
// study (Tables 1, 2, and 6). Each idiom knows how to GENERATE a
// sacrificial nameserver name from the host being renamed — used by the
// registrar model during simulated domain deletions — and the package
// provides the RECOGNITION primitives the detector uses: sink-domain
// matching, marker-substring matching, test-nameserver filtering, and the
// original-nameserver substring criterion of §3.2.3.
//
// Generation and recognition live together deliberately: the detector must
// never peek at simulator ground truth, but both sides must agree on what
// an idiom looks like, and a single table keeps them honest.
package idioms

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dnsname"
)

// Class describes the hijackability of names an idiom produces.
type Class int

// Idiom classes.
const (
	// NonHijackable idioms rename under a registered sink domain the
	// registrar controls (Table 1).
	NonHijackable Class = iota
	// Hijackable idioms rename to a random, typically unregistered domain
	// (Table 2).
	Hijackable
	// Protected idioms were adopted after the notification campaign and
	// use sink domains or reserved infrastructure (Table 6).
	Protected
)

// String returns a short label for c.
func (c Class) String() string {
	switch c {
	case NonHijackable:
		return "non-hijackable"
	case Hijackable:
		return "hijackable"
	case Protected:
		return "protected"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ID identifies an idiom, e.g. "dropthishost".
type ID string

// Idiom IDs, in the order the paper's tables list them.
const (
	// Table 1: non-hijackable sink-domain idioms.
	DummyNS            ID = "dummyns.com"
	LameDelegation     ID = "lamedelegation.org"
	NSHoldFix          ID = "nsholdfix.com"
	DeleteHost         ID = "delete-host.com"
	DeletedNS          ID = "deletedns.com"
	LameDelegationSrvs ID = "lamedelegationservers"

	// Table 2: hijackable random-name idioms.
	PleaseDropThisHost ID = "pleasedropthishost"
	DropThisHost       ID = "dropthishost"
	DeletedDrop        ID = "deleted-drop"
	Enom123            ID = "123.biz"
	EnomRandom         ID = "enom-random"
	DomainPeopleRandom ID = "domainpeople-random"
	FabulousRandom     ID = "fabulous-random"
	RegisterComRandom  ID = "register.com-random"

	// Table 6: protected idioms adopted after outreach.
	EmptyAS112      ID = "empty.as112.arpa"
	NotAPlaceToBe   ID = "notaplaceto.be"
	DeleteRegistrar ID = "delete-registration.com"

	// InvalidTLD is the paper's §7.3 proposal: rename under the
	// IETF-reserved .invalid TLD (RFC 2606/6761), which can never be
	// registered and so eliminates both hijacking and the sink-renewal
	// problem. No registrar used it during the study; the simulator can
	// adopt it as a counterfactual remediation style.
	InvalidTLD ID = "invalid-tld"
)

// Idiom describes one renaming idiom.
type Idiom struct {
	ID        ID
	Registrar string // registrar name as reported in the paper
	Class     Class

	// Sink is the registered sink domain for sink-style idioms ("" for
	// random-name idioms). LameDelegationSrvs alternates between two
	// sinks; Sink holds the primary and AltSinks the rest.
	Sink     dnsname.Name
	AltSinks []dnsname.Name

	// Marker is the distinctive substring for marker-style idioms
	// (e.g. "dropthishost"), used by pattern recognition.
	Marker string

	// OriginalBased reports whether the sacrificial name embeds the
	// original nameserver's second-level label, making it detectable via
	// the §3.2.3 original-nameserver match.
	OriginalBased bool

	// randLen is the length of generated random components.
	randLen int
}

// catalog lists every idiom. Order matters only for reporting.
var catalog = []Idiom{
	// Table 1 (non-hijackable).
	{ID: DummyNS, Registrar: "Internet.bs", Class: NonHijackable, Sink: "dummyns.com", randLen: 10},
	{ID: LameDelegation, Registrar: "Network Solutions", Class: NonHijackable, Sink: "lamedelegation.org", randLen: 12},
	{ID: NSHoldFix, Registrar: "TLD Registrar Solutions", Class: NonHijackable, Sink: "nsholdfix.com", randLen: 10},
	{ID: DeleteHost, Registrar: "GMO Internet", Class: NonHijackable, Sink: "delete-host.com", randLen: 8},
	{ID: DeletedNS, Registrar: "Xin Net Technology Corp.", Class: NonHijackable, Sink: "deletedns.com", randLen: 8},
	{ID: LameDelegationSrvs, Registrar: "SRSPlus", Class: NonHijackable,
		Sink: "lamedelegationservers.com", AltSinks: []dnsname.Name{"lamedelegationservers.net"}, randLen: 10},

	// Table 2 (hijackable).
	{ID: PleaseDropThisHost, Registrar: "GoDaddy", Class: Hijackable, Marker: "pleasedropthishost", OriginalBased: true, randLen: 5},
	{ID: DropThisHost, Registrar: "GoDaddy", Class: Hijackable, Marker: "dropthishost", randLen: 36},
	{ID: DeletedDrop, Registrar: "Internet.bs", Class: Hijackable, Marker: "deleted-", randLen: 5},
	{ID: Enom123, Registrar: "Enom", Class: Hijackable, OriginalBased: true},
	{ID: EnomRandom, Registrar: "Enom", Class: Hijackable, OriginalBased: true, randLen: 6},
	{ID: DomainPeopleRandom, Registrar: "DomainPeople", Class: Hijackable, OriginalBased: true, randLen: 5},
	{ID: FabulousRandom, Registrar: "Fabulous.com", Class: Hijackable, OriginalBased: true, randLen: 5},
	{ID: RegisterComRandom, Registrar: "Register.com", Class: Hijackable, OriginalBased: true, randLen: 5},

	// Table 6 (protected).
	{ID: EmptyAS112, Registrar: "GoDaddy", Class: Protected, Sink: "empty.as112.arpa", randLen: 12},
	{ID: NotAPlaceToBe, Registrar: "Internet.bs", Class: Protected, Sink: "notaplaceto.be", randLen: 10},
	{ID: DeleteRegistrar, Registrar: "Enom", Class: Protected, Sink: "delete-registration.com", randLen: 10},

	// §7.3 counterfactual.
	{ID: InvalidTLD, Registrar: "RFC 2606 proposal", Class: Protected, Sink: "invalid", randLen: 12},
}

var byID = func() map[ID]*Idiom {
	m := make(map[ID]*Idiom, len(catalog))
	for i := range catalog {
		m[catalog[i].ID] = &catalog[i]
	}
	return m
}()

// Lookup returns the idiom with the given ID, or nil.
func Lookup(id ID) *Idiom { return byID[id] }

// ByClass returns all idioms of the given class, in table order.
func ByClass(c Class) []Idiom {
	var out []Idiom
	for _, id := range catalog {
		if id.Class == c {
			out = append(out, id)
		}
	}
	return out
}

const randAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// randString produces a deterministic pseudo-random label fragment.
func randString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = randAlphabet[rng.Intn(len(randAlphabet))]
	}
	return string(b)
}

// swapTLD returns "biz" unless the original name is already under .biz, in
// which case it returns "com" — the GoDaddy/Enom rule the paper describes.
func swapTLD(orig dnsname.Name) string {
	if orig.TLD() == "biz" {
		return "com"
	}
	return "biz"
}

// Rename generates the sacrificial nameserver name this idiom would
// produce when renaming the host object orig. The result is deterministic
// given rng's state.
func (id *Idiom) Rename(orig dnsname.Name, rng *rand.Rand) dnsname.Name {
	switch id.ID {
	case PleaseDropThisHost:
		// ns1.foo.com -> pleasedropthishostXXXXX.foo.biz: the subdomain is
		// replaced with the marker plus a random string; the second-level
		// name is kept; the TLD flips to .biz (or .com if already .biz).
		sld, ok := dnsname.SecondLevelLabel(orig)
		if !ok {
			sld = orig.FirstLabel()
		}
		return dnsname.Canonical(fmt.Sprintf("pleasedropthishost%s.%s.%s",
			randString(rng, id.randLen), sld, swapTLD(orig)))
	case DropThisHost:
		// -> dropthishost-{uuid}.biz, always .biz.
		return dnsname.Canonical(fmt.Sprintf("dropthishost-%s.biz", uuidLike(rng)))
	case DeletedDrop:
		// -> deleted-XXXXX.drop-XXXXXX.biz.
		return dnsname.Canonical(fmt.Sprintf("deleted-%s.drop-%s.biz",
			randString(rng, id.randLen), randString(rng, id.randLen+1)))
	case Enom123:
		// ns1.foo.com -> ns1.foo123.biz.
		host := orig.FirstLabel()
		sld, ok := dnsname.SecondLevelLabel(orig)
		if !ok {
			sld = "host"
		}
		return dnsname.Canonical(fmt.Sprintf("%s.%s123.biz", host, sld))
	case EnomRandom, DomainPeopleRandom, FabulousRandom, RegisterComRandom:
		// ns1.foo.com -> ns1.fooXXXXX.biz (com if orig already biz; Enom
		// only).
		host := orig.FirstLabel()
		sld, ok := dnsname.SecondLevelLabel(orig)
		if !ok {
			sld = "host"
		}
		tld := "biz"
		if id.ID == EnomRandom {
			tld = swapTLD(orig)
		}
		return dnsname.Canonical(fmt.Sprintf("%s.%s%s.%s", host, sld, randString(rng, id.randLen), tld))
	default:
		// Sink-style idioms: {random}.{sink}. SRSPlus alternates sinks.
		sink := id.Sink
		if len(id.AltSinks) > 0 && rng.Intn(len(id.AltSinks)+1) > 0 {
			sink = id.AltSinks[rng.Intn(len(id.AltSinks))]
		}
		return dnsname.Join(randString(rng, id.randLen), sink)
	}
}

// uuidLike formats a random UUID-shaped string as used by DROPTHISHOST.
func uuidLike(rng *rand.Rand) string {
	hex := "0123456789abcdef"
	b := make([]byte, 0, 36)
	for _, n := range []int{8, 4, 4, 4, 12} {
		if len(b) > 0 {
			b = append(b, '-')
		}
		for i := 0; i < n; i++ {
			b = append(b, hex[rng.Intn(16)])
		}
	}
	return string(b)
}

// sinkIndex maps every sink domain (primary and alternate) to its idiom.
var sinkIndex = func() map[dnsname.Name]*Idiom {
	m := make(map[dnsname.Name]*Idiom)
	for i := range catalog {
		id := &catalog[i]
		if id.Sink != "" {
			m[id.Sink] = id
			for _, alt := range id.AltSinks {
				m[alt] = id
			}
		}
	}
	return m
}()

// RecognizeSink reports the sink-style idiom a nameserver belongs to, by
// suffix match against the sink-domain catalog.
func RecognizeSink(ns dnsname.Name) (*Idiom, bool) {
	for sink, id := range sinkIndex {
		if ns.InZone(sink) {
			return id, true
		}
	}
	return nil, false
}

// RecognizeMarker reports the marker-style idiom whose distinctive
// substring appears in ns, if any. DELETED-DROP requires both of its
// components to avoid matching unrelated "deleted-" names.
func RecognizeMarker(ns dnsname.Name) (*Idiom, bool) {
	s := string(ns)
	// Order matters: "pleasedropthishost" contains "dropthishost".
	if strings.Contains(s, "pleasedropthishost") {
		return byID[PleaseDropThisHost], true
	}
	if strings.Contains(s, "dropthishost") {
		return byID[DropThisHost], true
	}
	if strings.HasPrefix(s, "deleted-") && strings.Contains(s, ".drop-") {
		return byID[DeletedDrop], true
	}
	return nil, false
}

// TestNSPrefix marks registry test nameservers (§3.2.2): e.g.
// EMT-NS1.EMT-T-407979799-1575645880157-2-U.COM.
const TestNSPrefix = "emt-"

// IsTestNameserver reports whether ns matches the registry-testing naming
// pattern the paper excludes from the candidate set.
func IsTestNameserver(ns dnsname.Name) bool {
	return strings.HasPrefix(string(ns), TestNSPrefix)
}

// MatchesOriginal implements the §3.2.3 criterion: the registered-domain
// label of the original nameserver must be a leading substring of the
// sacrificial nameserver's registered-domain label, and the sacrificial
// name must sit in a different registered domain. ("internetemc" is a
// substring of "internetemc1aj2kdy".)
func MatchesOriginal(sacrificial, original dnsname.Name) bool {
	ssld, ok := dnsname.SecondLevelLabel(sacrificial)
	if !ok {
		return false
	}
	osld, ok := dnsname.SecondLevelLabel(original)
	if !ok {
		return false
	}
	sreg, _ := dnsname.RegisteredDomain(sacrificial)
	oreg, _ := dnsname.RegisteredDomain(original)
	if sreg == oreg {
		return false // same domain is a delegation change, not a rename
	}
	return strings.HasPrefix(ssld, osld)
}
