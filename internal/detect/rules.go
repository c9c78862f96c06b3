package detect

import (
	"sort"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/idioms"
	"repro/internal/registry"
	"repro/internal/whois"
)

// Outcome is where the funnel puts one candidate.
type Outcome int

// Candidate outcomes, in the order Rules.Classify tests for them (bar
// OutUnclassified, what is left when no rule fires). The values are the
// phase numbers of the watch engine's checkpoint: do not reorder them.
const (
	OutUnclassified Outcome = iota
	OutTest
	OutSingleRepo
	OutSacrificial
)

// Verdict is one candidate's classification.
type Verdict struct {
	Outcome Outcome
	// The rest is set for OutSacrificial only. Method is "sink",
	// "marker" or "original"; Original is the renamed nameserver the
	// history match found.
	Idiom     *idioms.Idiom
	Method    string
	Registrar string
	Original  dnsname.Name
}

// Evidence is what the rules read about one candidate besides its name
// and first day. Batch detection reads it off a sealed view; the watch
// engine off its state and the day's delta.
type Evidence interface {
	// Operators is the set of registry operators of the TLDs of the
	// domains that delegate to the candidate.
	Operators() map[string]bool
	// EachDropped calls fn with each nameserver that a domain first
	// delegating to the candidate on its first day stopped delegating
	// to on the day before: once per such domain and nameserver.
	EachDropped(fn func(prev dnsname.Name))
}

// Rules is the paper's per-candidate method (§3.1–§3.2) over the side
// inputs it reads: the WHOIS registrar history and the registry-operator
// directory. Batch detection and the watch engine both classify through
// it, so the two agree by construction.
type Rules struct {
	WHOIS *whois.History
	Dir   *registry.Directory
}

// Classify runs the rules on one unresolvable-at-first-reference
// candidate, in order: registry test nameservers go (§3.2.2), sink and
// marker idioms classify on the name alone, the single-repository
// property eliminates what cannot be a rename (§3.1), and the
// original-nameserver match attributes what is left (§3.2.3).
func (r *Rules) Classify(ns dnsname.Name, first dates.Day, ev Evidence) Verdict {
	if idioms.IsTestNameserver(ns) {
		return Verdict{Outcome: OutTest}
	}
	if idiom, ok := idioms.RecognizeSink(ns); ok {
		return Verdict{Outcome: OutSacrificial, Idiom: idiom, Method: "sink", Registrar: idiom.Registrar}
	}
	if idiom, ok := idioms.RecognizeMarker(ns); ok {
		return Verdict{Outcome: OutSacrificial, Idiom: idiom, Method: "marker", Registrar: idiom.Registrar}
	}
	if r.ViolatesSingleRepo(ns, ev.Operators()) {
		return Verdict{Outcome: OutSingleRepo}
	}
	if idiom, registrarName, orig, ok := r.matchOriginal(ns, first, ev); ok {
		return Verdict{Outcome: OutSacrificial, Idiom: idiom, Method: "original", Registrar: registrarName, Original: orig}
	}
	return Verdict{Outcome: OutUnclassified}
}

// ViolatesSingleRepo applies property 3 of §3.1 to the registry
// operators of a candidate's affected domains: a rename product cannot
// span operators, and cannot live under the same operator as the domains
// it serves (a rename target is always external to the repository that
// performed it). The violation is monotone in the operator set, which is
// what lets the watch engine re-test it as delegations arrive.
func (r *Rules) ViolatesSingleRepo(ns dnsname.Name, operators map[string]bool) bool {
	if len(operators) > 1 {
		return true
	}
	op := r.Dir.OperatorOf(ns.TLD())
	return op != "" && operators[op]
}

// matchOriginal implements §3.2.3. Each nameserver a first-day domain
// dropped the day before that satisfies the registered-domain substring
// criterion votes for the registrar WHOIS reports for its domain on that
// day. The majority registrar wins, ties breaking by name, and the
// rename maps to that registrar's original-based idiom.
func (r *Rules) matchOriginal(ns dnsname.Name, first dates.Day, ev Evidence) (*idioms.Idiom, string, dnsname.Name, bool) {
	type match struct {
		rr   string
		prev dnsname.Name
	}
	var matches []match
	ev.EachDropped(func(prev dnsname.Name) {
		if prev == ns || !idioms.MatchesOriginal(ns, prev) {
			return
		}
		if reg, ok := dnsname.RegisteredDomain(prev); ok {
			if rr := r.WHOIS.RegistrarOn(reg, first-1); rr != "" {
				matches = append(matches, match{rr, prev})
			}
		}
	})
	if len(matches) == 0 {
		return nil, "", "", false
	}
	// Sorted, each registrar's votes are one run whose first entry is
	// its least original; a strictly longer run wins, so the earliest
	// (least-named) registrar keeps a tie.
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].rr != matches[j].rr {
			return matches[i].rr < matches[j].rr
		}
		return matches[i].prev < matches[j].prev
	})
	best, bestVotes := 0, 0
	for i := 0; i < len(matches); {
		j := i + 1
		for j < len(matches) && matches[j].rr == matches[i].rr {
			j++
		}
		if j-i > bestVotes {
			best, bestVotes = i, j-i
		}
		i = j
	}
	m := matches[best]
	idiom := originalIdiomFor(m.rr, ns, m.prev)
	if idiom == nil {
		return nil, "", "", false
	}
	return idiom, m.rr, m.prev, true
}

// originalIdiomFor maps an attributed registrar to its original-based
// renaming idiom, distinguishing Enom's 123.BIZ era from its random-name
// era by shape: the original's second-level label plus "123". The TLD
// is not part of the shape: under the paper's ".biz unless already
// .biz, then .com" rule a .biz original is renamed into .com. Unknown
// registrars yield nil: the methodology is conservative and only
// classifies confirmed idioms (§3.3).
func originalIdiomFor(registrarName string, ns, orig dnsname.Name) *idioms.Idiom {
	switch registrarName {
	case "Enom":
		ssld, _ := dnsname.SecondLevelLabel(ns)
		osld, _ := dnsname.SecondLevelLabel(orig)
		if ssld == osld+"123" {
			return idioms.Lookup(idioms.Enom123)
		}
		return idioms.Lookup(idioms.EnomRandom)
	case "GoDaddy":
		// GoDaddy's original-based idiom carries the marker and is
		// classified earlier; reaching here means the shape is unknown.
		return idioms.Lookup(idioms.PleaseDropThisHost)
	case "DomainPeople":
		return idioms.Lookup(idioms.DomainPeopleRandom)
	case "Fabulous.com":
		return idioms.Lookup(idioms.FabulousRandom)
	case "Register.com":
		return idioms.Lookup(idioms.RegisterComRandom)
	default:
		return nil
	}
}
