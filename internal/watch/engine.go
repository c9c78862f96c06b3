// Package watch re-implements the detection methodology incrementally.
//
// The batch Detector (internal/detect) answers "which nameservers were
// sacrificial" by scanning a complete longitudinal database. This
// package answers the same question one day at a time: an Engine
// consumes per-day deltas (internal/zonedb/delta) and advances a
// per-nameserver state machine — first-delegation resolvability check,
// idiom match, hijackable classification, registration watch, hijack
// event — touching only the names that changed. Replaying the full
// history through an Engine yields the same funnel and the same
// sacrificial records as a batch run over the same sealed view (proven
// in the equivalence tests); the per-day cost is O(changes), not
// O(database).
//
// Streaming can do one thing batch cannot — alert the day a sacrificial
// name appears — and cannot do one thing batch can: see the future. A
// candidate classified by the original-nameserver match may later gain
// a delegation that violates the single-repository property, which the
// batch pipeline checks first. The engine therefore demotes such
// candidates when the violating edge arrives and emits a "retracted"
// alert, so the final state still converges to the batch verdict.
//
// The engine's state is serializable: Checkpoint/Restore round-trips
// the whole machine through JSON so a killed watcher resumes exactly
// where it stopped, without replaying history.
package watch

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/idioms"
	"repro/internal/interval"
	"repro/internal/registry"
	"repro/internal/whois"
	"repro/internal/zonedb/delta"
)

// maxDepth mirrors resolve.Static's delegation-chase bound. The per-day
// resolver below must stop exactly where the batch resolver stops or the
// candidate sets diverge.
const maxDepth = 4

// ErrStale is returned by ApplyDay for a day at or before the engine's
// last applied day. Deltas are idempotent at the feed level precisely
// because the engine refuses replays: a resumed consumer can re-request
// an overlapping window and drop the overlap by this error.
var ErrStale = errors.New("watch: delta day already applied")

// Alert phases of a tracked nameserver. The zero value is unclassified.
const (
	phaseUnclassified = iota
	phaseTest
	phaseSingleRepo
	phaseSacrificial
)

// Alert types.
const (
	AlertSacrificial = "sacrificial" // new sacrificial nameserver detected
	AlertHijacked    = "hijacked"    // a watched registrable domain was registered
	AlertRetracted   = "retracted"   // earlier sacrificial verdict withdrawn (single-repo violation)
)

// Alert is one detection event, emitted the day it becomes knowable.
type Alert struct {
	Seq  uint64       `json:"seq"`
	Type string       `json:"type"`
	Day  dates.Day    `json:"day"`
	NS   dnsname.Name `json:"ns"`

	Method     string       `json:"method,omitempty"`
	Idiom      idioms.ID    `json:"idiom,omitempty"`
	Registrar  string       `json:"registrar,omitempty"`
	Original   dnsname.Name `json:"original,omitempty"`
	RegDomain  dnsname.Name `json:"reg_domain,omitempty"`
	Hijackable bool         `json:"hijackable"`
	Collision  bool         `json:"collision,omitempty"`
	// Domains is the number of affected domains known at alert time.
	Domains int `json:"domains"`
}

// nsState is the per-candidate state machine record. Fields are
// exported for the JSON checkpoint; the type itself stays private.
type nsState struct {
	NS    dnsname.Name `json:"ns"`
	First dates.Day    `json:"first"`
	Phase int          `json:"phase"`

	Method    string       `json:"method,omitempty"`
	Idiom     idioms.ID    `json:"idiom,omitempty"`
	Class     idioms.Class `json:"class,omitempty"`
	Registrar string       `json:"registrar,omitempty"`
	Original  dnsname.Name `json:"original,omitempty"`
	RegDomain dnsname.Name `json:"reg_domain,omitempty"`
	Collision bool         `json:"collision,omitempty"`

	HijackedOn dates.Day `json:"hijacked_on"`

	// Operators accumulates the registry operators of affected TLDs for
	// the monotone single-repository re-check (tracked for unclassified
	// and original-matched candidates, the only demotable phases).
	Operators map[string]bool `json:"operators,omitempty"`
	// Domains holds sealed delegation spans per affected domain; Open
	// holds the start day of each delegation still active.
	Domains map[dnsname.Name]*interval.Set `json:"domains,omitempty"`
	Open    map[dnsname.Name]dates.Day     `json:"open,omitempty"`
}

// tracked reports whether the phase still accumulates span/operator
// state (terminal test/single-repo candidates are frozen).
func (st *nsState) tracked() bool {
	return st.Phase == phaseUnclassified || st.Phase == phaseSacrificial
}

// numDomains counts the distinct affected domains known so far (sealed
// or still open).
func (st *nsState) numDomains() int {
	n := len(st.Domains)
	for dom := range st.Open {
		if _, sealed := st.Domains[dom]; !sealed {
			n++
		}
	}
	return n
}

// Engine is the incremental detector. It is not safe for concurrent
// use; one goroutine owns it (the daemon's apply loop).
type Engine struct {
	whois *whois.History
	dir   *registry.Directory

	// Day-d active state, maintained by applying adds and removes.
	glue   map[dnsname.Name]bool                   // hosts with glue today
	doms   map[dnsname.Name]bool                   // domains registered today
	active map[dnsname.Name]map[dnsname.Name]bool  // domain -> active NS set

	seen     map[dnsname.Name]dates.Day    // every NS ever delegated to -> first day
	cand     map[dnsname.Name]*nsState     // unresolvable-at-first-reference candidates
	regWatch map[dnsname.Name][]dnsname.Name // registrable domain -> hijackable NS watching it

	funnel detect.Funnel
	last   dates.Day
	seq    uint64
}

// New returns an empty engine sharing the batch detector's side inputs:
// the WHOIS registrar history and the registry-operator directory.
func New(wh *whois.History, dir *registry.Directory) *Engine {
	return &Engine{
		whois:    wh,
		dir:      dir,
		glue:     make(map[dnsname.Name]bool),
		doms:     make(map[dnsname.Name]bool),
		active:   make(map[dnsname.Name]map[dnsname.Name]bool),
		seen:     make(map[dnsname.Name]dates.Day),
		cand:     make(map[dnsname.Name]*nsState),
		regWatch: make(map[dnsname.Name][]dnsname.Name),
		last:     dates.None,
	}
}

// LastDay returns the last applied day, or dates.None before the first
// ApplyDay.
func (e *Engine) LastDay() dates.Day { return e.last }

// Seq returns the number of alerts emitted so far.
func (e *Engine) Seq() uint64 { return e.seq }

// Funnel returns the current candidate-elimination counts. After a full
// replay they equal the batch Detector's funnel.
func (e *Engine) Funnel() detect.Funnel { return e.funnel }

// ApplyDay advances the engine by one day. Days must be applied in
// strictly increasing order; gaps are fine (a skipped day is implicitly
// quiet). A day at or before LastDay returns ErrStale and changes
// nothing, which is what makes restart-and-rewind safe.
func (e *Engine) ApplyDay(dd *delta.DayDelta) ([]Alert, error) {
	day := dd.Day
	if day == dates.None {
		return nil, fmt.Errorf("watch: delta has no day")
	}
	if e.last != dates.None && day <= e.last {
		return nil, fmt.Errorf("%w: day %s, engine at %s", ErrStale, day, e.last)
	}
	var alerts []Alert

	// 1. Delegation removals: update the active sets, seal open spans of
	// tracked candidates, and remember which edges ended yesterday — the
	// original-nameserver match below needs exactly those.
	removedToday := make(map[dnsname.Name][]dnsname.Name)
	for _, ed := range dd.EdgesRemoved {
		if set := e.active[ed.Domain]; set != nil {
			delete(set, ed.NS)
			if len(set) == 0 {
				delete(e.active, ed.Domain)
			}
		}
		removedToday[ed.Domain] = append(removedToday[ed.Domain], ed.NS)
		if st := e.cand[ed.NS]; st != nil && st.tracked() {
			if open, ok := st.Open[ed.Domain]; ok {
				st.span(ed.Domain).Add(dates.NewRange(open, day-1))
				delete(st.Open, ed.Domain)
			}
		}
	}

	// 2. Delegation additions: update active sets, note first
	// appearances, and extend tracked candidates (new operators may
	// trigger a single-repo demotion in step 6).
	var newNS []dnsname.Name
	newEdges := make(map[dnsname.Name][]dnsname.Name) // new NS -> today's domains
	var touched []dnsname.Name
	for _, ed := range dd.EdgesAdded {
		set := e.active[ed.Domain]
		if set == nil {
			set = make(map[dnsname.Name]bool)
			e.active[ed.Domain] = set
		}
		set[ed.NS] = true
		if _, ok := e.seen[ed.NS]; !ok {
			e.seen[ed.NS] = day
			e.funnel.TotalNameservers++
			newNS = append(newNS, ed.NS)
		}
		if e.seen[ed.NS] == day {
			// First-day delegations feed classification in step 5.
			newEdges[ed.NS] = append(newEdges[ed.NS], ed.Domain)
			continue
		}
		if st := e.cand[ed.NS]; st != nil && st.tracked() {
			if st.Open == nil {
				st.Open = make(map[dnsname.Name]dates.Day)
			}
			st.Open[ed.Domain] = day
			if op := e.dir.OperatorOf(ed.Domain.TLD()); op != "" {
				if st.Operators == nil {
					st.Operators = make(map[string]bool)
				}
				st.Operators[op] = true
			}
			touched = append(touched, ed.NS)
		}
	}

	// 3. Domain registration churn. A registration fires the hijack
	// watch of any sacrificial NS whose registrable domain this is; the
	// watchers were all registered on earlier days (a same-day
	// registration is a collision, handled at classification).
	for _, dom := range dd.DomainsAdded {
		e.doms[dom] = true
		if watchers := e.regWatch[dom]; len(watchers) > 0 {
			for _, ns := range watchers {
				st := e.cand[ns]
				st.HijackedOn = day
				alerts = append(alerts, e.alert(Alert{
					Type: AlertHijacked, Day: day, NS: ns,
					Method: st.Method, Idiom: st.Idiom, Registrar: st.Registrar,
					Original: st.Original, RegDomain: st.RegDomain,
					Hijackable: true, Domains: st.numDomains(),
				}))
			}
			delete(e.regWatch, dom)
		}
	}
	for _, dom := range dd.DomainsRemoved {
		delete(e.doms, dom)
	}

	// 4. Glue churn.
	for _, h := range dd.GlueAdded {
		e.glue[h] = true
	}
	for _, h := range dd.GlueRemoved {
		delete(e.glue, h)
	}

	// 5. Classify nameservers first delegated to today, in name order
	// (the batch pipeline sorts candidates the same way). Resolvability
	// is evaluated against today's active state, which is exactly
	// resolve.Static.ResolvableOn(ns, today) on the sealed view: the same
	// rule read off the day's facts instead of their spans.
	sort.Slice(newNS, func(i, j int) bool { return newNS[i] < newNS[j] })
	for _, ns := range newNS {
		if e.resolvableToday(ns) {
			continue
		}
		e.funnel.Candidates++
		alerts = e.classify(ns, day, newEdges[ns], removedToday, alerts)
	}

	// 6. Re-check the single-repository property of candidates that
	// gained delegations today. The violation is monotone (the operator
	// set only grows), and in the batch pipeline it is tested before the
	// original-nameserver match — so an unclassified or original-matched
	// candidate that now violates must demote to match the batch verdict.
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	var prev dnsname.Name
	for _, ns := range touched {
		if ns == prev {
			continue
		}
		prev = ns
		st := e.cand[ns]
		if !st.tracked() || !e.violatesSingleRepo(st) {
			continue
		}
		if st.Phase == phaseSacrificial {
			if st.Method != "original" {
				continue // sink/marker idioms classify before the single-repo stage
			}
			e.funnel.Sacrificial--
			e.unwatch(st)
			alerts = append(alerts, e.alert(Alert{
				Type: AlertRetracted, Day: day, NS: ns,
				Method: st.Method, Idiom: st.Idiom, Registrar: st.Registrar,
				Original: st.Original, RegDomain: st.RegDomain,
				Domains: st.numDomains(),
			}))
		} else {
			e.funnel.Unclassified--
		}
		e.funnel.SingleRepoViolations++
		st.Phase = phaseSingleRepo
		st.Operators, st.Domains, st.Open = nil, nil, nil
	}

	e.last = day
	return alerts, nil
}

// classify runs the batch pipeline's per-candidate stages (test filter,
// sink/marker idioms, single-repository property, original-nameserver
// match) against first-day state.
func (e *Engine) classify(ns dnsname.Name, day dates.Day, domains []dnsname.Name, removedToday map[dnsname.Name][]dnsname.Name, alerts []Alert) []Alert {
	st := &nsState{NS: ns, First: day, HijackedOn: dates.None}
	e.cand[ns] = st

	if idioms.IsTestNameserver(ns) {
		st.Phase = phaseTest
		e.funnel.TestNameservers++
		return alerts
	}

	var idiom *idioms.Idiom
	if id, ok := idioms.RecognizeSink(ns); ok {
		idiom, st.Method, st.Registrar = id, "sink", id.Registrar
	} else if id, ok := idioms.RecognizeMarker(ns); ok {
		idiom, st.Method, st.Registrar = id, "marker", id.Registrar
	}

	// Track spans and operators from the first-day delegations; needed
	// for every non-terminal outcome below.
	sort.Slice(domains, func(i, j int) bool { return domains[i] < domains[j] })
	st.Domains = make(map[dnsname.Name]*interval.Set)
	st.Open = make(map[dnsname.Name]dates.Day)
	st.Operators = make(map[string]bool)
	for _, dom := range domains {
		st.Open[dom] = day
		if op := e.dir.OperatorOf(dom.TLD()); op != "" {
			st.Operators[op] = true
		}
	}

	if idiom == nil {
		// Single-repository property, then the §3.2.3 history match.
		if e.violatesSingleRepo(st) {
			st.Phase = phaseSingleRepo
			e.funnel.SingleRepoViolations++
			st.Operators, st.Domains, st.Open = nil, nil, nil
			return alerts
		}
		var orig dnsname.Name
		idiom, st.Registrar, orig = e.matchOriginal(ns, day, domains, removedToday)
		if idiom == nil {
			e.funnel.Unclassified++
			return alerts // stays unclassified (tracked for demotion)
		}
		st.Method, st.Original = "original", orig
	}

	st.Phase = phaseSacrificial
	st.Idiom, st.Class = idiom.ID, idiom.Class
	e.funnel.Sacrificial++
	if reg, ok := dnsname.RegisteredDomain(ns); ok {
		st.RegDomain = reg
	}
	hijackable := false
	if st.Class == idioms.Hijackable && st.RegDomain != "" {
		if e.doms[st.RegDomain] {
			st.Collision = true // already registered the day the name appeared
		} else {
			hijackable = true
			e.regWatch[st.RegDomain] = append(e.regWatch[st.RegDomain], ns)
		}
	}
	return append(alerts, e.alert(Alert{
		Type: AlertSacrificial, Day: day, NS: ns,
		Method: st.Method, Idiom: st.Idiom, Registrar: st.Registrar,
		Original: st.Original, RegDomain: st.RegDomain,
		Hijackable: hijackable, Collision: st.Collision,
		Domains: st.numDomains(),
	}))
}

// matchOriginal is the incremental §3.2.3 match. The batch version
// looks for previous nameservers of the candidate's first-day domains
// whose delegation span ends exactly the day before — which, seen from
// the stream, is precisely the set of edges removed today (a span
// ending on day-1 exists iff the delta feed emitted its removal today).
func (e *Engine) matchOriginal(ns dnsname.Name, day dates.Day, domains []dnsname.Name, removedToday map[dnsname.Name][]dnsname.Name) (*idioms.Idiom, string, dnsname.Name) {
	type match struct {
		rr   string
		prev dnsname.Name
	}
	var matches []match
	for _, dom := range domains {
		for _, prevNS := range removedToday[dom] {
			if prevNS == ns || !idioms.MatchesOriginal(ns, prevNS) {
				continue
			}
			reg, ok := dnsname.RegisteredDomain(prevNS)
			if !ok {
				continue
			}
			rr := e.whois.RegistrarOn(reg, day-1)
			if rr == "" {
				continue
			}
			matches = append(matches, match{rr, prevNS})
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].rr != matches[j].rr {
			return matches[i].rr < matches[j].rr
		}
		return matches[i].prev < matches[j].prev
	})
	votes := make(map[string]int)
	originals := make(map[string]dnsname.Name)
	for _, m := range matches {
		votes[m.rr]++
		if _, have := originals[m.rr]; !have {
			originals[m.rr] = m.prev
		}
	}
	if len(votes) == 0 {
		return nil, "", ""
	}
	var best string
	for rr := range votes {
		if best == "" || votes[rr] > votes[best] || (votes[rr] == votes[best] && rr < best) {
			best = rr
		}
	}
	idiom := detect.OriginalIdiomFor(best, ns, originals[best])
	if idiom == nil {
		return nil, "", ""
	}
	return idiom, best, originals[best]
}

// violatesSingleRepo applies property 3 of §3.1 over the accumulated
// operator set: more than one repository, or the candidate living under
// the same operator as its affected domains.
func (e *Engine) violatesSingleRepo(st *nsState) bool {
	if len(st.Operators) > 1 {
		return true
	}
	if op := e.dir.OperatorOf(st.NS.TLD()); op != "" && st.Operators[op] {
		return true
	}
	return false
}

// resolvableToday is resolve.Static.ResolvableOn asked of the current
// day's state: glue, or a name with glue within maxDepth-1 active
// delegations, each followed from a name to the nameservers its
// registered domain is delegated to today. Like the batch resolver it
// goes breadth-first and visits a name once, at its least distance, so
// the answer depends on today's state and ns alone.
func (e *Engine) resolvableToday(ns dnsname.Name) bool {
	if e.glue[ns] {
		return true
	}
	seen := map[dnsname.Name]bool{ns: true}
	frontier := []dnsname.Name{ns}
	for hop := 1; hop < maxDepth && len(frontier) > 0; hop++ {
		var next []dnsname.Name
		for _, name := range frontier {
			reg, ok := dnsname.RegisteredDomain(name)
			if !ok {
				continue
			}
			for parent := range e.active[reg] {
				if seen[parent] {
					continue
				}
				if e.glue[parent] {
					return true
				}
				seen[parent] = true
				next = append(next, parent)
			}
		}
		frontier = next
	}
	return false
}

// unwatch removes a demoted candidate from its registration watch.
func (e *Engine) unwatch(st *nsState) {
	if st.RegDomain == "" {
		return
	}
	ws := e.regWatch[st.RegDomain]
	for i, ns := range ws {
		if ns == st.NS {
			ws = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(ws) == 0 {
		delete(e.regWatch, st.RegDomain)
	} else {
		e.regWatch[st.RegDomain] = ws
	}
}

func (e *Engine) alert(a Alert) Alert {
	e.seq++
	a.Seq = e.seq
	return a
}

// span returns (creating if needed) the sealed-span set of one affected
// domain.
func (st *nsState) span(dom dnsname.Name) *interval.Set {
	if st.Domains == nil {
		st.Domains = make(map[dnsname.Name]*interval.Set)
	}
	s, ok := st.Domains[dom]
	if !ok {
		s = &interval.Set{}
		st.Domains[dom] = s
	}
	return s
}

// Result exports the engine's current verdicts in the batch Detector's
// shape: the funnel plus one Sacrificial record per still-standing
// sacrificial nameserver, sorted by name, with delegations still open
// sealed at the last applied day. After replaying a sealed view's full
// delta window, the result equals the batch Detector's output on that
// view.
func (e *Engine) Result() *detect.Result {
	var sacs []detect.Sacrificial
	for _, st := range e.cand {
		if st.Phase != phaseSacrificial {
			continue
		}
		s := detect.Sacrificial{
			NS:         st.NS,
			Created:    st.First,
			Idiom:      st.Idiom,
			Class:      st.Class,
			Registrar:  st.Registrar,
			Original:   st.Original,
			RegDomain:  st.RegDomain,
			Collision:  st.Collision,
			HijackedOn: st.HijackedOn,
		}
		doms := make(map[dnsname.Name]*interval.Set, len(st.Domains))
		for dom, spans := range st.Domains {
			c := spans.Clone()
			doms[dom] = &c
		}
		for dom, open := range st.Open {
			set, ok := doms[dom]
			if !ok {
				set = &interval.Set{}
				doms[dom] = set
			}
			set.Add(dates.NewRange(open, e.last))
		}
		for dom, spans := range doms {
			s.Domains = append(s.Domains, detect.AffectedDomain{Name: dom, Spans: spans})
		}
		sort.Slice(s.Domains, func(i, j int) bool { return s.Domains[i].Name < s.Domains[j].Name })
		sacs = append(sacs, s)
	}
	sort.Slice(sacs, func(i, j int) bool { return sacs[i].NS < sacs[j].NS })
	return detect.NewResult(sacs, e.funnel)
}
