// Package watch runs the detection methodology one day at a time.
//
// The batch Detector (internal/detect) answers "which nameservers were
// sacrificial" over a complete longitudinal database. An Engine answers
// the same question as the days arrive: it consumes per-day deltas
// (internal/zonedb/delta), keeps the day's glue, registrations and
// delegations, and gathers for each nameserver first delegated to that
// day the evidence detect's rules read — whether it resolves that day
// (resolve.Chase over today's state), the registry operators of its
// domains, and the nameservers those domains dropped the day before.
// The rules themselves (detect.Rules) are the batch detector's own, so
// the two agree by construction; what the engine adds is a
// per-nameserver state machine (registration watch, hijack event,
// retraction) touching only the names that changed, so a day costs
// O(changes), not O(database).
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
	"repro/internal/resolve"
	"repro/internal/whois"
	"repro/internal/zonedb/delta"
)

// ErrStale is returned by ApplyDay for a day at or before the engine's
// last applied day. Deltas are idempotent at the feed level precisely
// because the engine refuses replays: a resumed consumer can re-request
// an overlapping window and drop the overlap by this error.
var ErrStale = errors.New("watch: delta day already applied")

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
	NS    dnsname.Name   `json:"ns"`
	First dates.Day      `json:"first"`
	Phase detect.Outcome `json:"phase"`

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
	return st.Phase == detect.OutUnclassified || st.Phase == detect.OutSacrificial
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
	rules detect.Rules
	chase resolve.Chase

	// Day-d active state, maintained by applying adds and removes.
	glue   map[dnsname.Name]bool                  // hosts with glue today
	doms   map[dnsname.Name]bool                  // domains registered today
	active map[dnsname.Name]map[dnsname.Name]bool // domain -> active NS set

	seen     map[dnsname.Name]dates.Day      // every NS ever delegated to -> first day
	cand     map[dnsname.Name]*nsState       // unresolvable-at-first-reference candidates
	regWatch map[dnsname.Name][]dnsname.Name // registrable domain -> hijackable NS watching it

	funnel detect.Funnel
	last   dates.Day
	seq    uint64
}

// New returns an empty engine sharing the batch detector's side inputs:
// the WHOIS registrar history and the registry-operator directory.
func New(wh *whois.History, dir *registry.Directory) *Engine {
	return &Engine{
		rules:    detect.Rules{WHOIS: wh, Dir: dir},
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
			if op := e.rules.Dir.OperatorOf(ed.Domain.TLD()); op != "" {
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
	// is the chase resolve.Static.ResolvableOn(ns, today) runs on the
	// sealed view, read off today's state instead of the view's spans.
	sort.Slice(newNS, func(i, j int) bool { return newNS[i] < newNS[j] })
	for _, ns := range newNS {
		if e.chase.Resolvable((*today)(e), ns) {
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
		if !st.tracked() || !e.rules.ViolatesSingleRepo(ns, st.Operators) {
			continue
		}
		if st.Phase == detect.OutSacrificial {
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
		st.Phase = detect.OutSingleRepo
		st.Operators, st.Domains, st.Open = nil, nil, nil
	}

	e.last = day
	return alerts, nil
}

// classify gathers a new candidate's first-day evidence, runs detect's
// rules on it, and starts the candidate's state machine from the
// verdict.
func (e *Engine) classify(ns dnsname.Name, day dates.Day, domains []dnsname.Name, removedToday map[dnsname.Name][]dnsname.Name, alerts []Alert) []Alert {
	ev := &firstDay{dir: e.rules.Dir, domains: domains}
	for _, dom := range domains {
		ev.dropped = append(ev.dropped, removedToday[dom]...)
	}
	v := e.rules.Classify(ns, day, ev)
	st := &nsState{NS: ns, First: day, Phase: v.Outcome, HijackedOn: dates.None}
	e.cand[ns] = st
	switch v.Outcome {
	case detect.OutTest:
		e.funnel.TestNameservers++
		return alerts
	case detect.OutSingleRepo:
		e.funnel.SingleRepoViolations++
		return alerts
	}

	// Every other verdict tracks the candidate's delegations, which its
	// alerts and Result report, and their operators, by which a later
	// edge can still demote it.
	st.Operators = ev.Operators()
	st.Domains = make(map[dnsname.Name]*interval.Set)
	st.Open = make(map[dnsname.Name]dates.Day, len(domains))
	for _, dom := range domains {
		st.Open[dom] = day
	}
	if v.Outcome == detect.OutUnclassified {
		e.funnel.Unclassified++
		return alerts
	}

	st.Method, st.Registrar, st.Original = v.Method, v.Registrar, v.Original
	st.Idiom, st.Class = v.Idiom.ID, v.Idiom.Class
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

// firstDay is a new candidate's detect.Evidence, read off the engine on
// the candidate's first day. A span ending the day before, which the
// batch rules look for on the view, is from the stream precisely an
// edge removed today, so dropped holds today's removals from the
// candidate's domains. (Copied out rather than read through the day's
// map, which would then escape to the heap every day.)
type firstDay struct {
	dir     *registry.Directory
	domains []dnsname.Name
	dropped []dnsname.Name
	ops     map[string]bool
}

// Operators is built on first use: test names and sink or marker idioms
// classify without it.
func (f *firstDay) Operators() map[string]bool {
	if f.ops == nil {
		f.ops = make(map[string]bool)
		for _, dom := range f.domains {
			if op := f.dir.OperatorOf(dom.TLD()); op != "" {
				f.ops[op] = true
			}
		}
	}
	return f.ops
}

func (f *firstDay) EachDropped(fn func(prev dnsname.Name)) {
	for _, prev := range f.dropped {
		fn(prev)
	}
}

// today is the engine's day state as the resolver chase reads it.
type today Engine

func (t *today) Glue(name dnsname.Name) bool { return t.glue[name] }

func (t *today) AppendNS(buf []dnsname.Name, reg dnsname.Name) []dnsname.Name {
	for ns := range t.active[reg] {
		buf = append(buf, ns)
	}
	return buf
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
		if st.Phase != detect.OutSacrificial {
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
