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
// The day state is kept on interned ids — one table from name to id and
// one record per name — and a name's id is recycled once it carries no
// state, so the engine's memory is bounded by the names live today, plus
// every nameserver ever seen, plus the candidates.
//
// The engine's state is serializable: Checkpoint/Restore round-trips
// the whole machine through JSON so a killed watcher resumes exactly
// where it stopped, without replaying history.
package watch

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/idioms"
	"repro/internal/interval"
	"repro/internal/registry"
	"repro/internal/resolve"
	"repro/internal/whois"
	"repro/internal/zonedb"
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
//
// ids maps each name that carries state to its record in recs, and a
// record gives its id to free the moment it carries none (the package
// comment states the memory bound this gives). A day's delta costs one
// hash per name it mentions and allocates no maps.
type Engine struct {
	rules detect.Rules
	chase resolve.Chase

	ids   map[dnsname.Name]int32
	recs  []rec
	free  []int32
	cands []int32 // every id with a candidate record, so Result is O(candidates)

	regWatch map[dnsname.Name][]dnsname.Name // registrable domain -> hijackable NS watching it

	// Scratch reused across days: the first-day delegations of new
	// nameservers, the candidates a day extended, and the evidence handed
	// to the rules.
	fresh   []dayEdge
	touched []int32
	ev      firstDay

	funnel detect.Funnel
	last   dates.Day
	seq    uint64
}

// rec is everything the engine knows about one name on the current day.
// A name can play every role at once (a registered domain that is also a
// nameserver with glue), so the roles share one record.
type rec struct {
	name  dnsname.Name
	ns    []int32   // nameservers this domain delegates to today
	cand  *nsState  // the candidate record, for a name classified on its first day
	first dates.Day // first day delegated to as a nameserver; dates.None if never
	glue  bool      // host with glue today
	reg   bool      // domain registered today
}

// idle reports whether the record carries no state, so its id can go.
// Every active delegation's nameserver has a first day, so an idle
// record is referenced from no other record either.
func (r *rec) idle() bool {
	return r.first == dates.None && r.cand == nil && !r.glue && !r.reg && len(r.ns) == 0
}

// dayEdge is a delegation added on its nameserver's first day.
type dayEdge struct {
	id      int32
	ns, dom dnsname.Name
}

// New returns an empty engine sharing the batch detector's side inputs:
// the WHOIS registrar history and the registry-operator directory.
func New(wh *whois.History, dir *registry.Directory) *Engine {
	return &Engine{
		rules:    detect.Rules{WHOIS: wh, Dir: dir},
		ids:      make(map[dnsname.Name]int32),
		regWatch: make(map[dnsname.Name][]dnsname.Name),
		last:     dates.None,
	}
}

// intern returns name's id, giving it a record if it has none.
func (e *Engine) intern(name dnsname.Name) int32 {
	if id, ok := e.ids[name]; ok {
		return id
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
		e.recs[id].name = name
	} else {
		id = int32(len(e.recs))
		e.recs = append(e.recs, rec{name: name, first: dates.None})
	}
	e.ids[name] = id
	return id
}

// lookup returns name's record, or nil if it carries no state.
func (e *Engine) lookup(name dnsname.Name) (int32, *rec) {
	id, ok := e.ids[name]
	if !ok {
		return -1, nil
	}
	return id, &e.recs[id]
}

// candidate returns name's candidate record, or nil.
func (e *Engine) candidate(name dnsname.Name) *nsState {
	if _, r := e.lookup(name); r != nil {
		return r.cand
	}
	return nil
}

// release recycles id if its record no longer carries any state. The
// record keeps its delegation slice's capacity for the next name.
func (e *Engine) release(id int32) {
	r := &e.recs[id]
	if !r.idle() {
		return
	}
	delete(e.ids, r.name)
	*r = rec{ns: r.ns[:0], first: dates.None}
	e.free = append(e.free, id)
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
// nothing, which is what makes restart-and-rewind safe. A day whose
// EdgesRemoved is not in DayDelta.Sort order is refused the same way:
// the original-nameserver evidence is found in it by binary search, and
// the day may be shared with other readers, so the engine will not sort
// it in place.
func (e *Engine) ApplyDay(dd *delta.DayDelta) ([]Alert, error) {
	day := dd.Day
	if day == dates.None {
		return nil, fmt.Errorf("watch: delta has no day")
	}
	if e.last != dates.None && day <= e.last {
		return nil, fmt.Errorf("%w: day %s, engine at %s", ErrStale, day, e.last)
	}
	if !slices.IsSortedFunc(dd.EdgesRemoved, zonedb.CompareEdges) {
		return nil, fmt.Errorf("watch: day %s: removed edges not sorted by domain, then nameserver", day)
	}
	var alerts []Alert

	// 1. Delegation removals: update the active sets and seal open spans
	// of tracked candidates. The edges removed today stay in dd, where
	// the original-nameserver match below looks them up. A domain's
	// edges are adjacent, so it is looked up once for all of them (a
	// record released meanwhile has no delegations left to remove).
	domID := int32(-1)
	for i, ed := range dd.EdgesRemoved {
		if i == 0 || ed.Domain != dd.EdgesRemoved[i-1].Domain {
			domID, _ = e.lookup(ed.Domain)
		}
		nsID, ns := e.lookup(ed.NS)
		if ns == nil {
			continue // never delegated to: neither active nor a candidate
		}
		if domID >= 0 {
			dom := &e.recs[domID]
			if j := slices.Index(dom.ns, nsID); j >= 0 {
				last := len(dom.ns) - 1
				dom.ns[j] = dom.ns[last]
				dom.ns = dom.ns[:last]
				e.release(domID)
			}
		}
		if st := e.recs[nsID].cand; st != nil && st.tracked() {
			if open, ok := st.Open[ed.Domain]; ok {
				st.span(ed.Domain).Add(dates.NewRange(open, day-1))
				delete(st.Open, ed.Domain)
			}
		}
	}

	// 2. Delegation additions: update active sets, note first
	// appearances, and extend tracked candidates (new operators may
	// trigger a single-repo demotion in step 6).
	e.fresh, e.touched = e.fresh[:0], e.touched[:0]
	for i, ed := range dd.EdgesAdded {
		if i == 0 || ed.Domain != dd.EdgesAdded[i-1].Domain {
			domID = e.intern(ed.Domain)
		}
		nsID := e.intern(ed.NS)
		if dom := &e.recs[domID]; !slices.Contains(dom.ns, nsID) {
			dom.ns = append(dom.ns, nsID)
		}
		ns := &e.recs[nsID]
		if ns.first == dates.None {
			ns.first = day
			e.funnel.TotalNameservers++
		}
		if ns.first == day {
			// First-day delegations feed classification in step 5.
			e.fresh = append(e.fresh, dayEdge{id: nsID, ns: ed.NS, dom: ed.Domain})
			continue
		}
		if st := ns.cand; st != nil && st.tracked() {
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
			e.touched = append(e.touched, nsID)
		}
	}

	// 3. Domain registration churn. A registration fires the hijack
	// watch of any sacrificial NS whose registrable domain this is; the
	// watchers were all registered on earlier days (a same-day
	// registration is a collision, handled at classification).
	for _, dom := range dd.DomainsAdded {
		id := e.intern(dom) // may grow recs: index it afterwards
		e.recs[id].reg = true
		if watchers := e.regWatch[dom]; len(watchers) > 0 {
			for _, ns := range watchers {
				st := e.candidate(ns)
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
		if id, r := e.lookup(dom); r != nil {
			r.reg = false
			e.release(id)
		}
	}

	// 4. Glue churn.
	for _, h := range dd.GlueAdded {
		id := e.intern(h)
		e.recs[id].glue = true
	}
	for _, h := range dd.GlueRemoved {
		if id, r := e.lookup(h); r != nil {
			r.glue = false
			e.release(id)
		}
	}

	// 5. Classify nameservers first delegated to today, in name order
	// (the batch pipeline sorts candidates the same way). Resolvability
	// is the chase resolve.Static.ResolvableOn(ns, today) runs on the
	// sealed view, read off today's state instead of the view's spans.
	// No verdict depends on the order of a nameserver's domains; sorting
	// them too only makes the pass deterministic.
	slices.SortFunc(e.fresh, func(a, b dayEdge) int {
		if c := dnsname.Compare(a.ns, b.ns); c != 0 {
			return c
		}
		return dnsname.Compare(a.dom, b.dom)
	})
	for i := 0; i < len(e.fresh); {
		j := i + 1
		for j < len(e.fresh) && e.fresh[j].id == e.fresh[i].id {
			j++
		}
		edges := e.fresh[i:j]
		i = j
		if e.chase.Resolvable((*today)(e), edges[0].ns) {
			continue
		}
		e.funnel.Candidates++
		alerts = e.classify(edges, day, dd.EdgesRemoved, alerts)
	}

	// 6. Re-check the single-repository property of candidates that
	// gained delegations today. The violation is monotone (the operator
	// set only grows), and in the batch pipeline it is tested before the
	// original-nameserver match — so an unclassified or original-matched
	// candidate that now violates must demote to match the batch verdict.
	slices.SortFunc(e.touched, func(a, b int32) int { return dnsname.Compare(e.recs[a].name, e.recs[b].name) })
	prev := int32(-1)
	for _, id := range e.touched {
		if id == prev {
			continue
		}
		prev = id
		ns, st := e.recs[id].name, e.recs[id].cand
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

// classify gathers a new candidate's first-day evidence — its first-day
// delegations, all to one nameserver, and the day's removed edges — runs
// detect's rules on it, and starts the candidate's state machine from
// the verdict.
func (e *Engine) classify(edges []dayEdge, day dates.Day, removed []zonedb.Edge, alerts []Alert) []Alert {
	id, ns := edges[0].id, edges[0].ns
	e.ev = firstDay{dir: e.rules.Dir, edges: edges, removed: removed}
	v := e.rules.Classify(ns, day, &e.ev)
	ops := e.ev.ops
	e.ev = firstDay{} // hold no reference to the day
	st := &nsState{NS: ns, First: day, Phase: v.Outcome, HijackedOn: dates.None}
	if e.recs[id].cand == nil {
		e.cands = append(e.cands, id)
	}
	e.recs[id].cand = st
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
	if ops == nil {
		ops = operators(e.rules.Dir, edges)
	}
	st.Operators = ops
	st.Domains = make(map[dnsname.Name]*interval.Set)
	st.Open = make(map[dnsname.Name]dates.Day, len(edges))
	for _, ed := range edges {
		st.Open[ed.dom] = day
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
		if _, r := e.lookup(st.RegDomain); r != nil && r.reg {
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
// edge removed today, so the nameservers a first-day domain dropped are
// its run in the day's removed edges, which are sorted by domain.
type firstDay struct {
	dir     *registry.Directory
	edges   []dayEdge
	removed []zonedb.Edge
	ops     map[string]bool
}

// Operators is built on first use: test names and sink or marker idioms
// classify without it.
func (f *firstDay) Operators() map[string]bool {
	if f.ops == nil {
		f.ops = operators(f.dir, f.edges)
	}
	return f.ops
}

func operators(dir *registry.Directory, edges []dayEdge) map[string]bool {
	ops := make(map[string]bool)
	for _, ed := range edges {
		if op := dir.OperatorOf(ed.dom.TLD()); op != "" {
			ops[op] = true
		}
	}
	return ops
}

func (f *firstDay) EachDropped(fn func(prev dnsname.Name)) {
	for _, ed := range f.edges {
		i, _ := slices.BinarySearchFunc(f.removed, ed.dom, func(r zonedb.Edge, dom dnsname.Name) int {
			return dnsname.Compare(r.Domain, dom)
		})
		for ; i < len(f.removed) && f.removed[i].Domain == ed.dom; i++ {
			fn(f.removed[i].NS)
		}
	}
}

// today is the engine's day state as the resolver chase reads it.
type today Engine

func (t *today) Glue(name dnsname.Name) bool {
	id, ok := t.ids[name]
	return ok && t.recs[id].glue
}

func (t *today) AppendNS(buf []dnsname.Name, reg dnsname.Name) []dnsname.Name {
	if id, ok := t.ids[reg]; ok {
		for _, ns := range t.recs[id].ns {
			buf = append(buf, t.recs[ns].name)
		}
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
	for _, id := range e.cands {
		st := e.recs[id].cand
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
