package detect

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/idioms"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/registry"
	"repro/internal/resolve"
	"repro/internal/whois"
	"repro/internal/zonedb"
)

// Sacrificial is one detected sacrificial nameserver with everything the
// analyses need.
type Sacrificial struct {
	NS      dnsname.Name
	Created dates.Day // first appearance in any delegation
	Idiom   idioms.ID
	Class   idioms.Class
	// Registrar is the attributed registrar (from the idiom catalog for
	// marker/sink idioms, from WHOIS for original-based matches).
	Registrar string
	// Original is the nameserver this one was renamed from, when the
	// §3.2.3 history match identified it.
	Original dnsname.Name
	// RegDomain is the registrable domain an attacker would register.
	RegDomain dnsname.Name
	// Collision marks hijackable-idiom names whose domain was ALREADY
	// registered when the rename happened (the accidental
	// PLEASEDROPTHISHOST collisions of §4).
	Collision bool
	// HijackedOn is the first day at or after Created on which RegDomain
	// was observed registered; dates.None when never hijacked.
	HijackedOn dates.Day
	// Domains lists every domain that ever delegated to the nameserver,
	// with the days each delegation was visible.
	Domains []AffectedDomain
}

// AffectedDomain is one domain exposed by a sacrificial nameserver.
type AffectedDomain struct {
	Name  dnsname.Name
	Spans *interval.Set
}

// Hijackable reports whether the nameserver's domain could be (or could
// have been) registered by an attacker.
func (s *Sacrificial) Hijackable() bool {
	return s.Class == idioms.Hijackable && !s.Collision
}

// Hijacked reports whether the nameserver's domain was registered after
// creation.
func (s *Sacrificial) Hijacked() bool {
	return s.Hijackable() && s.HijackedOn != dates.None
}

// Value is the hijack value of §5.3: the total number of domain-days
// delegated to the nameserver.
func (s *Sacrificial) Value() int {
	v := 0
	for _, d := range s.Domains {
		v += d.Spans.TotalDays()
	}
	return v
}

// NumDomains returns the number of distinct affected domains.
func (s *Sacrificial) NumDomains() int { return len(s.Domains) }

// Funnel reports the candidate-elimination counts of §3.2, mirroring the
// paper's 20M -> 312,328 -> (-28,614 test) -> (-11,403 single-repo) ->
// 202,624 progression.
type Funnel struct {
	TotalNameservers     int
	Candidates           int
	TestNameservers      int
	SingleRepoViolations int
	Unclassified         int
	Sacrificial          int
}

// Config tunes a detection run.
type Config struct {
	// Miner configures the pattern-mining stage.
	Miner MinerConfig
	// SkipSingleRepoCheck disables the single-repository elimination
	// (ablation).
	SkipSingleRepoCheck bool
	// SkipMining skips the (purely reporting) substring-mining stage.
	SkipMining bool
	// Workers parallelizes the candidate-extraction stage (static
	// resolvability over every nameserver). Zero or one runs
	// sequentially. Extraction workers use private resolvers and the
	// candidates are sorted before anything reads them, so results are
	// byte-identical regardless of worker count.
	// Classification is always serial.
	Workers int
}

// Result is a full detection run's output.
type Result struct {
	Funnel      Funnel
	Patterns    []Pattern
	Sacrificial []Sacrificial

	// Stats holds the run's stage timings (nil for results assembled
	// via NewResult rather than produced by Detector.RunContext).
	Stats *RunStats

	// byNS indexes Sacrificial by nameserver name.
	byNS map[dnsname.Name]int
}

// NewResult assembles a Result from pre-built records — used by tests
// and by tools that load detection output from storage.
func NewResult(sacrificial []Sacrificial, funnel Funnel) *Result {
	r := &Result{Funnel: funnel, Sacrificial: sacrificial, byNS: make(map[dnsname.Name]int, len(sacrificial))}
	for i := range sacrificial {
		r.byNS[sacrificial[i].NS] = i
	}
	return r
}

// Lookup returns the detected record for ns, or nil.
func (r *Result) Lookup(ns dnsname.Name) *Sacrificial {
	if i, ok := r.byNS[ns]; ok {
		return &r.Sacrificial[i]
	}
	return nil
}

// Detector wires the inputs of a detection run.
type Detector struct {
	DB    *zonedb.DB
	WHOIS *whois.History
	Dir   *registry.Directory
	Cfg   Config
	// Obs, when non-nil, receives stage spans and funnel counters
	// (RegisterMetrics pre-creates the families). Stage timings are
	// collected in Result.Stats either way.
	Obs *obs.Registry

	// now, when set (WithClock), overrides the time source.
	now func() time.Time
}

// clock returns the time source: WithClock's when set, else the obs
// registry's (overridable in tests) when present, else the wall clock.
// Timings never influence detection results, so determinism of the
// methodology is preserved.
func (d *Detector) clock() func() time.Time {
	if d.now != nil {
		return d.now
	}
	if d.Obs != nil && d.Obs.Now != nil {
		return d.Obs.Now
	}
	return time.Now
}

// stage runs fn as one named pipeline stage: it times it, records an
// obs span (when a registry is wired) and a trace child span (when ctx
// carries one), and appends a StageTiming. fn receives the stage's
// trace context — extraction parents its worker spans on it — and
// returns the number of items the stage processed.
func (d *Detector) stage(ctx context.Context, stats *RunStats, name string, fn func(ctx context.Context) int) {
	now := d.clock()
	var sp *obs.Span
	if d.Obs != nil {
		sp = d.Obs.StartSpan(name)
	}
	ctx, tsp := trace.Start(ctx, name)
	t0 := now()
	n := fn(ctx)
	dur := now().Sub(t0)
	if sp != nil {
		sp.AddItems(n)
		sp.End()
	}
	tsp.SetAttrInt("items", n)
	tsp.End()
	stats.Stages = append(stats.Stages, StageTiming{Stage: name, Duration: dur, Items: n})
}

// candidate is one unresolvable-at-first-reference nameserver.
type candidate struct {
	ns    dnsname.Name
	first dates.Day
}

// extractCandidates runs stage 1 (§3.2.1) over every observed
// nameserver, optionally in parallel. busy holds each worker's busy
// time (one entry in sequential mode) for the utilization report. Each
// parallel worker runs as a child span of ctx so shard imbalance is
// visible in the trace.
func (d *Detector) extractCandidates(ctx context.Context, zd *zonedb.View) (total int, candidates []candidate, busy []time.Duration) {
	now := d.clock()
	var all []dnsname.Name
	zd.Nameservers(func(ns dnsname.Name) bool {
		all = append(all, ns)
		return true
	})
	total = len(all)
	workers := d.Cfg.Workers
	if workers <= 1 {
		t0 := now()
		static := resolve.NewStatic(zd)
		for _, ns := range all {
			if bad, first := static.UnresolvableAtFirstReference(ns); bad {
				candidates = append(candidates, candidate{ns, first})
			}
		}
		busy = []time.Duration{now().Sub(t0)}
	} else {
		// Shard the nameserver list; each worker owns a resolver (its
		// scratch space serves one query at a time).
		var wg sync.WaitGroup
		results := make([][]candidate, workers)
		busy = make([]time.Duration, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, wsp := trace.Start(ctx, "detect.extract.worker")
				wsp.SetAttrInt("worker", w)
				t0 := now()
				static := resolve.NewStatic(zd)
				var mine []candidate
				for i := w; i < len(all); i += workers {
					ns := all[i]
					if bad, first := static.UnresolvableAtFirstReference(ns); bad {
						mine = append(mine, candidate{ns, first})
					}
				}
				results[w] = mine
				busy[w] = now().Sub(t0)
				wsp.SetAttrInt("items", (len(all)+workers-1-w)/workers)
				wsp.End()
			}(w)
		}
		wg.Wait()
		for _, part := range results {
			candidates = append(candidates, part...)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].ns < candidates[j].ns })
	return total, candidates, busy
}

// RunContext executes the full methodology with each pipeline stage
// running as a child span of the trace carried by ctx (see
// internal/obs/trace). The run reads the DB's published View, pinned at
// the start, so it is safe to run concurrently with further ingestion.
func (d *Detector) RunContext(ctx context.Context) *Result {
	ctx, rsp := trace.Start(ctx, "detect.run")
	defer rsp.End()
	now := d.clock()
	start := now()
	zd := d.DB.View()
	res := &Result{byNS: make(map[dnsname.Name]int)}
	stats := &RunStats{Workers: 1, MatchesByMethod: make(map[string]int)}
	if d.Cfg.Workers > 1 {
		stats.Workers = d.Cfg.Workers
	}

	// Stage 1: unresolvable-at-first-reference candidates.
	var candidates []candidate
	d.stage(ctx, stats, StageExtract, func(ctx context.Context) int {
		var total int
		total, candidates, stats.WorkerBusy = d.extractCandidates(ctx, zd)
		res.Funnel.TotalNameservers = total
		return total
	})
	res.Funnel.Candidates = len(candidates)

	// Stage 2a: mine patterns (reporting; classification uses the
	// confirmed catalog, as the paper confirmed idioms with registrars).
	if !d.Cfg.SkipMining {
		d.stage(ctx, stats, StageMine, func(context.Context) int {
			names := make([]dnsname.Name, len(candidates))
			for i, c := range candidates {
				names[i] = c.ns
			}
			res.Patterns = MineSubstrings(names, d.Cfg.Miner)
			return len(candidates)
		})
	}

	d.stage(ctx, stats, StageClassify, func(context.Context) int {
		for _, c := range candidates {
			switch o := d.classifyOne(zd, c); o.kind {
			case outTest:
				res.Funnel.TestNameservers++
			case outSingleRepo:
				res.Funnel.SingleRepoViolations++
			case outSacrificial:
				d.emit(zd, res, c.ns, c.first, o.idiom, o.registrar, o.orig)
				stats.MatchesByMethod[o.method]++
			default:
				res.Funnel.Unclassified++
			}
		}
		return len(candidates)
	})
	res.Funnel.Sacrificial = len(res.Sacrificial)
	stats.Wall = now().Sub(start)
	stats.Funnel = res.Funnel
	res.Stats = stats
	d.recordFunnel(stats)
	return res
}

// recordFunnel mirrors the funnel counts into the obs registry.
func (d *Detector) recordFunnel(stats *RunStats) {
	if d.Obs == nil {
		return
	}
	f := stats.Funnel
	d.Obs.Counter(MetricScanned, "").Add(f.TotalNameservers)
	d.Obs.Counter(MetricCandidates, "").Add(f.Candidates)
	d.Obs.Counter(MetricTestNS, "").Add(f.TestNameservers)
	d.Obs.Counter(MetricSingleRepo, "").Add(f.SingleRepoViolations)
	d.Obs.Counter(MetricUnclass, "").Add(f.Unclassified)
	d.Obs.Counter(MetricSacrificial, "").Add(f.Sacrificial)
	for method, n := range stats.MatchesByMethod {
		d.Obs.CounterVec(MetricIdiom, "", "method").With(method).Add(n)
	}
}

// outcome is one candidate's classification verdict — the pure product
// of classifyOne, which RunContext applies to the Result in candidate
// order.
type outcome struct {
	kind      int
	idiom     *idioms.Idiom
	registrar string
	orig      dnsname.Name
	method    string
}

const (
	outUnclassified = iota
	outTest
	outSingleRepo
	outSacrificial
)

// classifyOne runs stages 2b–4 for one candidate against the pinned
// view. It only reads zd, the WHOIS history, the registry directory, and
// the idiom catalog — all immutable during a run.
func (d *Detector) classifyOne(zd *zonedb.View, c candidate) outcome {
	// Stage 2b: remove registry test nameservers.
	if idioms.IsTestNameserver(c.ns) {
		return outcome{kind: outTest}
	}
	// Sink and marker idioms classify directly.
	if idiom, ok := idioms.RecognizeSink(c.ns); ok {
		return outcome{kind: outSacrificial, idiom: idiom, registrar: idiom.Registrar, method: "sink"}
	}
	if idiom, ok := idioms.RecognizeMarker(c.ns); ok {
		return outcome{kind: outSacrificial, idiom: idiom, registrar: idiom.Registrar, method: "marker"}
	}
	// Stage 3: single-repository property.
	if !d.Cfg.SkipSingleRepoCheck && d.violatesSingleRepo(zd, c.ns) {
		return outcome{kind: outSingleRepo}
	}
	// Stage 4: original-nameserver history match.
	if idiom, registrarName, orig, ok := d.matchOriginal(zd, c.ns, c.first); ok {
		return outcome{kind: outSacrificial, idiom: idiom, registrar: registrarName, orig: orig, method: "original"}
	}
	return outcome{kind: outUnclassified}
}

// violatesSingleRepo applies property 3 of §3.1: the candidate cannot be
// a rename product if its affected domains span registry operators, or if
// the candidate itself lives under the same operator as its affected
// domains (a rename target is always external to the repository that
// performed it).
func (d *Detector) violatesSingleRepo(zd *zonedb.View, ns dnsname.Name) bool {
	operators := make(map[string]bool)
	for _, e := range zd.EdgesOf(ns) {
		if op := d.Dir.OperatorOf(e.Domain.TLD()); op != "" {
			operators[op] = true
		}
	}
	if len(operators) > 1 {
		return true
	}
	if nsOp := d.Dir.OperatorOf(ns.TLD()); nsOp != "" && operators[nsOp] {
		return true
	}
	return false
}

// matchOriginal implements §3.2.3. For each domain whose delegation to
// the candidate began on the candidate's first day, it looks at the
// nameservers that domain used through the previous day. If one of them
// satisfies the registered-domain substring criterion, the rename is
// attributed to the registrar WHOIS reports for the original nameserver's
// domain at that time, and mapped to that registrar's original-based
// idiom.
func (d *Detector) matchOriginal(zd *zonedb.View, ns dnsname.Name, first dates.Day) (*idioms.Idiom, string, dnsname.Name, bool) {
	type match struct {
		rr   string
		prev dnsname.Name
	}
	var matches []match
	zd.EachDomainOf(ns, func(domain dnsname.Name, spans *interval.Set) bool {
		if spans.First() != first {
			return true
		}
		zd.EachNSOf(domain, func(prevNS dnsname.Name, prevSpans *interval.Set) bool {
			if prevNS == ns || !endsOn(prevSpans, first-1) || !idioms.MatchesOriginal(ns, prevNS) {
				return true
			}
			if reg, ok := dnsname.RegisteredDomain(prevNS); ok {
				if rr := d.WHOIS.RegistrarOn(reg, first-1); rr != "" {
					matches = append(matches, match{rr, prevNS})
				}
			}
			return true
		})
		return true
	})
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
		return nil, "", "", false
	}
	// Majority registrar wins; ties break deterministically by name.
	var best string
	for rr := range votes {
		if best == "" || votes[rr] > votes[best] || (votes[rr] == votes[best] && rr < best) {
			best = rr
		}
	}
	idiom := OriginalIdiomFor(best, ns, originals[best])
	if idiom == nil {
		return nil, "", "", false
	}
	return idiom, best, originals[best], true
}

// endsOn reports whether any span in the set ends exactly on day.
func endsOn(s *interval.Set, day dates.Day) bool {
	for _, r := range s.Spans() {
		if r.Last == day {
			return true
		}
	}
	return false
}

// OriginalIdiomFor maps an attributed registrar to its original-based
// renaming idiom, distinguishing Enom's 123.BIZ era from its random-name
// era by shape. Unknown registrars yield nil: the methodology is
// conservative and only classifies confirmed idioms (§3.3). Exported so
// the incremental watch engine attributes renames identically.
func OriginalIdiomFor(registrarName string, ns, orig dnsname.Name) *idioms.Idiom {
	switch registrarName {
	case "Enom":
		ssld, _ := dnsname.SecondLevelLabel(ns)
		osld, _ := dnsname.SecondLevelLabel(orig)
		if ns.TLD() == "biz" && ssld == osld+"123" {
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

// emit records a classified sacrificial nameserver.
func (d *Detector) emit(zd *zonedb.View, res *Result, ns dnsname.Name, first dates.Day, idiom *idioms.Idiom, registrarName string, orig dnsname.Name) {
	s := Sacrificial{
		NS:        ns,
		Created:   first,
		Idiom:     idiom.ID,
		Class:     idiom.Class,
		Registrar: registrarName,
		Original:  orig,
	}
	if reg, ok := dnsname.RegisteredDomain(ns); ok {
		s.RegDomain = reg
	}
	zd.EachDomainOf(ns, func(domain dnsname.Name, spans *interval.Set) bool {
		s.Domains = append(s.Domains, AffectedDomain{Name: domain, Spans: spans})
		return true
	})
	sort.Slice(s.Domains, func(i, j int) bool { return s.Domains[i].Name < s.Domains[j].Name })
	if s.Class == idioms.Hijackable && s.RegDomain != "" {
		if zd.DomainRegisteredOn(s.RegDomain, first) {
			s.Collision = true
			s.HijackedOn = dates.None
		} else {
			s.HijackedOn = zd.DomainFirstSeenAfter(s.RegDomain, first)
		}
	} else {
		s.HijackedOn = dates.None
	}
	res.byNS[ns] = len(res.Sacrificial)
	res.Sacrificial = append(res.Sacrificial, s)
}
