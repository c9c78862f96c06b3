package detect

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/idioms"
	"repro/internal/interval"
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
	// SkipSingleRepoCheck disables the single-repository elimination
	// (ablation).
	SkipSingleRepoCheck bool
	// SkipMining skips the (purely reporting) substring-mining stage.
	SkipMining bool
	// Workers overrides the candidate-extraction stage's worker count
	// (static resolvability over every nameserver); zero means
	// GOMAXPROCS, and the count never exceeds the number of nameservers.
	// Extraction workers use private resolvers and the candidates are
	// sorted before anything reads them, so results are byte-identical
	// regardless of worker count. Classification is serial, with
	// substring mining beside it.
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
}

// stage runs fn as one named pipeline stage: it times it, records a
// trace child span of ctx (when ctx carries one), and returns the
// stage's timing. fn receives the stage's trace context — extraction
// parents its worker spans on it — and returns the number of items the
// stage processed. Timings never influence detection results.
func stage(ctx context.Context, name string, fn func(ctx context.Context) int) StageTiming {
	ctx, tsp := trace.Start(ctx, name)
	t0 := time.Now()
	n := fn(ctx)
	dur := time.Since(t0)
	tsp.SetAttrInt("items", n)
	tsp.End()
	return StageTiming{Stage: name, Duration: dur, Items: n}
}

// candidate is one unresolvable-at-first-reference nameserver.
type candidate struct {
	ns    dnsname.Name
	first dates.Day
}

// extractCandidates runs stage 1 (§3.2.1) over every observed
// nameserver on min(Workers, nameservers) strided workers, the caller
// being one of them; Workers 0 means GOMAXPROCS. Each worker owns a
// resolver (its scratch space serves one query at a time) and runs as
// a child span of ctx, so shard imbalance is visible in the trace.
// workers is the count it ran. The candidates are sorted by name, so
// the result does not depend on the worker count.
func (d *Detector) extractCandidates(ctx context.Context, zd *zonedb.View) (total int, candidates []candidate, workers int) {
	var all []dnsname.Name
	zd.Nameservers(func(ns dnsname.Name) bool {
		all = append(all, ns)
		return true
	})
	workers = d.Cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(all)))
	results := make([][]candidate, workers)
	work := func(w int) {
		_, wsp := trace.Start(ctx, "detect.extract.worker")
		wsp.SetAttrInt("worker", w)
		static := resolve.NewStatic(zd)
		var mine []candidate
		for i := w; i < len(all); i += workers {
			if bad, first := static.UnresolvableAtFirstReference(all[i]); bad {
				mine = append(mine, candidate{all[i], first})
			}
		}
		results[w] = mine
		wsp.SetAttrInt("items", (len(all)+workers-1-w)/workers)
		wsp.End()
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	candidates = slices.Concat(results...)
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].ns < candidates[j].ns })
	return len(all), candidates, workers
}

// RunContext executes the full methodology with each pipeline stage
// running as a child span of the trace carried by ctx (see
// internal/obs/trace). The run reads the DB's published View, pinned at
// the start, so it is safe to run concurrently with further ingestion.
// Substring mining and classification both only read the sorted
// candidates, so mining runs on a goroutine of its own beside
// classification; the run joins it before returning.
func (d *Detector) RunContext(ctx context.Context) *Result {
	ctx, rsp := trace.Start(ctx, "detect.run")
	defer rsp.End()
	zd := d.DB.View()
	res := &Result{byNS: make(map[dnsname.Name]int)}
	stats := &RunStats{MatchesByMethod: make(map[string]int)}

	// Stage 1: unresolvable-at-first-reference candidates.
	var candidates []candidate
	stats.Stages = append(stats.Stages, stage(ctx, StageExtract, func(ctx context.Context) int {
		var total int
		total, candidates, stats.Workers = d.extractCandidates(ctx, zd)
		res.Funnel.TotalNameservers = total
		return total
	}))
	res.Funnel.Candidates = len(candidates)

	// Stage 2a: mine patterns (reporting; classification uses the
	// confirmed catalog, as the paper confirmed idioms with registrars).
	// It writes only res.Patterns and its own timing.
	var mined sync.WaitGroup
	var mine StageTiming
	if !d.Cfg.SkipMining {
		mined.Add(1)
		go func() {
			defer mined.Done()
			mine = stage(ctx, StageMine, func(context.Context) int {
				names := make([]dnsname.Name, len(candidates))
				for i, c := range candidates {
					names[i] = c.ns
				}
				res.Patterns = MineSubstrings(names, MinerConfig{})
				return len(candidates)
			})
		}()
	}

	classify := stage(ctx, StageClassify, func(context.Context) int {
		rules := Rules{WHOIS: d.WHOIS, Dir: d.Dir}
		for _, c := range candidates {
			ev := &viewEvidence{zd: zd, dir: d.Dir, ns: c.ns, first: c.first, skipSingleRepo: d.Cfg.SkipSingleRepoCheck}
			switch v := rules.Classify(c.ns, c.first, ev); v.Outcome {
			case OutTest:
				res.Funnel.TestNameservers++
			case OutSingleRepo:
				res.Funnel.SingleRepoViolations++
			case OutSacrificial:
				d.emit(zd, res, c, v)
				stats.MatchesByMethod[v.Method]++
			default:
				res.Funnel.Unclassified++
			}
		}
		return len(candidates)
	})
	mined.Wait()
	if !d.Cfg.SkipMining {
		stats.Stages = append(stats.Stages, mine)
	}
	stats.Stages = append(stats.Stages, classify)
	res.Funnel.Sacrificial = len(res.Sacrificial)
	res.Stats = stats
	return res
}

// viewEvidence reads one candidate's Evidence off the pinned view.
type viewEvidence struct {
	zd    *zonedb.View
	dir   *registry.Directory
	ns    dnsname.Name
	first dates.Day
	// skipSingleRepo hands the rules an empty operator set
	// (Config.SkipSingleRepoCheck).
	skipSingleRepo bool
}

// Operators collects the operators of every domain that ever delegated
// to the candidate.
func (e *viewEvidence) Operators() map[string]bool {
	if e.skipSingleRepo {
		return nil
	}
	operators := make(map[string]bool)
	for _, ed := range e.zd.EdgesOf(e.ns) {
		if op := e.dir.OperatorOf(ed.Domain.TLD()); op != "" {
			operators[op] = true
		}
	}
	return operators
}

// EachDropped walks the domains whose delegation to the candidate began
// on its first day, and each other nameserver of theirs whose delegation
// span ends the day before.
func (e *viewEvidence) EachDropped(fn func(prev dnsname.Name)) {
	e.zd.EachDomainOf(e.ns, func(domain dnsname.Name, spans *interval.Set) bool {
		if spans.First() != e.first {
			return true
		}
		e.zd.EachNSOf(domain, func(prev dnsname.Name, prevSpans *interval.Set) bool {
			if endsOn(prevSpans, e.first-1) {
				fn(prev)
			}
			return true
		})
		return true
	})
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

// emit records a classified sacrificial nameserver.
func (d *Detector) emit(zd *zonedb.View, res *Result, c candidate, v Verdict) {
	ns, first := c.ns, c.first
	s := Sacrificial{
		NS:        ns,
		Created:   first,
		Idiom:     v.Idiom.ID,
		Class:     v.Idiom.Class,
		Registrar: v.Registrar,
		Original:  v.Original,
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
