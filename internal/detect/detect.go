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
}

// stage runs fn as one named pipeline stage: it times it, records a
// trace child span (when ctx carries one), and appends a StageTiming.
// fn receives the stage's trace context — extraction parents its worker
// spans on it — and returns the number of items the stage processed.
// Timings never influence detection results.
func (d *Detector) stage(ctx context.Context, stats *RunStats, name string, fn func(ctx context.Context) int) {
	ctx, tsp := trace.Start(ctx, name)
	t0 := time.Now()
	n := fn(ctx)
	dur := time.Since(t0)
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
	var all []dnsname.Name
	zd.Nameservers(func(ns dnsname.Name) bool {
		all = append(all, ns)
		return true
	})
	total = len(all)
	workers := d.Cfg.Workers
	if workers <= 1 {
		t0 := time.Now()
		static := resolve.NewStatic(zd)
		for _, ns := range all {
			if bad, first := static.UnresolvableAtFirstReference(ns); bad {
				candidates = append(candidates, candidate{ns, first})
			}
		}
		busy = []time.Duration{time.Since(t0)}
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
				t0 := time.Now()
				static := resolve.NewStatic(zd)
				var mine []candidate
				for i := w; i < len(all); i += workers {
					ns := all[i]
					if bad, first := static.UnresolvableAtFirstReference(ns); bad {
						mine = append(mine, candidate{ns, first})
					}
				}
				results[w] = mine
				busy[w] = time.Since(t0)
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
	start := time.Now()
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
	res.Funnel.Sacrificial = len(res.Sacrificial)
	stats.Wall = time.Since(start)
	stats.Funnel = res.Funnel
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
