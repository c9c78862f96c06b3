// Package riskybiz reproduces "Risky BIZness: Risks Derived from
// Registrar Name Management" (Akiwate, Savage, Voelker, Claffy; ACM IMC
// 2021): the discovery that registrars, to delete expired domains whose
// nameserver host objects are still referenced, rename those host objects
// to (usually unregistered) names in foreign TLDs — sacrificial
// nameservers — silently exposing every dependent domain to hijacking.
//
// The package is a facade over three layers:
//
//   - internal/sim: a deterministic ecosystem simulation (EPP
//     repositories per RFC 5730-5732, registries, registrars with the
//     documented renaming idioms, hijacker actors, the 2016 Namecheap
//     accident, and the 2020-21 remediation campaign) standing in for
//     the paper's nine years of CAIDA-DZDB zone files.
//   - internal/detect: the paper's detection methodology, run only on
//     zone-derivable data (candidate extraction, substring mining,
//     original-nameserver matching, single-repository check).
//   - internal/analysis: every table and figure of the evaluation.
//
// A minimal end-to-end run:
//
//	study, err := riskybiz.RunContext(ctx, riskybiz.Options{DomainsPerDay: 10})
//	if err != nil { ... }
//	t3 := study.Analysis.Table3()
//	fmt.Printf("%.1f%% of hijackable domains were hijacked\n",
//		100*t3.DomainFraction())
//
// SaveData writes the data a study ran on to disk, and LoadContext runs
// the same detection and analyses over such a dataset instead of a
// simulation; SaveSnapshots and IngestSnapshots do the same for the
// world's daily zone files.
package riskybiz

import (
	"context"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/obs/trace"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/whois"
	"repro/internal/zonedb"
)

// Options configures an end-to-end study.
type Options struct {
	// Seed selects the deterministic random stream (default 1).
	Seed int64
	// DomainsPerDay scales the simulated ecosystem (default 10).
	DomainsPerDay float64
	// DisableRemediation switches off the §7 notification campaign's
	// effects (an ablation).
	DisableRemediation bool
	// UniformHijackers replaces degree-selective hijacker behaviour with
	// a uniform coin flip (the Figure 5/6 ablation).
	UniformHijackers bool
	// InvalidTLDRemediation makes the notified registrars adopt the
	// §7.3 reserved-TLD idiom (.invalid) instead of their historical
	// sink choices.
	InvalidTLDRemediation bool
	// EPPCascadeFix enables the §7.3 EPP protocol change (cascade
	// delete) from the notification date onward: no sacrificial
	// nameserver can be created after it.
	EPPCascadeFix bool
	// Detector tunes the detection stage.
	Detector detect.Config
}

// Study bundles the outcome of a full pipeline run, over simulated or
// loaded data alike.
type Study struct {
	// World is the simulated ecosystem, or nil when the data was loaded
	// (LoadContext).
	World *sim.World
	// DB, WHOIS and Exclude are the data the analysis ran on: the zone
	// database, the WHOIS history, and the nameservers left out of the
	// analyses as the paper leaves them out — the Namecheap-accident
	// nameservers, which the §4 accident report counts (loaded data reads
	// them from PREFIX.exclude).
	DB       *zonedb.DB
	WHOIS    *whois.History
	Exclude  []dnsname.Name
	Result   *detect.Result
	Analysis *analysis.Analysis
	// Window is the paper's measurement window (Apr 2011 - Sep 2020).
	Window dates.Range
}

// RunContext simulates the ecosystem, runs detection, and prepares the
// analyses. The pipeline's phases (world build, simulate, detect,
// analysis) are journaled as child spans of the trace carried by ctx, if
// any.
func RunContext(ctx context.Context, opts Options) (*Study, error) {
	if opts.DomainsPerDay <= 0 {
		opts.DomainsPerDay = 10
	}
	cfg := sim.DefaultConfig(opts.DomainsPerDay)
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	cfg.Remediation = !opts.DisableRemediation
	cfg.UniformHijackers = opts.UniformHijackers
	cfg.UseInvalidTLD = opts.InvalidTLDRemediation
	if opts.EPPCascadeFix {
		cfg.CascadeFixFrom = sim.NotificationDay
	}

	_, wsp := trace.Start(ctx, "sim.world")
	world, err := sim.NewWorld(cfg)
	if err != nil {
		wsp.SetError(err)
		wsp.End()
		return nil, fmt.Errorf("riskybiz: building world: %w", err)
	}
	err = world.Run()
	wsp.SetError(err)
	wsp.End()
	if err != nil {
		return nil, fmt.Errorf("riskybiz: simulating: %w", err)
	}
	st := &Study{World: world, DB: world.ZoneDB(), WHOIS: world.WHOIS(), Exclude: world.Truth().AccidentNS}
	st.analyze(ctx, world.Directory(), opts.Detector)
	return st, nil
}

// analyze runs detection over the study's data and prepares the
// analyses over the paper's window.
func (st *Study) analyze(ctx context.Context, dir *registry.Directory, cfg detect.Config) {
	det := &detect.Detector{DB: st.DB, WHOIS: st.WHOIS, Dir: dir, Cfg: cfg}
	st.Result = det.RunContext(ctx)
	st.Window = dates.NewRange(sim.WindowStart, sim.WindowEnd)
	_, asp := trace.Start(ctx, "analysis.build")
	st.Analysis = analysis.New(st.Result, st.DB, st.Window, st.Exclude).WithWHOIS(st.WHOIS)
	asp.End()
}

// PrintArtifacts renders the tables and figures named in only (every one
// when only is empty) to w. The §4 accident
// report counts the study's excluded nameservers, and "residual at end
// of data" is read on the day the zone data was sealed.
func (st *Study) PrintArtifacts(w io.Writer, only []string) {
	report.PrintArtifacts(w, st.Analysis, st.Result, report.ArtifactOptions{
		Only:            only,
		NotificationDay: sim.NotificationDay,
		FollowupDay:     sim.FollowupDay,
		AccidentNS:      st.Exclude,
		EndOfData:       st.DB.View().CloseDay(),
	})
}
