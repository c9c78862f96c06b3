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
package riskybiz

import (
	"context"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/zonedb"
)

// Options configures an end-to-end study.
type Options struct {
	// Seed selects the deterministic random stream (default 1).
	Seed int64
	// DomainsPerDay scales the simulated ecosystem (default 10).
	DomainsPerDay float64
	// DisableHijackers, DisableAccident, and DisableRemediation switch
	// off scenario components (ablations).
	DisableHijackers   bool
	DisableAccident    bool
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
	// KeepAccidentNS includes the Namecheap-accident nameservers in the
	// analyses instead of excluding them as the paper does.
	KeepAccidentNS bool
	// Reingest rebuilds the zone database by exporting the simulated
	// world's daily snapshots and feeding them back through the
	// snapshot differ before detection — the exact pipeline a
	// zone-file-based deployment runs.
	Reingest bool
	// StrictIngest aborts the re-ingest on the first invalid snapshot;
	// by default invalid snapshots are quarantined (degraded mode) and
	// reported in Study.Quarantine.
	StrictIngest bool
	// MaxQuarantine bounds degraded-mode quarantining (0 = unlimited).
	MaxQuarantine int
	// IngestWorkers, when > 1, shards the re-ingest across that many
	// zone-affine workers (zonedb.Ingester.Workers). The resulting
	// database is identical to a serial re-ingest.
	IngestWorkers int
	// Obs, when set, receives ingest metrics from the re-ingest.
	Obs *obs.Registry
}

// Study bundles the outcome of a full pipeline run.
type Study struct {
	World    *sim.World
	Result   *detect.Result
	Analysis *analysis.Analysis
	// DB is the zone database detection ran over: the world's live DB,
	// or the re-ingested one when Options.Reingest was set.
	DB *zonedb.DB
	// Quarantine reports snapshots skipped by a degraded re-ingest.
	Quarantine zonedb.QuarantineReport
	// Window is the paper's measurement window (Apr 2011 - Sep 2020).
	Window dates.Range
}

// RunContext simulates the ecosystem, runs detection, and prepares the
// analyses. The pipeline's phases (world build, simulate, re-ingest,
// detect, analysis) are journaled as child spans of the trace carried
// by ctx, if any.
func RunContext(ctx context.Context, opts Options) (*Study, error) {
	if opts.DomainsPerDay <= 0 {
		opts.DomainsPerDay = 10
	}
	cfg := sim.DefaultConfig(opts.DomainsPerDay)
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	cfg.Hijackers = !opts.DisableHijackers
	cfg.Accident = !opts.DisableAccident
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
	db := world.ZoneDB()
	var quarantine zonedb.QuarantineReport
	if opts.Reingest {
		_, rsp := trace.Start(ctx, "zonedb.reingest")
		reingested, report, err := reingest(world, opts)
		rsp.SetError(err)
		rsp.End()
		if err != nil {
			return nil, err
		}
		db, quarantine = reingested, report
	}
	det := &detect.Detector{
		DB:    db,
		WHOIS: world.WHOIS(),
		Dir:   world.Directory(),
		Cfg:   opts.Detector,
	}
	result := det.RunContext(ctx)

	window := dates.NewRange(sim.WindowStart, sim.WindowEnd)
	excludeNS := world.Truth().AccidentNS
	if opts.KeepAccidentNS {
		excludeNS = nil
	}
	_, asp := trace.Start(ctx, "analysis.build")
	an := analysis.New(result, db, window, excludeNS).WithWHOIS(world.WHOIS())
	asp.End()
	return &Study{World: world, Result: result, Analysis: an,
		DB: db, Quarantine: quarantine, Window: window}, nil
}

// reingest exports the world's daily zone snapshots and rebuilds the
// database through the snapshot differ, honouring the fault-tolerance
// options. IngestWorkers <= 1 is the ingester's serial path.
func reingest(world *sim.World, opts Options) (*zonedb.DB, zonedb.QuarantineReport, error) {
	src := world.ZoneDB().View()
	ing := zonedb.NewIngester()
	ing.Degraded = !opts.StrictIngest
	ing.MaxQuarantine = opts.MaxQuarantine
	ing.Obs = opts.Obs
	ing.Workers = opts.IngestWorkers
	cfg := world.Config()
	err := ing.IngestAll(&snapshotWalker{
		view: src, zones: src.Zones(), start: cfg.Start, end: cfg.End,
	})
	if err != nil {
		return nil, zonedb.QuarantineReport{}, fmt.Errorf("riskybiz: reingest: %w", err)
	}
	return ing.Finish(), ing.Quarantine(), nil
}

// snapshotWalker streams a simulated world's daily snapshots zone-outer,
// day-inner (the differ only needs per-zone chronology) without
// materializing them all up front.
type snapshotWalker struct {
	view       *zonedb.View
	zones      []dnsname.Name
	start, end dates.Day

	started bool
	zi      int
	day     dates.Day
}

// Next implements zonedb.SnapshotSource.
func (s *snapshotWalker) Next() (*dnszone.Snapshot, string, error) {
	if !s.started {
		s.started = true
		s.day = s.start
	}
	for {
		if s.zi >= len(s.zones) {
			return nil, "", io.EOF
		}
		if s.day > s.end {
			s.zi++
			s.day = s.start
			continue
		}
		zone, day := s.zones[s.zi], s.day
		s.day++
		return s.view.SnapshotOn(zone, day), fmt.Sprintf("%s@%s", zone, day), nil
	}
}
