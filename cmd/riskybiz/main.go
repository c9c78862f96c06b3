// Command riskybiz runs the full reproduction pipeline — sacrificial-
// nameserver detection and every table and figure of the paper's
// evaluation — and prints the results. By default it simulates the
// ecosystem; with -data it reads a saved dataset instead, the workflow a
// researcher with real zone-file and WHOIS archives would use.
//
// Usage:
//
//	riskybiz [-scale N] [-seed S] [-only table3,figure6] [-csv] [-json]
//	         [-save-data PREFIX] [-save-snapshots DIR]
//	         [-figures-csv DIR] [-stats] [-trace FILE]
//	         [-cpuprofile FILE] [-memprofile FILE] [-mutexprofile FILE]
//	riskybiz -data PREFIX [same output flags]
//
// With -data, the zone database can also be rebuilt from master-file
// snapshots (-save-snapshots) instead of PREFIX.dzdb, with degraded-mode
// quarantining of corrupt or gap-violating files:
//
//	riskybiz -scale 12 -save-data dataset -save-snapshots snaps
//	riskybiz -data dataset -snapshots 'snaps/*.zone' [-strict]
//	         [-max-quarantine N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/trace"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/zonedb"
)

var logger = obs.NewLogger("riskybiz")

// fatalf logs the formatted message through the structured logger and
// exits — the single error path for the command.
func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

func main() {
	scale := flag.Float64("scale", 12, "mean new domain registrations per simulated day (ignored with -data)")
	seed := flag.Int64("seed", 1, "random seed (ignored with -data)")
	data := flag.String("data", "", "instead of simulating, read the dataset -save-data wrote: segment file PREFIX.dzdb, PREFIX.whois, optional PREFIX.exclude")
	snapshots := flag.String("snapshots", "", "with -data, build the zone DB by ingesting master-file snapshots matching this glob instead of PREFIX.dzdb")
	strict := flag.Bool("strict", false, "with -snapshots, abort on the first invalid snapshot instead of quarantining it")
	maxQuarantine := flag.Int("max-quarantine", 0, "with -snapshots, abort after quarantining this many snapshots (0 = unlimited)")
	only := flag.String("only", "", "comma-separated subset: funnel,patterns,table1..table6,figure3..figure7,accident,partial")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	saveData := flag.String("save-data", "", "save the dataset the study ran on: the zone DB as a segment file PREFIX.dzdb, plus PREFIX.whois and PREFIX.exclude")
	saveSnapshots := flag.String("save-snapshots", "", "after simulating, write each zone's daily master-file snapshots into this directory")
	figuresCSV := flag.String("figures-csv", "", "write per-figure CSV data files into this directory")
	jsonOut := flag.Bool("json", false, "emit the full result summary as JSON instead of text artifacts")
	stats := flag.Bool("stats", false, "print a detection stage-timing report to stderr")
	traceOut := flag.String("trace", "", "write the run's trace in Chrome trace_event JSON (load in Perfetto) to this file (\"-\" = stderr)")
	version := flag.Bool("version", false, "print build information and exit")
	profFlags := prof.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(obs.Version())
		return
	}
	if *snapshots != "" && *data == "" {
		fatalf("-snapshots needs -data: the WHOIS history and exclusion list come from PREFIX.whois and PREFIX.exclude")
	}
	if *saveSnapshots != "" && *data != "" {
		fatalf("-save-snapshots needs a simulated world: a loaded dataset does not record the day its data began")
	}
	stopProfiles := profFlags.Start()
	defer stopProfiles()

	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New()
	}
	study, err := runStudy(tracer, *data, *snapshots, *strict, *maxQuarantine,
		riskybiz.Options{Seed: *seed, DomainsPerDay: *scale})
	if tracer != nil {
		if terr := writeTrace(tracer, *traceOut); terr != nil {
			fatalf("writing trace: %v", terr)
		}
	}
	if err != nil {
		fatalf("run: %v", err)
	}
	if *saveSnapshots != "" {
		n, err := riskybiz.SaveSnapshots(study, *saveSnapshots)
		if err != nil {
			fatalf("writing -save-snapshots: %v", err)
		}
		fmt.Fprintf(os.Stderr, "%d snapshots written to %s\n", n, *saveSnapshots)
	}
	if *stats {
		study.Result.Stats.WriteReport(os.Stderr)
	}
	if *saveData != "" {
		if err := riskybiz.SaveData(study, *saveData); err != nil {
			fatalf("saving dataset: %v", err)
		}
		fmt.Fprintf(os.Stderr, "dataset saved under %s.{dzdb,whois,exclude}\n", *saveData)
	}
	if *figuresCSV != "" {
		if err := writeFigureCSVs(study, *figuresCSV); err != nil {
			fatalf("writing figure CSVs: %v", err)
		}
		fmt.Fprintf(os.Stderr, "figure data written to %s\n", *figuresCSV)
	}
	if *jsonOut {
		summary := study.Analysis.Summarize(sim.NotificationDay, sim.FollowupDay)
		if err := summary.WriteJSON(os.Stdout); err != nil {
			fatalf("writing summary: %v", err)
		}
		return
	}
	var subset []string
	if *only != "" {
		subset = strings.Split(*only, ",")
	}
	study.PrintArtifacts(os.Stdout, subset, *csv)
}

// runStudy runs the study under a root span "riskybiz" on tracer (nil
// for an untraced run): over the dataset saved under data when it is
// set, else over a world simulated with opts.
func runStudy(tracer *trace.Tracer, data, snapshots string, strict bool, maxQuarantine int, opts riskybiz.Options) (*riskybiz.Study, error) {
	ctx, root := tracer.Start(context.Background(), "riskybiz")
	defer root.End()
	var study *riskybiz.Study
	var err error
	if data != "" {
		study, err = load(ctx, data, snapshots, strict, maxQuarantine)
	} else {
		study, err = riskybiz.RunContext(ctx, opts)
	}
	root.SetError(err)
	return study, err
}

// load runs the study over the dataset saved under prefix, its zone DB
// ingested from the snapshot files matching glob when one is given.
func load(ctx context.Context, prefix, glob string, strict bool, maxQuarantine int) (*riskybiz.Study, error) {
	var db *zonedb.DB
	if glob != "" {
		ing := zonedb.NewIngester()
		ing.Degraded = !strict
		ing.MaxQuarantine = maxQuarantine
		var err error
		if db, err = riskybiz.IngestSnapshots(ctx, glob, ing); err != nil {
			return nil, err
		}
		q := ing.Quarantine()
		logger.Info("snapshots ingested", "quarantine", q.String())
	}
	study, err := riskybiz.LoadContext(ctx, prefix, db)
	if err != nil {
		return nil, err
	}
	v := study.DB.View()
	logger.Info("dataset loaded", "prefix", prefix,
		"domains", v.NumDomains(), "nameservers", v.NumNameservers(), "excluded_ns", len(study.Exclude))
	return study, nil
}

// writeTrace writes the tracer's journal as Chrome trace_event JSON to
// path ("-" selects stderr).
func writeTrace(tracer *trace.Tracer, path string) error {
	if d := tracer.Dropped(); d > 0 {
		logger.Warn("trace journal truncated", "dropped_spans", d)
	}
	if path == "-" {
		return tracer.WriteChromeTrace(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFigureCSVs emits the raw series behind every figure so they can
// be re-plotted with external tooling.
func writeFigureCSVs(study *riskybiz.Study, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	a := study.Analysis
	save := func(name string, t *report.Table) error {
		f, err := os.Create(dir + "/" + name)
		if err != nil {
			return err
		}
		t.CSV(f)
		return f.Close()
	}
	monthly := func(name string, s *analysis.MonthlySeries) error {
		t := report.NewTable("month", "count")
		for i, m := range s.Months {
			t.AddRow(m.String(), s.Counts[i])
		}
		return save(name, t)
	}
	if err := monthly("figure3.csv", a.Figure3()); err != nil {
		return err
	}
	if err := monthly("figure4.csv", a.Figure4()); err != nil {
		return err
	}
	t5 := report.NewTable("nameserver", "hijack_value_days", "domains", "hijacked")
	for _, p := range a.Figure5() {
		t5.AddRow(string(p.NS), p.Value, p.NDomains, p.Hijacked)
	}
	if err := save("figure5.csv", t5); err != nil {
		return err
	}
	cdf := func(name string, c *analysis.CDF) error {
		t := report.NewTable("days", "fraction")
		for _, pt := range c.Points() {
			t.AddRow(int(pt[0]), pt[1])
		}
		return save(name, t)
	}
	nsCDF, domCDF := a.Figure6()
	if err := cdf("figure6_nameservers.csv", nsCDF); err != nil {
		return err
	}
	if err := cdf("figure6_domains.csv", domCDF); err != nil {
		return err
	}
	never, exposure, hijacked := a.Figure7()
	if err := cdf("figure7_never_hijacked.csv", never); err != nil {
		return err
	}
	if err := cdf("figure7_hijacked_exposure.csv", exposure); err != nil {
		return err
	}
	return cdf("figure7_hijacked_days.csv", hijacked)
}
