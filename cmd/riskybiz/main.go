// Command riskybiz runs the full reproduction pipeline — ecosystem
// simulation, sacrificial-nameserver detection, and every table and
// figure of the paper's evaluation — and prints the results.
//
// Usage:
//
//	riskybiz [-scale N] [-seed S] [-only table3,figure6] [-csv]
//	         [-save-data PREFIX] [-save-snapshots DIR]
//	         [-figures-csv DIR]
//	         [-reingest [-strict] [-max-quarantine N] [-ingest-workers N]]
//	         [-workers N] [-stats] [-stats-json FILE]
//	         [-cpuprofile FILE] [-memprofile FILE] [-mutexprofile FILE]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/analysis"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/trace"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/zonedb/segment"
)

var logger = obs.NewLogger("riskybiz")

// fatalf logs the formatted message through the structured logger and
// exits — the single error path for the command.
func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

func main() {
	scale := flag.Float64("scale", 12, "mean new domain registrations per simulated day")
	seed := flag.Int64("seed", 1, "random seed")
	only := flag.String("only", "", "comma-separated subset: funnel,patterns,table1..table6,figure3..figure7,accident,partial")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	saveData := flag.String("save-data", "", "after simulating, save the dataset: the zone DB as a segment file PREFIX.dzdb, plus PREFIX.whois and PREFIX.exclude")
	figuresCSV := flag.String("figures-csv", "", "write per-figure CSV data files into this directory")
	jsonOut := flag.Bool("json", false, "emit the full result summary as JSON instead of text artifacts")
	stats := flag.Bool("stats", false, "print a detection stage-timing report to stderr")
	statsJSON := flag.String("stats-json", "", "also dump the stage timings as JSON to this file (\"-\" = stderr)")
	reingest := flag.Bool("reingest", false, "rebuild the zone DB from daily snapshots through the ingester before detection")
	strict := flag.Bool("strict", false, "with -reingest, abort on the first invalid snapshot instead of quarantining it")
	maxQuarantine := flag.Int("max-quarantine", 0, "with -reingest, abort after quarantining this many snapshots (0 = unlimited)")
	workers := flag.Int("workers", 0, "candidate-extraction workers (0 = sequential; output is identical either way)")
	ingestWorkers := flag.Int("ingest-workers", 0, "with -reingest, zone-affine ingest workers (0 = sequential)")
	saveSnapshots := flag.String("save-snapshots", "", "after simulating, write each zone's daily master-file snapshots into this directory")
	traceOut := flag.String("trace", "", "write a JSONL trace journal of the run to this file (\"-\" = stderr)")
	traceChrome := flag.String("trace-chrome", "", "write the run's trace in Chrome trace_event format (load in Perfetto) to this file")
	version := flag.Bool("version", false, "print build information and exit")
	profFlags := prof.RegisterCLIFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(obs.Version())
		return
	}
	stopProfiles := profFlags.Start()
	defer stopProfiles()

	var tracer *trace.Tracer
	if *traceOut != "" || *traceChrome != "" {
		tracer = trace.New()
	}
	ctx, root := tracer.Start(context.Background(), "riskybiz")

	study, err := riskybiz.RunContext(ctx, riskybiz.Options{
		Seed: *seed, DomainsPerDay: *scale,
		Detector: detect.Config{Workers: *workers},
		Reingest: *reingest, StrictIngest: *strict, MaxQuarantine: *maxQuarantine,
		IngestWorkers: *ingestWorkers,
		Obs:           obs.Default,
	})
	root.SetError(err)
	root.End()
	if terr := exportTraces(tracer, *traceOut, *traceChrome); terr != nil {
		fatalf("writing trace: %v", terr)
	}
	if err != nil {
		fatalf("run: %v", err)
	}
	if *reingest {
		logger.Info("reingest complete", "quarantine", study.Quarantine.String())
	}
	if *saveSnapshots != "" {
		n, err := writeSnapshots(study, *saveSnapshots)
		if err != nil {
			fatalf("writing -save-snapshots: %v", err)
		}
		fmt.Fprintf(os.Stderr, "%d snapshots written to %s\n", n, *saveSnapshots)
	}
	if *stats {
		study.Result.Stats.WriteReport(os.Stderr)
	}
	if *statsJSON != "" {
		if err := writeStatsJSON(study.Result.Stats, *statsJSON); err != nil {
			fatalf("writing -stats-json: %v", err)
		}
	}
	if *saveData != "" {
		if err := saveDataset(study, *saveData); err != nil {
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
	opts := report.ArtifactOptions{
		CSV:             *csv,
		NotificationDay: sim.NotificationDay,
		FollowupDay:     sim.FollowupDay,
		AccidentNS:      study.World.Truth().AccidentNS,
		EndOfData:       study.World.Config().End,
	}
	if *only != "" {
		opts.Only = strings.Split(*only, ",")
	}
	report.PrintArtifacts(os.Stdout, study.Analysis, study.Result, opts)
}

// writeStatsJSON dumps stage timings to path ("-" selects stderr).
func writeStatsJSON(stats *detect.RunStats, path string) error {
	if path == "-" {
		return stats.WriteJSON(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := stats.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exportTraces writes the tracer's journal to the requested outputs
// (empty paths skip an exporter; "-" selects stderr).
func exportTraces(tracer *trace.Tracer, jsonlPath, chromePath string) error {
	if tracer == nil {
		return nil
	}
	if jsonlPath != "" {
		if err := writeToFile(jsonlPath, tracer.WriteJSONL); err != nil {
			return err
		}
	}
	if chromePath != "" {
		if err := writeToFile(chromePath, tracer.WriteChromeTrace); err != nil {
			return err
		}
	}
	if d := tracer.Dropped(); d > 0 {
		logger.Warn("trace journal truncated", "dropped_spans", d)
	}
	return nil
}

func writeToFile(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
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

// writeSnapshots dumps every zone-day snapshot as a master-file text
// file named <zone>-<date>.zone — the input format riskydetect
// -snapshots ingests.
func writeSnapshots(study *riskybiz.Study, dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	v := study.World.ZoneDB().View()
	cfg := study.World.Config()
	zones := v.Zones()
	n := 0
	for day := cfg.Start; day <= cfg.End; day++ {
		for _, zone := range zones {
			snap := v.SnapshotOn(zone, day)
			f, err := os.Create(fmt.Sprintf("%s/%s-%s.zone", dir, zone, day))
			if err != nil {
				return n, err
			}
			if err := snap.Write(f); err != nil {
				f.Close()
				return n, err
			}
			if err := f.Close(); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// saveDataset saves the zone database as a segment file, and the WHOIS
// history and the accident-NS exclusion list as text, so detection can be
// re-run without simulating (riskydetect, riskywatchd -archive, zonedump
// -load, dzdbd -load). The segment replaces PREFIX.dzdb atomically: a
// riskywatchd tailing it never reads a half-written file.
func saveDataset(study *riskybiz.Study, prefix string) error {
	if err := segment.WriteFile(prefix+".dzdb", study.World.ZoneDB().View()); err != nil {
		return err
	}
	write := func(suffix string, fn func(*bufio.Writer) error) error {
		f, err := os.Create(prefix + suffix)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		if err := fn(bw); err != nil {
			f.Close()
			return err
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(".whois", func(w *bufio.Writer) error {
		return study.World.WHOIS().WriteArchive(w)
	}); err != nil {
		return err
	}
	return write(".exclude", func(w *bufio.Writer) error {
		for _, ns := range study.World.Truth().AccidentNS {
			fmt.Fprintln(w, ns)
		}
		return nil
	})
}
