// Command riskydetect runs the detection methodology and analyses over
// an ARCHIVED dataset (produced by `riskybiz -save-data`), with no
// simulation involved — the workflow a researcher with real zone-file
// and WHOIS archives would use.
//
// Usage:
//
//	riskybiz -scale 12 -save-data dataset
//	riskydetect -data dataset [-only table3,figure6] [-csv]
//	            [-workers N] [-stats] [-stats-json FILE]
//	            [-cpuprofile FILE] [-memprofile FILE] [-mutexprofile FILE]
//
// The zone database can also be rebuilt from master-file snapshots
// (riskybiz -save-snapshots) instead of the binary archive, with
// degraded-mode quarantining of corrupt or gap-violating files:
//
//	riskybiz -scale 12 -save-data dataset -save-snapshots snaps
//	riskydetect -data dataset -snapshots 'snaps/*.zone' [-strict]
//	            [-max-quarantine N] [-ingest-workers N]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/trace"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/whois"
	"repro/internal/zonedb"
	"repro/internal/zonedb/segment"
)

var logger = obs.NewLogger("riskydetect")

// fatalf logs the formatted message through the structured logger and
// exits — the single error path for the command.
func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

func main() {
	data := flag.String("data", "dataset", "riskybiz -save-data prefix (segment file PREFIX.dzdb, PREFIX.whois, optional PREFIX.exclude)")
	only := flag.String("only", "", "comma-separated artifact subset")
	csv := flag.Bool("csv", false, "emit tables as CSV")
	jsonOut := flag.Bool("json", false, "emit the full result summary as JSON")
	windowStart := flag.String("window-start", "2011-04-01", "analysis window start")
	windowEnd := flag.String("window-end", "2020-09-30", "analysis window end")
	workers := flag.Int("workers", 0, "candidate-extraction workers (0 = sequential; output is identical either way)")
	stats := flag.Bool("stats", false, "print a pipeline stage-timing report to stderr")
	statsJSON := flag.String("stats-json", "", "also dump the stage timings as JSON to this file (\"-\" = stderr)")
	snapshots := flag.String("snapshots", "", "build the zone DB by ingesting master-file snapshots matching this glob instead of PREFIX.dzdb")
	strict := flag.Bool("strict", false, "with -snapshots, abort on the first invalid snapshot instead of quarantining it")
	maxQuarantine := flag.Int("max-quarantine", 0, "with -snapshots, abort after quarantining this many snapshots (0 = unlimited)")
	ingestWorkers := flag.Int("ingest-workers", 0, "with -snapshots, zone-affine ingest workers (0 = sequential)")
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
	ctx, root := tracer.Start(context.Background(), "riskydetect")

	lctx, lsp := trace.Start(ctx, "load.dataset")
	db, who, exclude, err := loadDataset(lctx, *data, *snapshots, *strict, *maxQuarantine, *ingestWorkers)
	lsp.SetError(err)
	lsp.End()
	if err != nil {
		fatalf("loading dataset: %v", err)
	}
	v := db.View()
	logger.Info("dataset loaded", "prefix", *data,
		"domains", v.NumDomains(), "nameservers", v.NumNameservers(), "excluded_ns", len(exclude))

	first, err := dates.Parse(*windowStart)
	if err != nil {
		fatalf("bad -window-start: %v", err)
	}
	last, err := dates.Parse(*windowEnd)
	if err != nil {
		fatalf("bad -window-end: %v", err)
	}

	det := &detect.Detector{DB: db, WHOIS: who, Dir: sim.StandardDirectory(),
		Cfg: detect.Config{Workers: *workers}}
	res := det.RunContext(ctx)
	if *stats {
		res.Stats.WriteReport(os.Stderr)
	}
	if *statsJSON != "" {
		if err := writeStatsJSON(res.Stats, *statsJSON); err != nil {
			fatalf("writing -stats-json: %v", err)
		}
	}
	_, asp := trace.Start(ctx, "analysis.build")
	an := analysis.New(res, db, dates.NewRange(first, last), exclude).WithWHOIS(who)
	asp.End()
	root.End()
	if err := exportTraces(tracer, *traceOut, *traceChrome); err != nil {
		fatalf("writing trace: %v", err)
	}

	if *jsonOut {
		summary := an.Summarize(sim.NotificationDay, sim.FollowupDay)
		if err := summary.WriteJSON(os.Stdout); err != nil {
			fatalf("writing summary: %v", err)
		}
		return
	}
	opts := report.ArtifactOptions{
		CSV:             *csv,
		NotificationDay: sim.NotificationDay,
		FollowupDay:     sim.FollowupDay,
		AccidentNS:      exclude,
		EndOfData:       last,
	}
	if *only != "" {
		opts.Only = strings.Split(*only, ",")
	}
	report.PrintArtifacts(os.Stdout, an, res, opts)
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

func loadDataset(ctx context.Context, prefix, snapshots string, strict bool, maxQuarantine, ingestWorkers int) (*zonedb.DB, *whois.History, []dnsname.Name, error) {
	var db *zonedb.DB
	var err error
	if snapshots != "" {
		_, sp := trace.Start(ctx, "load.snapshots")
		db, err = ingestSnapshots(snapshots, strict, maxQuarantine, ingestWorkers)
		sp.SetError(err)
		sp.End()
	} else {
		_, sp := trace.Start(ctx, "load.archive")
		db, err = segment.ReadFile(prefix + ".dzdb")
		sp.SetError(err)
		sp.End()
	}
	if err != nil {
		return nil, nil, nil, err
	}
	_, wsp := trace.Start(ctx, "load.whois")
	defer wsp.End()
	wf, err := os.Open(prefix + ".whois")
	if err != nil {
		wsp.SetError(err)
		return nil, nil, nil, err
	}
	defer wf.Close()
	who, err := whois.ReadFrom(bufio.NewReader(wf))
	if err != nil {
		wsp.SetError(err)
		return nil, nil, nil, err
	}
	wsp.End()
	var exclude []dnsname.Name
	if ef, err := os.Open(prefix + ".exclude"); err == nil {
		sc := bufio.NewScanner(ef)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			n, err := dnsname.Parse(line)
			if err != nil {
				ef.Close()
				return nil, nil, nil, fmt.Errorf("exclude list: %w", err)
			}
			exclude = append(exclude, n)
		}
		ef.Close()
		if err := sc.Err(); err != nil {
			return nil, nil, nil, err
		}
	}
	return db, who, exclude, nil
}

// osFS exposes the host filesystem to the snapshot FileSource.
type osFS struct{}

func (osFS) Open(name string) (fs.File, error) { return os.Open(name) }

// ingestSnapshots builds the zone DB from master-file snapshots (as
// written by riskybiz -save-snapshots). Paths are sorted, which the
// <zone>-<date>.zone naming scheme makes chronological per zone. By
// default invalid snapshots are quarantined and summarised; -strict
// turns the first one into a fatal error.
func ingestSnapshots(glob string, strict bool, maxQuarantine, workers int) (*zonedb.DB, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no snapshots match %q", glob)
	}
	sort.Strings(paths)
	ing := zonedb.NewIngester()
	ing.Degraded = !strict
	ing.MaxQuarantine = maxQuarantine
	ing.Workers = workers
	ing.Obs = obs.Default
	if err := ing.IngestAll(&zonedb.FileSource{FS: osFS{}, Paths: paths}); err != nil {
		return nil, err
	}
	report := ing.Quarantine()
	logger.Info("snapshots ingested", "files", len(paths)-report.Total(),
		"quarantine", report.String())
	return ing.Finish(), nil
}
