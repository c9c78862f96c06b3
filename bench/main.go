// Command bench is the repository's benchmark: five workloads over the
// two paths a user of the system feels — zone files on disk → sealed
// epoch → delta → alert, and HTTP request → coordinator → shard → bytes.
//
//	bash bench/run.sh -workload <name> -seed N -seconds S -trace 0|1
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// (run.sh builds this module and runs it from the repository's root.)
// A run builds its world from -seed, measures for -seconds, checks the
// program's outputs, prints every metric by name with its unit, and ends
// with one JSON line {"correct","attempted","failed","metrics"}. With
// -trace 0 the metrics are the end-to-end set; with -trace 1 the run is
// traced (spans round every call into a layer, written as Chrome trace
// JSON under bench/out/) and the metrics are the per-layer set. The exit
// code is non-zero when a check fails. See README.md for the glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// sizes fixes the input sizes of a run. full is what BENCHMARK.json
// measures; small is the smoke size bench_test.go uses.
type sizes struct {
	ingestScale  float64 // sim scale of world-ingest
	ingestDays   int     // trailing days written as zone files
	historyScale float64 // sim scale of world-history (detect-cold)
	serveScale   float64 // sim scale of world-serve
	churnBack    int     // serve-churn starts this many days before the close day
	warmReqs     int     // count-based warm-up requests, all clients together
	tracedReqs   int     // requests in the traced, single-client serving slice
	churnBurst   int     // reader requests after each published epoch, all clients together
	coldStarts   int     // server cold starts a traced serving run times
	sampleBodies int     // response bodies compared against the reference
	fixtureCheck int     // zone-days verified against View.SnapshotOn
	setupReps    int     // set-ups per run; setup_s is their median
}

var (
	full = sizes{
		ingestScale: 8, ingestDays: 30, historyScale: 8, serveScale: 3,
		churnBack: 1000, warmReqs: 12000, tracedReqs: 20000, churnBurst: 400, coldStarts: 9,
		sampleBodies: 200, fixtureCheck: 50, setupReps: 3,
	}
	small = sizes{
		ingestScale: 1, ingestDays: 8, historyScale: 1, serveScale: 1,
		churnBack: 300, warmReqs: 1500, tracedReqs: 1500, churnBurst: 100, coldStarts: 2,
		sampleBodies: 40, fixtureCheck: 10, setupReps: 1,
	}
)

// env is what every workload receives.
type env struct {
	ctx     context.Context
	seed    int64
	window  time.Duration
	traced  bool
	sz      sizes
	outDir  string // traces and temp fixtures; inside the checkout
	clients int    // closed-loop client goroutines, see clientCount
}

// result is what a workload hands back: measured values by metric name
// plus the operation and check counts.
type result struct {
	attempted int
	failed    int
	checks    []check
	values    map[string]float64
	stages    *stageTable // traced runs only
	granted   float64     // share of the run's processor time the host granted
}

// check is one correctness check made outside every timed window.
type check struct {
	name string
	err  error
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) verify(name string, err error) {
	r.checks = append(r.checks, check{name, err})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return r.failed == 0
}

func newResult() *result { return &result{values: make(map[string]float64)} }

type workload struct {
	name string
	why  string
	run  func(*env) (*result, error)
}

var workloads = []workload{
	{"ingest-files", "Write path on its literal input: 270 zone files (scale 8, last 30 days x 9 zones) through FileSource, diff ingest, Finish, seal, delta, watch; dnszone+zonedb do >95% of the work, serving layers none.", runIngestFiles},
	{"detect-cold", "Researcher and watch catch-up from a sealed store (scale 8, full history): segment load, detect, delta, watch replay each hold 15-45% of a pass, ingest none; a gain here must not move ingest-files.", runDetectCold},
	{"serve-node", "Steady hot read mix (Zipf 1.1 keys, revalidations, aggregates) on one dzdbapi node; the working set fits the 64 MiB response cache (hit ratio 0.96): cache and ETags do the work, render almost none.", runServeNode},
	{"serve-cluster", "Same world and request sequence through cluster.Coordinator over two shards: minus serve-node it is the coordination tax. Scale 3 is the cap: at scale 4 fleet sync overruns the client's 8 MiB limit.", runServeCluster},
	{"serve-churn", "Writes between reads: a writer publishes an epoch per day, a long-poll watch.Follower acks, then readers run a burst of a cold uniform mix: each epoch flushes the cache and rebuilds the delta index.", runServeChurn},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -record appends it and -compare reads it.
type record struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Trace    int        `json:"trace"`
	Seconds  float64    `json:"seconds"`
	Stamp    stamp      `json:"stamp"`
	Result   resultLine `json:"result"`
}

// line assembles the result line: exactly the declared end-to-end
// metrics for an untraced run, exactly the per-layer ones for a traced
// run. An end-to-end metric a workload left out or measured as zero is
// an error; a layer that did no work reports zero.
func (r *result) line(traced bool) (resultLine, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	declared := make(map[string]bool, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.Name] = true
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !traced && (!ok || v == 0) {
			return out, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range r.values {
		if !declared[name] {
			return out, fmt.Errorf("metric %s is emitted but not declared", name)
		}
	}
	return out, nil
}

// report prints the human-readable half of a run: the stamp, every
// metric with its unit, the stage table of a traced run, the checks.
func report(w *os.File, wl string, e *env, st stamp, r *result, line resultLine) {
	sj, _ := json.Marshal(st)
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v clients=%d\n# stamp %s\n",
		wl, e.seed, e.window.Seconds(), e.traced, e.clients, sj)
	fmt.Fprintf(w, "# the host granted %.1f%% of the processor time the run asked for\n", 100*r.granted)
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := line.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.6f %s\n", n, m.Value, m.Unit)
	}
	if r.stages != nil {
		fmt.Fprint(w, r.stages.String())
	}
	for _, c := range r.checks {
		if c.err != nil {
			fmt.Fprintf(w, "check %-40s FAIL: %v\n", c.name, c.err)
		} else {
			fmt.Fprintf(w, "check %-40s ok\n", c.name)
		}
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", r.attempted, r.failed)
}

// runWorkload executes one workload and returns its result line.
func runWorkload(wl *workload, e *env) (*result, resultLine, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, resultLine{}, err
	}
	w := startWatch()
	r, err := wl.run(e)
	if err != nil {
		return nil, resultLine{}, err
	}
	_, r.granted = w.stop()
	if e.sz == full && e.seed == 1 {
		r.verify("golden counts (seed 1)", checkGolden(wl.name, r.values))
	}
	line, err := r.line(e.traced)
	return r, line, err
}

// clientCount is one closed loop per two processors: a loop keeps one
// goroutine busy at a time (the client or the server's side of its
// connection), and the other processor of the pair is left to the
// collector and the runtime, so the window times the program and not how
// the scheduler shares the processors. On the reference host's two shared
// vCPUs one client repeats twice as closely as two (README.md).
func clientCount() int { return max(1, min(runtime.NumCPU()/2, 4)) }

func main() {
	wlName := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of the generated world and request sequence")
	seconds := flag.Float64("seconds", runSeconds, "length of the measured window")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	recordPath := flag.String("record", "", "append this run as one JSON line to `file` (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -record files: bench -compare A.jsonl B.jsonl")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the program's tables define it")
	flag.Parse()

	if *manifest {
		if err := writeManifest(os.Stdout); err != nil {
			fatal("manifest: %v", err)
		}
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.jsonl B.jsonl")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("compare: %v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	wl := findWorkload(*wlName)
	if wl == nil {
		fatal("unknown -workload %q (want one of %s)", *wlName, workloadNames())
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fatal("-seconds must be positive and -trace 0 or 1")
	}
	e := &env{
		ctx: context.Background(), seed: *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *traceFlag == 1, sz: full,
		outDir: filepath.Join("bench", "out"), clients: clientCount(),
	}
	st := newStamp()
	r, line, err := runWorkload(wl, e)
	if err != nil {
		fatal("%s: %v", wl.name, err)
	}
	report(os.Stdout, wl.name, e, st, r, line)
	if *recordPath != "" {
		rec := record{Workload: wl.name, Seed: *seed, Trace: *traceFlag,
			Seconds: *seconds, Stamp: st, Result: line}
		if err := appendRecord(*recordPath, rec); err != nil {
			fatal("writing -record: %v", err)
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal("encoding result: %v", err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
