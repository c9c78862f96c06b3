package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef mirrors one entry of BENCHMARK.json's end_to_end or
// per_layer list; bench_test.go holds the two in agreement.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports from an untraced run.
// Each is defined per workload in README.md; a bound is the share of the
// parent's median by which the metric may worsen. The bounds follow the
// reference host, whose speed shifts by a fifth for minutes at a time
// (baseline.json). A metric that could not hold even the widest bound the
// contract allows is reported with the layers instead: tail.p99_ms,
// op.p50_ms (the readers' median beside a writer sits between the cache's
// hit and miss modes) and serve.cold_start_ms.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "visible_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rate_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer are the metrics of single layers, reported by a traced run.
// A layer a workload does not exercise reports zero.
var perLayer = []metricDef{
	// ingest-files
	lower("dnszone.read_s", "s"), higher("dnszone.read_mb_per_s", "MB/s"), lower("dnszone.read_alloc_mb", "MB"),
	lower("zonedb.add_snapshot_s", "s"), lower("zonedb.add_us_per_record", "us"), lower("zonedb.add_alloc_mb", "MB"),
	lower("zonedb.finish_s", "s"), higher("zonedb.facts", "count"),
	higher("zonedb.ingest_par_speedup", "ratio"), higher("zonedb.ingest_par_util", "ratio"),
	higher("ingest.files", "count"), higher("ingest.text_mb", "MB"), higher("ingest.records", "count"),
	lower("ingest.allocs_per_zone_day", "count"), lower("ingest.paper_extrap_days", "days"),
	lower("ingest.wall_s", "s"), lower("ingest.wall_par_s", "s"),
	lower("segment.seal_s", "s"), lower("segment.seal_bytes", "bytes"), lower("segment.bytes_per_fact", "bytes"),
	// detect-cold
	lower("segment.load_s", "s"), higher("segment.load_mb_per_s", "MB/s"),
	lower("detect.run_s", "s"), lower("detect.nomine_s", "s"), higher("detect.classify_par_speedup", "ratio"),
	lower("detect.extract_s", "s"), lower("detect.mine_s", "s"), lower("detect.classify_s", "s"),
	higher("detect.candidates", "count"), higher("detect.sacrificial", "count"),
	lower("analysis.build_s", "s"),
	// detect-cold, ingest-files, serve-churn
	lower("delta.build_s", "s"), higher("delta.days", "count"), higher("delta.changes", "count"),
	lower("watch.apply_s", "s"), lower("watch.apply_us_per_day", "us"), higher("watch.alerts", "count"),
	lower("watch.checkpoint_s", "s"), lower("watch.checkpoint_bytes", "bytes"),
	// serve-node (and the node half of serve-cluster, serve-churn)
	lower("dzdbapi.handler_us_p50", "us"), lower("dzdbapi.handler_us_p99", "us"), lower("dzdbapi.transport_us_p50", "us"),
	lower("dzdbapi.domain_us", "us"), lower("dzdbapi.nameserver_us", "us"), lower("dzdbapi.stats_us", "us"),
	lower("dzdbapi.top_us", "us"), lower("dzdbapi.zones_us", "us"), lower("dzdbapi.deltas_us", "us"),
	lower("dzdbapi.revalidate_us", "us"), lower("dzdbapi.hit_us", "us"), lower("dzdbapi.miss_us", "us"),
	higher("dzdbapi.cache_hit_ratio", "ratio"), lower("dzdbapi.cache_evictions", "count"), lower("dzdbapi.bytes_per_resp", "bytes"),
	// serve-cluster
	lower("cluster.sync_s", "s"), lower("cluster.handler_us_p50", "us"), lower("cluster.handler_us_p99", "us"),
	lower("cluster.proxy_us", "us"), lower("cluster.scatter_us", "us"), lower("cluster.merged_us", "us"),
	lower("cluster.deltas_us", "us"), lower("cluster.shard_direct_us", "us"), lower("cluster.tax_us_p50", "us"),
	lower("cluster.shard_requests_per_req", "ratio"),
	// serve-churn
	lower("zonedb.apply_day_ms_p50", "ms"), lower("zonedb.close_ms_p50", "ms"), lower("zonedb.close_nohook_ms_p50", "ms"),
	lower("dzdbapi.publish_hook_ms_p50", "ms"), lower("dzdbapi.snapshot_us", "us"),
	lower("watch.follow_ms_p50", "ms"), lower("watch.fresh_p50_ms", "ms"), lower("watch.fresh_p90_ms", "ms"),
	higher("churn.epochs", "count"), higher("churn.reader_rps", "1/s"),
	// serve-node, serve-cluster
	lower("serve.cold_start_ms", "ms"),
	// every workload
	lower("op.p50_ms", "ms"), lower("tail.p99_ms", "ms"), lower("obs.trace_overhead_pct", "%"), lower("trace.wall_s", "s"), lower("trace.unattributed_s", "s"),
}

// runSeconds is the measured window BENCHMARK.json asks the driver for.
const runSeconds = 14

// writeManifest prints BENCHMARK.json from the tables above, so the file
// and the program cannot drift apart (bench_test.go checks they agree).
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []e2e       `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds, PerLayer: perLayer}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e(d))
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// stamp records where and on what a run was made.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func newStamp() stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
		Commit:     commit(),
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// commit finds the revision from the build info, else from .git in the
// working directory; a checkout that is not a repository has neither.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head := readTrim(filepath.Join(".git", "HEAD"))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		head = readTrim(filepath.Join(".git", ref))
	}
	return head
}

//go:embed golden.json
var goldenJSON []byte

// checkGolden compares the exact counts pinned for seed 1 at full size
// with what the run measured. Only names the run emitted are compared,
// so the untraced run checks nothing here and the traced run all of it.
func checkGolden(workload string, values map[string]float64) error {
	var golden map[string]map[string]float64
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	for name, want := range golden[workload] {
		if got, ok := values[name]; ok && math.Abs(got-want) > 1e-9 {
			return fmt.Errorf("%s = %v, golden %v", name, got, want)
		}
	}
	return nil
}
