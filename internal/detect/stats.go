package detect

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// Stage names recorded by Detector.RunContext, reused as its trace span
// names.
const (
	StageExtract  = "detect.extract"
	StageMine     = "detect.mine"
	StageClassify = "detect.classify"
)

// StageTiming is one pipeline stage's wall time and throughput.
type StageTiming struct {
	Stage    string        `json:"stage"`
	Duration time.Duration `json:"nanoseconds"`
	Items    int           `json:"items"`
}

// Rate returns items per second (zero when the stage was too fast to
// time).
func (t StageTiming) Rate() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(t.Items) / t.Duration.Seconds()
}

// RunStats is the timing side of one Detector.RunContext: what `-stats`
// reports and later perf PRs measure themselves against.
type RunStats struct {
	Wall   time.Duration `json:"wall_nanoseconds"`
	Stages []StageTiming `json:"stages"`
	// Workers is the extraction worker count actually used (>= 1).
	Workers int `json:"workers"`
	// WorkerBusy holds each extraction worker's busy time; with one
	// worker it equals the extract stage duration.
	WorkerBusy []time.Duration `json:"worker_busy_nanoseconds"`
	// MatchesByMethod counts classifications by match method (sink,
	// marker, original).
	MatchesByMethod map[string]int `json:"matches_by_method"`
	Funnel          Funnel         `json:"funnel"`
}

// Stage returns the named stage's timing, or a zero value.
func (s *RunStats) Stage(name string) StageTiming {
	for _, st := range s.Stages {
		if st.Stage == name {
			return st
		}
	}
	return StageTiming{Stage: name}
}

// WorkerUtilization returns mean worker busy-fraction during the
// extraction stage: 1.0 means every worker was busy the whole stage,
// lower values mean shard imbalance or spawn overhead.
func (s *RunStats) WorkerUtilization() float64 {
	wall := s.Stage(StageExtract).Duration
	if wall <= 0 || len(s.WorkerBusy) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range s.WorkerBusy {
		total += d
	}
	return total.Seconds() / (wall.Seconds() * float64(len(s.WorkerBusy)))
}

// WriteReport prints the human-readable stage-timing report.
func (s *RunStats) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "detection pipeline: %s wall, %d workers, %.1f%% worker utilization\n",
		s.Wall.Round(time.Microsecond), s.Workers, 100*s.WorkerUtilization())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  stage\ttime\titems\titems/s")
	for _, st := range s.Stages {
		fmt.Fprintf(tw, "  %s\t%s\t%d\t%.0f\n",
			st.Stage, st.Duration.Round(time.Microsecond), st.Items, st.Rate())
	}
	tw.Flush()
	f := s.Funnel
	fmt.Fprintf(w, "  funnel: %d nameservers -> %d candidates; -%d test, -%d single-repo, -%d unclassified -> %d sacrificial\n",
		f.TotalNameservers, f.Candidates, f.TestNameservers, f.SingleRepoViolations, f.Unclassified, f.Sacrificial)
	if len(s.MatchesByMethod) > 0 {
		methods := make([]string, 0, len(s.MatchesByMethod))
		for m := range s.MatchesByMethod {
			methods = append(methods, m)
		}
		sort.Strings(methods)
		fmt.Fprint(w, "  matches:")
		for _, m := range methods {
			fmt.Fprintf(w, " %s=%d", m, s.MatchesByMethod[m])
		}
		fmt.Fprintln(w)
	}
}

// WriteJSON dumps the stats as one JSON object.
func (s *RunStats) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
