package detect

import "time"

// Stage names recorded by Detector.RunContext, reused as its trace span
// names.
const (
	StageExtract  = "detect.extract"
	StageMine     = "detect.mine"
	StageClassify = "detect.classify"
)

// StageTiming is one pipeline stage's wall time and item count.
type StageTiming struct {
	Stage    string
	Duration time.Duration
	Items    int
}

// RunStats is the timing side of one Detector.RunContext, under the
// names of the run's trace spans (riskybiz -trace).
type RunStats struct {
	// Stages come in pipeline order: extract, mine (absent with
	// SkipMining), classify. Mine runs beside classify, so their
	// durations overlap and may sum to more than the run's wall time.
	Stages []StageTiming
	// Workers is the extraction worker count actually used: GOMAXPROCS
	// unless Config.Workers overrides it, capped at the number of
	// nameservers, and at least 1.
	Workers int
	// MatchesByMethod counts classifications by match method (sink,
	// marker, original).
	MatchesByMethod map[string]int
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
