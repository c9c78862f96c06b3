package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro"
	"repro/internal/obs/trace"
)

// TestTraceHoldsDetectionStages: the file -trace writes is Chrome
// trace_event JSON, and the detection stages in it are the ones the run
// timed — one span per stage, each a child of detect.run, under the
// same names RunStats.Stages carries.
func TestTraceHoldsDetectionStages(t *testing.T) {
	tracer := trace.New()
	study, err := runStudy(tracer, "", "", false, 0, riskybiz.Options{Seed: 1, DomainsPerDay: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.trace.json")
	if err := writeTrace(tracer, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("-trace output is not trace_event JSON: %v", err)
	}

	var runID string
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" && ev.Name == "detect.run" {
			if runID != "" {
				t.Fatal("two detect.run spans")
			}
			runID = ev.Args["span_id"]
		}
	}
	if runID == "" {
		t.Fatalf("no detect.run span among %d events", len(file.TraceEvents))
	}
	var traced []string
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" && ev.Args["parent_id"] == runID {
			traced = append(traced, ev.Name)
		}
	}
	var reported []string
	for _, st := range study.Result.Stats.Stages {
		reported = append(reported, st.Stage)
	}
	slices.Sort(traced)
	slices.Sort(reported)
	if !slices.Equal(traced, reported) {
		t.Errorf("detect.run's children %v, RunStats.Stages %v: want the same names", traced, reported)
	}
	for _, want := range []string{"detect.extract", "detect.mine", "detect.classify"} {
		if !slices.Contains(traced, want) {
			t.Errorf("no %s span under detect.run (children %v)", want, traced)
		}
	}
}
