package detect

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRunStatsCollected: every Run carries stage timings, the worker
// busy vector, and the funnel mirror, with no obs registry wired.
func TestRunStatsCollected(t *testing.T) {
	res := runDetector(t, Config{})
	st := res.Stats
	if st == nil {
		t.Fatal("Result.Stats is nil")
	}
	wantStages := []string{StageExtract, StageMine, StageClassify}
	if len(st.Stages) != len(wantStages) {
		t.Fatalf("stages = %+v, want %v", st.Stages, wantStages)
	}
	for i, name := range wantStages {
		if st.Stages[i].Stage != name {
			t.Errorf("stage[%d] = %s, want %s", i, st.Stages[i].Stage, name)
		}
	}
	if st.Stage(StageExtract).Items != res.Funnel.TotalNameservers {
		t.Errorf("extract items = %d, want %d", st.Stage(StageExtract).Items, res.Funnel.TotalNameservers)
	}
	if st.Workers != 1 || len(st.WorkerBusy) != 1 {
		t.Errorf("workers = %d, busy = %v, want 1 worker", st.Workers, st.WorkerBusy)
	}
	if st.Funnel != res.Funnel {
		t.Errorf("stats funnel %+v != result funnel %+v", st.Funnel, res.Funnel)
	}
	if st.MatchesByMethod["sink"] == 0 || st.MatchesByMethod["marker"] == 0 || st.MatchesByMethod["original"] == 0 {
		t.Errorf("matches by method = %v, want all three methods", st.MatchesByMethod)
	}

	var buf bytes.Buffer
	st.WriteReport(&buf)
	for _, frag := range []string{"detect.extract", "funnel:", "matches:", "worker utilization"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("report missing %q:\n%s", frag, buf.String())
		}
	}
	buf.Reset()
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded RunStats
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("stats JSON does not round-trip: %v", err)
	}
	if decoded.Funnel != st.Funnel {
		t.Errorf("JSON funnel = %+v, want %+v", decoded.Funnel, st.Funnel)
	}
}

// TestRunRecordsObs wires a registry with a fake clock and checks the
// span histograms and funnel counters land in it.
func TestRunRecordsObs(t *testing.T) {
	db, who, dir := fixture()
	reg := obs.NewRegistry()
	base := time.Unix(1000, 0)
	var tick atomic.Int64 // advancing fake clock, safe across workers
	reg.Now = func() time.Time {
		return base.Add(time.Duration(tick.Add(1)) * time.Millisecond)
	}
	RegisterMetrics(reg)
	det := &Detector{DB: db, WHOIS: who, Dir: dir, Cfg: Config{Workers: 2}, Obs: reg}
	res := det.RunContext(context.Background())

	if got := reg.Counter(MetricScanned, "").Value(); got != uint64(res.Funnel.TotalNameservers) {
		t.Errorf("scanned counter = %d, want %d", got, res.Funnel.TotalNameservers)
	}
	if got := reg.Counter(MetricSacrificial, "").Value(); got != uint64(res.Funnel.Sacrificial) {
		t.Errorf("sacrificial counter = %d, want %d", got, res.Funnel.Sacrificial)
	}
	h := reg.HistogramVec(obs.SpanSecondsMetric, "", nil, "stage").With(StageExtract)
	if h.Count() != 1 {
		t.Errorf("extract span count = %d, want 1", h.Count())
	}
	if res.Stats.Workers != 2 || len(res.Stats.WorkerBusy) != 2 {
		t.Errorf("workers = %d busy = %v, want 2", res.Stats.Workers, res.Stats.WorkerBusy)
	}
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"detect_candidates_total",
		`pipeline_stage_runs_total{stage="detect.classify"} 1`,
		`detect_idiom_matches_total{method="marker"}`,
	} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("exposition missing %q", frag)
		}
	}
}
