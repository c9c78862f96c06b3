package detect

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestRunStatsCollected: every Run carries stage timings, the worker
// busy vector, and the funnel mirror.
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
	if w := min(runtime.GOMAXPROCS(0), res.Funnel.TotalNameservers); st.Workers != w || len(st.WorkerBusy) != w {
		t.Errorf("workers = %d, busy = %v, want GOMAXPROCS (%d)", st.Workers, st.WorkerBusy, w)
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
}
