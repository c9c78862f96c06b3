package detect

import (
	"runtime"
	"testing"
)

// TestRunStatsCollected: every Run carries stage timings, the worker
// count and the matches by method.
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
	if w := min(runtime.GOMAXPROCS(0), res.Funnel.TotalNameservers); st.Workers != w {
		t.Errorf("workers = %d, want GOMAXPROCS (%d)", st.Workers, w)
	}
	if st.MatchesByMethod["sink"] == 0 || st.MatchesByMethod["marker"] == 0 || st.MatchesByMethod["original"] == 0 {
		t.Errorf("matches by method = %v, want all three methods", st.MatchesByMethod)
	}
}
