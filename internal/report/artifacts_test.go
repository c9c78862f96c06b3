package report_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/idioms"
	"repro/internal/interval"
	"repro/internal/report"
	"repro/internal/zonedb"
)

func buildAnalysis() (*analysis.Analysis, *detect.Result) {
	db := zonedb.New()
	db.DomainAdded("biz", "dropthishost-9.biz", 110)
	db.Close(1000)
	spans := &interval.Set{}
	spans.Add(dates.NewRange(100, 400))
	sacs := []detect.Sacrificial{{
		NS: "dropthishost-9.biz", Created: 100, Idiom: idioms.DropThisHost,
		Class: idioms.Hijackable, Registrar: "GoDaddy",
		RegDomain: "dropthishost-9.biz", HijackedOn: 110,
		Domains: []detect.AffectedDomain{{Name: "victim.com", Spans: spans}},
	}}
	res := detect.NewResult(sacs, detect.Funnel{
		TotalNameservers: 50, Candidates: 5, TestNameservers: 1, Sacrificial: 1, Unclassified: 3,
	})
	res.Patterns = []detect.Pattern{{Substring: "dropthishost", Support: 5}}
	a := analysis.New(res, db, dates.NewRange(0, 1000), nil)
	return a, res
}

func TestPrintArtifactsEverything(t *testing.T) {
	a, res := buildAnalysis()
	var sb strings.Builder
	report.PrintArtifacts(&sb, a, res, report.ArtifactOptions{
		NotificationDay: 200, FollowupDay: 500,
	})
	out := sb.String()
	for _, want := range []string{
		"Candidate funnel", "Mined renaming patterns", "Table 1", "Table 2",
		"Table 3", "Figure 3", "Figure 4", "Figure 5", "Figure 6", "Figure 7",
		"Table 4", "Table 5", "Table 6", "dropthishost-9.biz",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Accident section omitted without accident names.
	if strings.Contains(out, "Namecheap") {
		t.Error("accident section printed with no accident names")
	}
}

func TestPrintArtifactsOnlyFilter(t *testing.T) {
	a, res := buildAnalysis()
	var sb strings.Builder
	report.PrintArtifacts(&sb, a, res, report.ArtifactOptions{
		Only: []string{"table3", " FIGURE6 "},
	})
	out := sb.String()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "Figure 6") {
		t.Errorf("requested artifacts missing:\n%s", out)
	}
	if strings.Contains(out, "Table 1") || strings.Contains(out, "Figure 3") {
		t.Errorf("unrequested artifacts printed:\n%s", out)
	}
}
