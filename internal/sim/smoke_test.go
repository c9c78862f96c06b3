package sim

import (
	"context"
	"testing"

	"repro/internal/detect"
	"repro/internal/idioms"
)

// TestSmokeEndToEnd runs a small world through the full pipeline and
// reports the funnel, as an early calibration harness.
func TestSmokeEndToEnd(t *testing.T) {
	cfg := DefaultConfig(6)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := w.Truth()
	t.Logf("domains ever: %d, nameservers ever: %d", w.ZoneDB().View().NumDomains(), w.ZoneDB().View().NumNameservers())
	t.Logf("truth renames: %d (hijackable NS: %d), hijacks: %d, testNS: %d, accidentNS: %d",
		len(tr.Renames), len(tr.HijackableSet()), len(tr.Hijacks), len(tr.TestNS), len(tr.AccidentNS))

	det := &detect.Detector{DB: w.ZoneDB(), WHOIS: w.WHOIS(), Dir: w.Directory()}
	res := det.RunContext(context.Background())
	t.Logf("funnel: %+v", res.Funnel)
	perIdiom := map[idioms.ID]int{}
	hijacked := 0
	for i := range res.Sacrificial {
		s := &res.Sacrificial[i]
		perIdiom[s.Idiom]++
		if s.Hijacked() {
			hijacked++
		}
	}
	t.Logf("per idiom: %v", perIdiom)
	t.Logf("hijacked NS detected: %d", hijacked)
	if len(res.Patterns) > 0 {
		n := len(res.Patterns)
		if n > 12 {
			n = 12
		}
		t.Logf("top patterns: %v", res.Patterns[:n])
	}
}
