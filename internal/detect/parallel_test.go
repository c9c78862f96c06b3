package detect

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// comparable renders everything deterministic about a Result — the
// funnel, mined patterns, every sacrificial record field for field and
// in order, and the match-method counters — leaving out only the wall
// timings.
func comparableResult(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Funnel      Funnel
		Patterns    []Pattern
		Sacrificial []Sacrificial
		Methods     map[string]int
	}{r.Funnel, r.Patterns, r.Sacrificial, r.Stats.MatchesByMethod})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelExtractByteIdentical pins the worker contract: an
// 8-worker run emits a Result byte-identical to the serial one, not
// merely one with matching counts. (TestParallelWorkersIdentical checks
// the funnel across several worker counts; this is the strong form.)
func TestParallelExtractByteIdentical(t *testing.T) {
	seq := comparableResult(t, runDetector(t, Config{}))
	res := runDetector(t, Config{Workers: 8})
	if res.Stats.Workers != 8 || len(res.Stats.WorkerBusy) != 8 {
		t.Errorf("workers = %d busy = %v, want 8", res.Stats.Workers, res.Stats.WorkerBusy)
	}
	par := comparableResult(t, res)
	if !bytes.Equal(seq, par) {
		t.Fatalf("8-worker result differs from serial:\nserial: %s\nworkers: %s", seq, par)
	}
}

// TestNewDetectorOptions covers the functional-options constructor: the
// applied configuration must land on the detector fields the deprecated
// struct-literal form sets directly.
func TestNewDetectorOptions(t *testing.T) {
	db, who, dir := fixture()
	det := NewDetector(db, who, dir,
		WithConfig(Config{SkipMining: true}),
		WithWorkers(4))
	if det.DB != db || det.WHOIS != who || det.Dir != dir {
		t.Fatal("constructor dropped a dependency")
	}
	if !det.Cfg.SkipMining || det.Cfg.Workers != 4 {
		t.Fatalf("options not applied: %+v", det.Cfg)
	}
	res := det.RunContext(context.Background())
	if res.Funnel.Sacrificial == 0 {
		t.Fatal("options-built detector found nothing")
	}
}

var benchCandidates []candidate

// BenchmarkExtractCandidates runs stage 1 alone, serially, over the
// scale-8 world the bench's detect-cold workload detects on: one
// first-reference lookup and one point resolvability query per
// nameserver.
func BenchmarkExtractCandidates(b *testing.B) {
	cfg := sim.DefaultConfig(8)
	cfg.Seed = 1
	w, err := sim.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
	det := NewDetector(w.ZoneDB(), nil, nil)
	v := w.ZoneDB().View()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, benchCandidates, _ = det.extractCandidates(context.Background(), v)
	}
	if len(benchCandidates) == 0 {
		b.Fatal("no candidates")
	}
}
