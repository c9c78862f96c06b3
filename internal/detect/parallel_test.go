package detect

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/zonedb"
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
// 8-worker run emits a Result byte-identical to the one-worker one, not
// merely one with matching counts. (TestParallelWorkersIdentical checks
// the funnel across several worker counts; this is the strong form.)
func TestParallelExtractByteIdentical(t *testing.T) {
	seq := comparableResult(t, runDetector(t, Config{Workers: 1}))
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

// TestParallelDetectAcrossProcs: a default run — extraction on
// GOMAXPROCS workers, mining beside classification — yields the
// one-worker Result at any GOMAXPROCS, on the fixture and on a
// simulated world, reports its stages in pipeline order, and leaves no
// goroutine behind.
func TestParallelDetectAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	db, who, dir := fixture()
	cfg := sim.DefaultConfig(2)
	cfg.Seed = 1
	w, err := sim.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for _, world := range []struct {
		name string
		det  func(...Option) *Detector
	}{
		{"fixture", func(opts ...Option) *Detector { return NewDetector(db, who, dir, opts...) }},
		{"sim-scale-2", func(opts ...Option) *Detector { return NewDetector(w.ZoneDB(), w.WHOIS(), w.Directory(), opts...) }},
	} {
		want := comparableResult(t, world.det(WithWorkers(1)).RunContext(context.Background()))
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			before := runtime.NumGoroutine()
			res := world.det().RunContext(context.Background())
			if got := comparableResult(t, res); !bytes.Equal(got, want) {
				t.Fatalf("%s, GOMAXPROCS=%d: result differs from one worker:\ngot:  %s\nwant: %s", world.name, procs, got, want)
			}
			if n := min(procs, res.Funnel.TotalNameservers); res.Stats.Workers != n || len(res.Stats.WorkerBusy) != n {
				t.Errorf("%s, GOMAXPROCS=%d: workers = %d, busy = %v, want %d", world.name, procs, res.Stats.Workers, res.Stats.WorkerBusy, n)
			}
			var stages []string
			for _, st := range res.Stats.Stages {
				stages = append(stages, st.Stage)
			}
			if got, want := strings.Join(stages, ","), StageExtract+","+StageMine+","+StageClassify; got != want {
				t.Errorf("%s, GOMAXPROCS=%d: stages %s, want %s", world.name, procs, got, want)
			}
			// A goroutine that called wg.Done may still be on its way out.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s, GOMAXPROCS=%d: %d goroutines after the run, %d before", world.name, procs, n, before)
			}
		}
	}
}

// TestDetectSpanTree: a traced run is one detect.run span whose children
// are the three stages, with one detect.extract.worker span per worker
// under detect.extract — detect.mine keeps its parent though it runs on
// a goroutine of its own.
func TestDetectSpanTree(t *testing.T) {
	tr := trace.New()
	ctx, root := tr.Start(context.Background(), "test")
	db, who, dir := fixture()
	res := NewDetector(db, who, dir, WithWorkers(3)).RunContext(ctx)
	root.End()

	byName := map[string][]trace.Record{}
	for _, r := range tr.Records() {
		byName[r.Name] = append(byName[r.Name], r)
	}
	one := func(name string) trace.Record {
		t.Helper()
		if len(byName[name]) != 1 {
			t.Fatalf("%d %s spans, want 1", len(byName[name]), name)
		}
		return byName[name][0]
	}
	run := one("detect.run")
	if run.ParentID != root.Context().SpanID.String() {
		t.Errorf("detect.run parent %q, want the caller's span", run.ParentID)
	}
	for _, name := range []string{StageExtract, StageMine, StageClassify} {
		if sp := one(name); sp.ParentID != run.SpanID {
			t.Errorf("%s parent %q, want detect.run %q", name, sp.ParentID, run.SpanID)
		}
	}
	extract := one(StageExtract)
	workers := byName["detect.extract.worker"]
	if res.Stats.Workers != 3 || len(workers) != res.Stats.Workers {
		t.Fatalf("%d worker spans for %d workers, want 3", len(workers), res.Stats.Workers)
	}
	seen := map[string]bool{}
	for _, w := range workers {
		worker := ""
		for _, a := range w.Attrs {
			if a.Key == "worker" {
				worker = a.Value
			}
		}
		if w.ParentID != extract.SpanID {
			t.Errorf("worker %s parent %q, want detect.extract %q", worker, w.ParentID, extract.SpanID)
		}
		seen[worker] = true
	}
	if len(seen) != 3 {
		t.Errorf("worker attrs %v, want three distinct", seen)
	}
	if n := len(tr.Records()); n != 1+1+3+3 {
		t.Errorf("%d spans, want 8 (caller, run, three stages, three workers)", n)
	}
}

var benchCandidates []candidate

// BenchmarkExtractCandidates runs stage 1 alone, on its default
// GOMAXPROCS workers (run it at -cpu 1,2), over the scale-8 world the
// bench's detect-cold workload detects on: one first-reference lookup
// and one point resolvability query per nameserver. live reads the
// world as ingested; loaded reads it after a segment round trip, the
// path detect-cold takes.
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
	live := w.ZoneDB().View()
	for _, c := range []struct {
		name   string
		loaded bool
	}{{"live", false}, {"loaded", true}} {
		b.Run(c.name, func(b *testing.B) {
			v := live
			if c.loaded {
				v = loaded(b, live)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, benchCandidates, _ = det.extractCandidates(context.Background(), v)
			}
			if len(benchCandidates) == 0 {
				b.Fatal("no candidates")
			}
		})
	}
}

// loaded returns v after a round trip through its segment encoding.
func loaded(tb testing.TB, v *zonedb.View) *zonedb.View {
	tb.Helper()
	var buf bytes.Buffer
	if err := v.WriteSegment(&buf); err != nil {
		tb.Fatal(err)
	}
	db, err := zonedb.ReadSegment(buf.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	return db.View()
}
