package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/trace"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesTables holds BENCHMARK.json and the tables the
// program emits from in agreement, both ways.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q differs from the program's %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n%v\n%v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestWorkloadsSmoke runs all five workloads at the small size, untraced
// and traced, on two seeds: every check passes, the emitted names are
// exactly the declared ones, and a traced run's stage self times plus
// the unattributed time equal its traced wall.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				e := &env{ctx: context.Background(), seed: seed, window: 400 * time.Millisecond,
					traced: traced, sz: small, outDir: t.TempDir(), clients: clientCount()}
				r, line, err := runWorkload(&wl, e)
				if err != nil {
					t.Fatalf("%s seed %d traced %v: %v", wl.name, seed, traced, err)
				}
				for _, c := range r.checks {
					if c.err != nil {
						t.Errorf("%s seed %d traced %v: check %q: %v", wl.name, seed, traced, c.name, c.err)
					}
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("%s seed %d traced %v: correct=%v attempted=%d failed=%d",
						wl.name, seed, traced, line.Correct, line.Attempted, line.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("%s traced %v: %d metrics emitted, %d declared", wl.name, traced, len(line.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := line.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s traced %v: metric %s = %+v (declared unit %s)", wl.name, traced, d.Name, m, d.Unit)
					}
				}
				if !traced {
					continue
				}
				st := r.stages
				if st == nil || st.passes == 0 {
					t.Fatalf("%s: traced run recorded no pass", wl.name)
				}
				if diff := math.Abs(st.sum().Seconds() - st.wall.Seconds()); diff > 0.01*st.wall.Seconds() {
					t.Errorf("%s: stages sum to %v, traced wall %v", wl.name, st.sum(), st.wall)
				}
				var chrome struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				raw, err := os.ReadFile(filepath.Join(e.outDir, "trace-"+wl.name+".json"))
				if err != nil || json.Unmarshal(raw, &chrome) != nil || len(chrome.TraceEvents) == 0 {
					t.Errorf("%s: Chrome trace missing or unreadable (%v)", wl.name, err)
				}
			}
		}
	}
}

// TestSelfTimesSharesOverlap: two children that overlap cover their
// union once, so the table still sums to the root's wall.
func TestSelfTimesSharesOverlap(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	dur := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	recs := []trace.Record{
		{SpanID: "root", Name: rootSpan, Start: at(0), Duration: dur(100)},
		{SpanID: "p", ParentID: "root", Name: "parent", Start: at(10), Duration: dur(80)},
		{SpanID: "a", ParentID: "p", Name: "child", Start: at(20), Duration: dur(40)},
		{SpanID: "b", ParentID: "p", Name: "child", Start: at(30), Duration: dur(50)},
	}
	st := selfTimes(recs)
	near := func(got, want time.Duration) bool { return (got - want).Abs() < time.Microsecond }
	if st.wall != dur(100) || !near(st.unattributed, dur(20)) {
		t.Errorf("wall %v unattributed %v", st.wall, st.unattributed)
	}
	// The children cover [20, 80): 60 ms of the parent's 80.
	if !near(st.self["parent"], dur(20)) || !near(st.self["child"], dur(60)) {
		t.Errorf("parent %v child %v", st.self["parent"], st.self["child"])
	}
	if !near(st.sum(), st.wall) {
		t.Errorf("sum %v, wall %v", st.sum(), st.wall)
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{9, 1, 5, 3, 7, 11, 2, 8, 4, 10})
	if q1 != 2.75 || q3 != 9.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 9.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lowerBetter := metricDef{Name: "visible_ms", Better: "lower", Bound: 0.10}
	higherBetter := metricDef{Name: "rate_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		d    metricDef
		b    []float64
		want string
	}{
		{lowerBetter, []float64{103, 104, 102, 103, 105}, "unchanged"},
		{lowerBetter, []float64{120, 121, 119, 120, 122}, "regressed"},
		{lowerBetter, []float64{80, 81, 79, 80, 82}, "improved"},
		{higherBetter, []float64{80, 81, 79, 80, 82}, "regressed"},
		{higherBetter, []float64{120, 121, 119, 120, 122}, "improved"},
		{lowerBetter, []float64{60, 140, 100, 90, 120}, "unresolved"},
		{lowerBetter, []float64{200, 300, 250, 400, 220}, "regressed"}, // wide, but every run is worse
	}
	for _, c := range cases {
		a := append([]float64(nil), base...)
		if got := verdict(c.d, a, c.b); got != c.want {
			t.Errorf("%s %v: verdict %s, want %s", c.d.Name, c.b, got, c.want)
		}
	}
}
