package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs/trace"
)

// rootSpan names the span that brackets one traced pass (or one traced
// client loop). Its self time is the run's unattributed time.
const rootSpan = "bench.pass"

// newTracer returns the in-memory tracer of a traced run. The journal
// is sized for the largest traced slice (a few spans per request).
func newTracer() *trace.Tracer {
	t := trace.New()
	t.MaxSpans = 1 << 20
	return t
}

// stage runs fn inside a span named name, child of the span ctx carries.
// With no span in ctx (an untraced pass) it only calls fn.
func stage(ctx context.Context, name string, fn func(ctx context.Context)) {
	ctx, sp := trace.Start(ctx, name)
	fn(ctx)
	sp.End()
}

// tracedRoot runs fn as one traced pass: inside a root span of tracer.
func tracedRoot(ctx context.Context, tracer *trace.Tracer, fn func(ctx context.Context)) {
	ctx, root := tracer.Start(ctx, rootSpan)
	fn(ctx)
	root.End()
}

// stageTable is the per-name self-time rollup of a tracer's journal.
type stageTable struct {
	self         map[string]time.Duration
	count        map[string]int
	passes       int           // root spans
	wall         time.Duration // sum of root spans
	unattributed time.Duration // sum of root self times
}

// selfTimes computes each span's self time — its duration minus the part
// of that interval its child spans cover — and sums them by span name.
// Children that run side by side (a scatter to two shards) cover their
// union once and share it in proportion to their durations, so the stage
// self times plus the unattributed time always equal the traced wall.
func selfTimes(recs []trace.Record) *stageTable {
	byParent := make(map[string][]int, len(recs))
	for i, r := range recs {
		if r.ParentID != "" {
			byParent[r.ParentID] = append(byParent[r.ParentID], i)
		}
	}
	st := &stageTable{self: make(map[string]time.Duration), count: make(map[string]int)}
	// walk adds span i's self time, weighted by the share of its own
	// duration that its parent's interval grants it.
	var walk func(i int, weight float64)
	walk = func(i int, weight float64) {
		r := recs[i]
		kids := byParent[r.SpanID]
		sort.Slice(kids, func(a, b int) bool { return recs[kids[a]].Start.Before(recs[kids[b]].Start) })
		var covered, sum time.Duration
		var coveredTo time.Time
		for _, k := range kids {
			c := recs[k]
			from, to := c.Start, c.Start.Add(c.Duration)
			if from.Before(coveredTo) {
				from = coveredTo
			}
			if to.After(from) {
				covered += to.Sub(from)
				coveredTo = to
			}
			sum += c.Duration
		}
		if covered > r.Duration {
			covered = r.Duration
		}
		self := time.Duration(weight * float64(r.Duration-covered))
		if r.Name == rootSpan {
			st.passes++
			st.wall += r.Duration
			st.unattributed += self
		} else {
			st.self[r.Name] += self
			st.count[r.Name]++
		}
		if sum > 0 {
			weight *= float64(covered) / float64(sum)
		}
		for _, k := range kids {
			walk(k, weight)
		}
	}
	for i, r := range recs {
		if r.ParentID == "" && r.Name == rootSpan {
			walk(i, 1)
		}
	}
	return st
}

// perPass returns the named stage's self time per traced pass.
func (st *stageTable) perPass(name string) float64 {
	if st.passes == 0 {
		return 0
	}
	return st.self[name].Seconds() / float64(st.passes)
}

// sum returns stage self times plus unattributed time; it equals wall.
func (st *stageTable) sum() time.Duration {
	total := st.unattributed
	for _, d := range st.self {
		total += d
	}
	return total
}

func (st *stageTable) String() string {
	names := make([]string, 0, len(st.self))
	for n := range st.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st.self[names[i]] > st.self[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "stage table: %d traced pass(es), wall %.6fs\n", st.passes, st.wall.Seconds())
	for _, n := range names {
		fmt.Fprintf(&b, "  %-28s %12.6fs %6.2f%%  n=%d\n", n, st.self[n].Seconds(),
			100*st.self[n].Seconds()/st.wall.Seconds(), st.count[n])
	}
	fmt.Fprintf(&b, "  %-28s %12.6fs %6.2f%%\n", "unattributed", st.unattributed.Seconds(),
		100*st.unattributed.Seconds()/st.wall.Seconds())
	fmt.Fprintf(&b, "  %-28s %12.6fs\n", "sum", st.sum().Seconds())
	return b.String()
}

// finishTrace rolls the journal up into r and writes it as Chrome trace
// JSON to <outDir>/trace-<workload>.json.
func finishTrace(e *env, workload string, t *trace.Tracer, r *result) error {
	if n := t.Dropped(); n > 0 {
		return fmt.Errorf("trace journal dropped %d spans", n)
	}
	st := selfTimes(t.Records())
	r.stages = st
	r.set("trace.wall_s", st.wall.Seconds())
	r.set("trace.unattributed_s", st.unattributed.Seconds())
	f, err := os.Create(filepath.Join(e.outDir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
