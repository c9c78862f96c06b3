package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readRecords loads the untraced runs of a -record file, grouped by
// workload then metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = make(map[string][]float64)
		}
		for name, m := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// verdict judges set b against set a for one metric under its bound:
// regressed or improved when the medians differ by more than the bound,
// unresolved when either set's own spread is wider than the bound —
// unless every run of one side beats every run of the other.
func verdict(d metricDef, a, b []float64) string {
	worse := func(x, y float64) bool { // x worse than y
		if d.Better == "higher" {
			return x < y
		}
		return x > y
	}
	ma, mb := median(a), median(b) // sorts both
	change := (mb - ma) / ma
	if d.Better == "higher" {
		change = -change
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		switch {
		case worse(a[0], b[len(b)-1]) && worse(a[len(a)-1], b[0]):
			return "improved"
		case worse(b[0], a[len(a)-1]) && worse(b[len(b)-1], a[0]):
			return "regressed"
		}
		return "unresolved"
	}
	switch {
	case change > d.Bound:
		return "regressed"
	case change < -d.Bound:
		return "improved"
	}
	return "unchanged"
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns A/B\tmedian A\tmedian B\tchange\tspread A\tspread B\tbound\tverdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := a[wl.name][d.Name], b[wl.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(d, xa, xb)
			regressed = regressed || v == "regressed"
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.name, d.Name, d.Unit, len(xa), len(xb), ma, mb, 100*(mb-ma)/ma,
				100*spread(xa), 100*spread(xb), 100*d.Bound, v)
		}
	}
	return regressed, tw.Flush()
}
