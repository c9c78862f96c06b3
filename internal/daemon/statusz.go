package daemon

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// KV is one row of a /statusz section.
type KV struct {
	K, V string
}

// section is one daemon-registered block of the status page. fn runs at
// render time so the page always shows live state.
type section struct {
	title string
	fn    func() []KV
}

// statusz assembles the human-readable status page from sections. The
// daemon core contributes build/runtime/health/SLO blocks; each daemon
// adds its own (current epoch, feed lag, breaker states, ...) via
// App.StatusSection.
type statusz struct {
	mu       sync.Mutex
	sections []section
}

func (s *statusz) add(title string, fn func() []KV) {
	s.mu.Lock()
	s.sections = append(s.sections, section{title: title, fn: fn})
	s.mu.Unlock()
}

func (s *statusz) snapshot() []section {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]section(nil), s.sections...)
}

// StatusSection registers a /statusz block. fn is called per request and
// must be cheap and safe for concurrent use; rows render in the order
// returned. Sections render in registration order after the built-in
// ones.
func (a *App) StatusSection(title string, fn func() []KV) {
	a.statusz.add(title, fn)
}

// StatusHandler serves GET /statusz: a plain-text, human-first status
// page — the first thing to curl when a daemon misbehaves.
func (a *App) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var sb strings.Builder
		a.renderStatus(&sb)
		_, _ = w.Write([]byte(sb.String()))
	})
}

func (a *App) renderStatus(sb *strings.Builder) {
	fmt.Fprintf(sb, "%s — %s\n", a.Name, obs.Version())
	fmt.Fprintf(sb, "uptime %s\n", time.Since(a.start).Round(time.Second))

	// Runtime block, sampled fresh: the page is for humans debugging
	// now, not for scrape-cadence consistency.
	rt := a.Runtime.Sample()
	writeSection(sb, "runtime", []KV{
		{"goroutines", fmt.Sprintf("%d", rt.Goroutines)},
		{"gomaxprocs", fmt.Sprintf("%d", rt.GOMAXPROCS)},
		{"heap_alloc", fmtBytes(rt.HeapAlloc)},
		{"heap_sys", fmtBytes(rt.HeapSys)},
		{"heap_objects", fmt.Sprintf("%d", rt.HeapObjects)},
		{"gc_cycles", fmt.Sprintf("%d", rt.NumGC)},
		{"gc_pause_total", rt.PauseTotal.Round(time.Microsecond).String()},
		{"gc_cpu_fraction", fmt.Sprintf("%.5f", rt.GCCPUFraction)},
		{"open_fds", fmt.Sprintf("%d", rt.OpenFDs)},
		{"sampled", fmt.Sprintf("%s ago", time.Since(rt.At).Round(time.Millisecond))},
	})

	// Health block: every check with its probe-time verdict.
	ready, sts := a.Health.Readiness()
	rows := []KV{{"ready", fmt.Sprintf("%v", ready)}}
	for _, st := range sts {
		v := "ok"
		if !st.OK {
			v = "FAIL"
		}
		if st.Detail != "" {
			v += ": " + st.Detail
		}
		if st.OK && st.Age > 0 {
			v += fmt.Sprintf(" (updated %s ago)", st.Age.Round(time.Millisecond))
		}
		rows = append(rows, KV{st.Name, v})
	}
	writeSection(sb, "health", rows)

	// SLO block, from the tracker's last evaluation.
	if reps := a.SLO.Reports(); len(reps) > 0 {
		rows := make([]KV, 0, len(reps))
		for _, rep := range reps {
			verdict := "PASS"
			if !rep.Met {
				verdict = "FAIL"
			}
			rows = append(rows, KV{rep.Objective.Name, verdict + " · " + rep.String()})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].K < rows[j].K })
		writeSection(sb, "slo", rows)
	}

	for _, sec := range a.statusz.snapshot() {
		writeSection(sb, sec.title, sec.fn())
	}
}

func writeSection(sb *strings.Builder, title string, rows []KV) {
	fmt.Fprintf(sb, "\n[%s]\n", title)
	width := 0
	for _, r := range rows {
		if len(r.K) > width {
			width = len(r.K)
		}
	}
	for _, r := range rows {
		fmt.Fprintf(sb, "  %-*s  %s\n", width, r.K, r.V)
	}
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(n uint64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := uint64(unit), 0
	for v := n / unit; v >= unit; v /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
