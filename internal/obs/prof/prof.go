// Package prof summarizes the top contended lock sites for /statusz and
// carries the batch CLI's profile-file flags. Delta profiles (the change
// in a profile across a window, not the process-lifetime cumulative
// view) need nothing from here: net/http/pprof, which the daemons mount
// at /debug/pprof/, answers ?seconds=N with one.
package prof

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// ContendedSite is one row of the contention summary: a lock site and
// the contention charged to it since the process enabled mutex
// profiling.
type ContendedSite struct {
	// Site is the innermost non-runtime frame of the contention stack,
	// as "pkg.Func file.go:123".
	Site string
	// Count is the (sampling-scaled) number of contention events.
	Count int64
	// Delay is the cumulative (sampling-scaled) delay in cycles.
	Delay int64
}

// TopContended aggregates the current mutex profile by code site and
// returns the n sites with the most cumulative delay. Returns nil when
// mutex profiling is off — the summary never pretends to data the
// runtime is not collecting.
func TopContended(n int) []ContendedSite {
	frac := runtime.SetMutexProfileFraction(-1)
	if frac <= 0 {
		return nil
	}
	recs := mutexRecords()
	agg := make(map[string]*ContendedSite)
	for i := range recs {
		r := &recs[i]
		site := siteLabel(r.Stack())
		s := agg[site]
		if s == nil {
			s = &ContendedSite{Site: site}
			agg[site] = s
		}
		s.Count += r.Count * int64(frac)
		s.Delay += r.Cycles * int64(frac)
	}
	out := make([]ContendedSite, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Delay > out[j].Delay })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// mutexRecords snapshots the runtime's mutex contention profile. The
// profile can grow between sizing and reading it, hence the loop.
func mutexRecords() []runtime.BlockProfileRecord {
	n, _ := runtime.MutexProfile(nil)
	for {
		recs := make([]runtime.BlockProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MutexProfile(recs)
		if ok {
			return recs[:n]
		}
	}
}

// siteLabel names a contention stack by its first frame outside the
// runtime and sync packages — the caller that actually holds the lock
// pattern, not the lock implementation.
func siteLabel(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	fallback := ""
	for {
		fr, more := frames.Next()
		if fr.Function != "" {
			label := fmt.Sprintf("%s %s:%d", fr.Function, filepath.Base(fr.File), fr.Line)
			if fallback == "" {
				fallback = label
			}
			if !strings.HasPrefix(fr.Function, "runtime.") &&
				!strings.HasPrefix(fr.Function, "sync.") &&
				!strings.HasPrefix(fr.Function, "runtime/") {
				return label
			}
		}
		if !more {
			break
		}
	}
	if fallback == "" {
		return "unknown"
	}
	return fallback
}
