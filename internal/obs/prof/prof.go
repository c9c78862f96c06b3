// Package prof is the continuous-profiling subsystem: it periodically
// captures heap/CPU/mutex/block/goroutine profiles into a rotating
// on-disk directory and summarizes the top contended lock sites for
// /statusz. Delta profiles (the change in a profile across a window,
// not the process-lifetime cumulative view) need nothing from here:
// net/http/pprof, which the daemons mount at /debug/pprof/, answers
// ?seconds=N with one.
//
// Mutex and block profiling are off by default — they tax every lock
// operation — and are enabled per daemon via Config. The capture
// directory works like segment retention: each capture is one
// cap-NNNNNN/ subdirectory and only the newest Keep sets survive.
package prof

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config controls the continuous profiler. The zero value captures
// nothing; Start applies the defaults documented per field.
type Config struct {
	// Dir is the capture directory. Empty disables periodic capture
	// (the contention summary still works).
	Dir string
	// Interval between capture sets. Default 60s.
	Interval time.Duration
	// Keep is how many capture sets to retain. Default 10.
	Keep int
	// MutexFraction is passed to runtime.SetMutexProfileFraction.
	// 0 leaves mutex profiling off (the default); 1 samples every
	// contention event.
	MutexFraction int
	// BlockRate is passed to runtime.SetBlockProfileRate, in
	// nanoseconds of blocking per sample. 0 leaves block profiling off.
	BlockRate int
	// CPUSeconds is how long each periodic CPU capture runs. Default 5s,
	// clamped to Interval/2.
	CPUSeconds int
}

// Profiler metric names.
const (
	CapturesMetric     = "prof_captures_total"
	CaptureErrsMetric  = "prof_capture_errors_total"
	CaptureSetsMetric  = "prof_capture_sets"
	MutexFractionGauge = "prof_mutex_fraction"
	BlockRateGauge     = "prof_block_rate_ns"
)

// Profiler runs the capture loop. Create with Start, stop with Stop.
type Profiler struct {
	cfg Config
	log *slog.Logger

	captures    *obs.Counter
	captureErrs *obs.Counter
	sets        *obs.Gauge

	prevMutexFraction int
	prevBlockRate     int

	mu   sync.Mutex // serializes CaptureNow with the loop
	seq  int
	stop chan struct{}
	done chan struct{}
}

// Start applies the profiling rates, begins the periodic capture loop
// (when cfg.Dir is set), and returns the running Profiler. reg and log
// may be nil.
func Start(cfg Config, reg *obs.Registry, log *slog.Logger) (*Profiler, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = 60 * time.Second
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 10
	}
	if cfg.CPUSeconds <= 0 {
		cfg.CPUSeconds = 5
	}
	if max := int(cfg.Interval / (2 * time.Second)); max >= 1 && cfg.CPUSeconds > max {
		cfg.CPUSeconds = max
	}
	if log == nil {
		log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	p := &Profiler{
		cfg:  cfg,
		log:  log,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if reg != nil {
		p.captures = reg.Counter(CapturesMetric, "Profile capture sets written.")
		p.captureErrs = reg.Counter(CaptureErrsMetric, "Profile capture errors.")
		p.sets = reg.Gauge(CaptureSetsMetric, "Capture sets currently on disk.")
		reg.Gauge(MutexFractionGauge, "Configured mutex profile fraction (0 = off).").Set(int64(cfg.MutexFraction))
		reg.Gauge(BlockRateGauge, "Configured block profile rate in ns (0 = off).").Set(int64(cfg.BlockRate))
	}

	// Apply contention-profiling rates, remembering what to restore on
	// Stop so tests (and embedders) do not leak global profiling state.
	p.prevMutexFraction = runtime.SetMutexProfileFraction(-1)
	if cfg.MutexFraction > 0 {
		runtime.SetMutexProfileFraction(cfg.MutexFraction)
	}
	p.prevBlockRate = 0 // runtime has no getter; assume default off
	if cfg.BlockRate > 0 {
		runtime.SetBlockProfileRate(cfg.BlockRate)
	}

	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("prof: create capture dir: %w", err)
		}
		// Resume numbering after any sets already on disk so a restart
		// keeps rotating instead of overwriting from cap-000000.
		sets, _ := listCaptureSets(cfg.Dir)
		if len(sets) > 0 {
			fmt.Sscanf(filepath.Base(sets[len(sets)-1]), "cap-%06d", &p.seq)
			p.seq++
		}
		go p.loop()
	} else {
		close(p.done)
	}
	return p, nil
}

// Stop ends the capture loop and restores the pre-Start contention
// profiling rates.
func (p *Profiler) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
	if p.cfg.MutexFraction > 0 {
		runtime.SetMutexProfileFraction(p.prevMutexFraction)
	}
	if p.cfg.BlockRate > 0 {
		runtime.SetBlockProfileRate(p.prevBlockRate)
	}
}

func (p *Profiler) loop() {
	defer close(p.done)
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			if _, err := p.CaptureNow(); err != nil {
				p.log.Warn("profile capture failed", "err", err)
			}
		}
	}
}

// CaptureNow writes one capture set — heap, goroutine, and (when
// enabled) mutex/block snapshots plus a short CPU profile — into a new
// cap-NNNNNN/ directory, prunes sets beyond Keep, and returns the set's
// path. Safe to call concurrently with the loop.
func (p *Profiler) CaptureNow() (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cfg.Dir == "" {
		return "", fmt.Errorf("prof: no capture directory configured")
	}
	dir := filepath.Join(p.cfg.Dir, fmt.Sprintf("cap-%06d", p.seq))
	p.seq++
	if err := os.MkdirAll(dir, 0o755); err != nil {
		p.countErr()
		return "", err
	}

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	keep(writeLookup(filepath.Join(dir, "heap.pprof"), "heap"))
	keep(writeLookup(filepath.Join(dir, "goroutine.pprof"), "goroutine"))
	if runtime.SetMutexProfileFraction(-1) > 0 {
		keep(writeLookup(filepath.Join(dir, "mutex.pprof"), "mutex"))
	}
	if p.cfg.BlockRate > 0 {
		keep(writeLookup(filepath.Join(dir, "block.pprof"), "block"))
	}
	keep(p.writeCPU(filepath.Join(dir, "cpu.pprof")))

	p.prune()
	if firstErr != nil {
		p.countErr()
		return dir, firstErr
	}
	if p.captures != nil {
		p.captures.Add(1)
	}
	return dir, nil
}

func (p *Profiler) countErr() {
	if p.captureErrs != nil {
		p.captureErrs.Add(1)
	}
}

// writeLookup snapshots a named runtime profile to path.
func writeLookup(path, name string) error {
	prof := pprof.Lookup(name)
	if prof == nil {
		return fmt.Errorf("prof: no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := prof.WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCPU records a CPUSeconds-long CPU profile to path. Skipped
// silently when another CPU profile (e.g. a /debug/pprof/profile
// request) is already running — only one can be active per process.
func (p *Profiler) writeCPU(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return nil // busy: another profile is running
	}
	select {
	case <-time.After(time.Duration(p.cfg.CPUSeconds) * time.Second):
	case <-p.stop:
	}
	pprof.StopCPUProfile()
	return f.Close()
}

// listCaptureSets returns the cap-* subdirectories of dir, sorted by
// name (which is creation order, thanks to the zero-padded sequence).
func listCaptureSets(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var sets []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "cap-") {
			sets = append(sets, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(sets)
	return sets, nil
}

// prune deletes the oldest capture sets beyond Keep. Junk files in the
// capture dir (partial writes, stray files) are ignored, and a set that
// fails to delete is logged, not fatal — rotation must survive a dirty
// directory.
func (p *Profiler) prune() {
	sets, err := listCaptureSets(p.cfg.Dir)
	if err != nil {
		p.log.Warn("profile rotation: list failed", "err", err)
		return
	}
	for len(sets) > p.cfg.Keep {
		victim := sets[0]
		sets = sets[1:]
		if err := os.RemoveAll(victim); err != nil {
			p.log.Warn("profile rotation: delete failed", "dir", victim, "err", err)
		}
	}
	if p.sets != nil {
		p.sets.Set(int64(len(sets)))
	}
}

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
