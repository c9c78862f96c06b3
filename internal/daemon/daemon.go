// Package daemon carries the boilerplate every long-running command in
// this repository repeats: the -version flag, a named structured
// logger, build-info registration, a signal-bound context, and the
// observability endpoint — /metrics + pprof plus the operational-health
// surface (/healthz, /readyz, /statusz) and the go_*/process_* runtime
// gauges. Keeping it in one place
// means dzdbd and riskywatchd cannot drift apart on process
// hygiene: every daemon answers the same probes with the same
// semantics, and only the readiness conditions differ.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/health"
	obsruntime "repro/internal/obs/runtime"
)

// App is the shared per-process state.
type App struct {
	Name string
	Log  *slog.Logger
	Reg  *obs.Registry
	// Health is the probe registry behind /readyz. Daemons register
	// their readiness conditions on it; BeginShutdown flips readiness
	// before listeners close.
	Health *health.Registry
	// Runtime publishes the go_*/process_* gauges, sampled as each
	// /metrics scrape and /statusz render answers.
	Runtime *obsruntime.Collector

	start   time.Time
	statusz statusz
	// restoreProf undoes StartProfiler's runtime rates (nil until then).
	restoreProf func()
}

// New builds the app: named logger on the default registry with build
// info and the runtime gauges registered, and an empty health
// registry. If version is true (the -version flag), it prints
// build information and exits — callers invoke it right after
// flag.Parse and never see it return in that case.
func New(name string, version bool) *App {
	if version {
		fmt.Println(obs.Version())
		os.Exit(0)
	}
	a := &App{
		Name:   name,
		Log:    obs.NewLogger(name),
		Reg:    obs.Default,
		Health: health.NewRegistry(),
		start:  time.Now(),
	}
	a.Reg.RegisterBuildInfo()
	a.Health.Instrument(a.Reg)
	a.Runtime = obsruntime.New(a.Reg)
	return a
}

// BeginShutdown fails readiness (/healthz is untouched) so load
// balancers stop routing here, logs the drain, and sleeps for the grace
// period — the window in which probes observe not-ready while the
// listeners still answer. Call on SIGTERM, before closing servers.
func (a *App) BeginShutdown(grace time.Duration) {
	a.Health.BeginShutdown()
	a.Log.Info("draining", "reason", "shutdown", "grace", grace.String())
	if grace > 0 {
		time.Sleep(grace)
	}
}

// Close restores the profiling rates. Safe to call more than once; the
// daemons defer it, tests use it for cleanup.
func (a *App) Close() {
	if a.restoreProf != nil {
		a.restoreProf()
		a.restoreProf = nil
	}
}

// Fatal logs the error and exits non-zero.
func (a *App) Fatal(msg string, err error) {
	a.Log.Error(msg, "err", err)
	os.Exit(1)
}

// SignalContext returns a context cancelled on SIGINT/SIGTERM. The
// returned stop releases the signal handlers; calling it after the
// first signal restores default delivery so a second signal kills the
// process outright.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// ObservabilityMux returns a mux serving the full operational surface:
// GET /metrics (with a fresh runtime sample per scrape), /healthz (200
// while the process answers at all), /readyz, the human-readable
// /statusz, and the pprof handlers under /debug/pprof/ — which answer
// ?seconds=N with a delta profile (heap, allocs, mutex, block,
// goroutine) and /debug/pprof/profile?seconds=N with a CPU profile.
func (a *App) ObservabilityMux() *http.ServeMux {
	mux := http.NewServeMux()
	metrics := a.Reg.Handler()
	mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.Runtime.Sample()
		metrics.ServeHTTP(w, r)
	}))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.Handle("GET /readyz", a.Health.ReadinessHandler())
	mux.Handle("GET /statusz", a.StatusHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/pprof/mutex", mutexProfile)
	return mux
}

// mutexProfile guards the stdlib's mutex profile handler. While mutex
// sampling is off the runtime hands back an empty profile, which reads
// as "no contention"; say 412 in the v1 error envelope instead, so an
// operator learns the daemon was started without -prof-mutex-fraction.
func mutexProfile(w http.ResponseWriter, r *http.Request) {
	if runtime.SetMutexProfileFraction(-1) > 0 {
		pprof.Handler("mutex").ServeHTTP(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusPreconditionFailed)
	_, _ = io.WriteString(w, `{"error":{"code":"profiling_disabled","message":"mutex profiling is off; start the daemon with -prof-mutex-fraction > 0"}}`+"\n")
}

// HTTPServer wraps handler in a server with the repository's standard
// timeouts.
func HTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// ServeObservability starts the /metrics + pprof endpoint on addr in
// the background and returns the server (nil when addr is empty, i.e.
// the endpoint is disabled). Listen errors are logged, not fatal — a
// daemon must not die because its metrics port is taken.
func (a *App) ServeObservability(addr string) *http.Server {
	if addr == "" {
		return nil
	}
	srv := HTTPServer(addr, a.ObservabilityMux())
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			a.Log.Error("metrics listener", "err", err)
		}
	}()
	a.Log.Info("metrics listening", "addr", addr)
	return srv
}

// Shutdown gracefully stops an http.Server (nil is fine) within
// timeout.
func Shutdown(srv *http.Server, timeout time.Duration) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	_ = srv.Shutdown(ctx)
}
