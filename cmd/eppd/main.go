// Command eppd runs an EPP protocol server for a standalone registry —
// a sandbox for exercising RFC 5731/5732 semantics (including the
// host-rename loophole) with the eppclient package or any framed-XML
// client.
//
// Usage:
//
//	eppd [-addr :7700] [-registry Verisign] [-tlds com,net,edu,gov] [-date 2020-09-15]
//	     [-metrics :7701] [-drain 1s]
//
// With -metrics set, per-command counters, session gauges, runtime
// gauges, pprof profiles, and the probe endpoints are served over HTTP
// (GET /metrics, /healthz, /readyz, /statusz, /debug/pprof/*).
// Readiness reflects the EPP listener accepting connections; on
// SIGINT/SIGTERM it flips to 503, the drain window elapses, and only
// then does the listener close.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/eppserver"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/obs/trace"
	"repro/internal/registry"
)

func main() {
	addr := flag.String("addr", ":7700", "listen address")
	name := flag.String("registry", "Verisign", "registry operator name")
	tlds := flag.String("tlds", "com,net,edu,gov", "comma-separated TLDs in the repository")
	date := flag.String("date", "2020-09-15", "server clock date (YYYY-MM-DD)")
	metricsAddr := flag.String("metrics", "", "HTTP address for /metrics and /debug/pprof (empty = disabled)")
	drain := flag.Duration("drain", time.Second, "how long readiness reports 503 before the listener closes on shutdown")
	version := flag.Bool("version", false, "print build information and exit")
	profFlags := daemon.RegisterProfFlags(flag.CommandLine)
	flag.Parse()
	app := daemon.New("eppd", *version)
	defer app.Close()
	logger, fatal := app.Log, app.Fatal
	app.StartProfiler(profFlags)

	day, err := dates.Parse(*date)
	if err != nil {
		fatal("bad -date", err)
	}
	var zones []dnsname.Name
	for _, t := range strings.Split(*tlds, ",") {
		z, err := dnsname.Parse(strings.TrimSpace(t))
		if err != nil {
			fatal("bad tld "+t, err)
		}
		zones = append(zones, z)
	}
	reg := registry.New(*name, nil, zones...)
	srv := eppserver.New(reg)
	srv.Clock = func() dates.Day { return day }
	srv.Log = logger
	srv.Obs = obs.Default
	// Recover client trace contexts from clTRIDs so command logs carry
	// the caller's trace_id.
	srv.Tracer = trace.New()

	// Readiness is "the EPP listener is accepting": pending (503) until
	// Listen succeeds below.
	listening := app.Health.Register("listener", health.Readiness, 0)
	app.StatusSection("epp", func() []daemon.KV {
		return []daemon.KV{
			{K: "registry", V: *name},
			{K: "tlds", V: *tlds},
			{K: "clock", V: day.String()},
			{K: "addr", V: *addr},
		}
	})
	metricsSrv := app.ServeObservability(*metricsAddr)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		listening.Fail(fmt.Sprintf("listen: %v", err))
		fatal("listen", err)
	}
	listening.OK()
	logger.Info("serving EPP",
		"registry", *name, "tlds", *tlds, "addr", ln.Addr().String(), "clock", day.String())

	ctx, stop := daemon.SignalContext()
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			fatal("serving", err)
		}
	case <-ctx.Done():
		stop()
		logger.Info("shutting down", "reason", "signal")
		app.BeginShutdown(*drain)
		listening.Fail("listener closing")
		if err := srv.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			logger.Error("close", "err", err)
		}
	}
	daemon.Shutdown(metricsSrv, 5*time.Second)
	logger.Info("stopped")
}
