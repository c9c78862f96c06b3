// Command dzdbcoord is the cluster control plane: it fronts a fleet of
// dzdbd shard processes (each started with -shard-id/-shard-count over
// the same archive) and serves the combined /v1 surface on one address.
//
// Usage:
//
//	dzdbd -addr :8054 -load dataset.dzdb -shard-id 0 -shard-count 2 &
//	dzdbd -addr :8055 -load dataset.dzdb -shard-id 1 -shard-count 2 &
//	dzdbcoord -addr :8053 -shards http://127.0.0.1:8054,http://127.0.0.1:8055
//
// Then query the coordinator exactly like a single dzdbd:
//
//	curl http://localhost:8053/v1/stats
//	curl http://localhost:8053/v1/domains/whitecounty.net      # routed to the owning shard
//	curl http://localhost:8053/v1/nameservers/ns2.internetemc.com   # scatter-gathered
//	curl http://localhost:8053/v1/deltas                       # merged, totally ordered
//	curl http://localhost:8053/v1/cluster/shards               # fleet introspection
//	curl http://localhost:8053/readyz                          # 503 while any shard is down
//
// The coordinator heartbeats every shard at -heartbeat, admits the
// fleet once all shards are ready on a consistent partition config,
// and re-syncs its merged state whenever any shard adopts a new epoch.
// It serves through dzdbd's own serving layer keyed by that fleet
// epoch: ETags with 304, the response cache and gzip, on every route,
// whenever the fleet is settled on its last sync. Losing a shard flips
// readiness to 503 and marks fleet-wide answers with "partial": true,
// served live; the shard is re-admitted automatically when its
// heartbeats recover.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/daemon"
)

func main() {
	addr := flag.String("addr", ":8053", "HTTP listen address")
	shards := flag.String("shards", "", "comma-separated shard base URLs, in shard-id order (required)")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "shard membership poll interval")
	drain := flag.Duration("drain", time.Second, "how long readiness reports 503 before the listener closes on shutdown")
	version := flag.Bool("version", false, "print build information and exit")
	profFlags := daemon.RegisterProfFlags(flag.CommandLine)
	flag.Parse()
	app := daemon.New("dzdbcoord", *version)
	defer app.Close()
	logger, fatal := app.Log, app.Fatal
	app.StartProfiler(profFlags)

	var urls []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	coord, err := cluster.NewWithRegistry(cluster.Config{
		Shards:    urls,
		Heartbeat: *heartbeat,
		Log:       logger,
	}, app.Reg)
	if err != nil {
		fatal("configuring cluster", err)
	}
	coord.RegisterHealth(app.Health)

	mux := app.ObservabilityMux()
	mux.Handle("/", coord)

	app.StatusSection("cluster", func() []daemon.KV {
		cs := coord.CacheStats()
		rows := []daemon.KV{
			{K: "fleet_epoch", V: fmt.Sprintf("%d", coord.FleetEpoch())},
			{K: "shards", V: fmt.Sprintf("%d", len(urls))},
			{K: "cache_hit_ratio", V: fmt.Sprintf("%.3f", cs.HitRatio())},
			{K: "cache_bytes", V: fmt.Sprintf("%d of %d", cs.Bytes, cs.Capacity)},
		}
		for _, sh := range coord.Shards() {
			state := "down"
			switch {
			case sh.Up && sh.Ready:
				state = fmt.Sprintf("ready (epoch %d, %d domains, %d zones, close %s)",
					sh.Epoch, sh.Domains, sh.Zones, sh.CloseDay)
			case sh.Up:
				state = "up, not ready: " + sh.Err
			case sh.Err != "":
				state = "down: " + sh.Err
			}
			rows = append(rows, daemon.KV{K: fmt.Sprintf("shard%d %s", sh.ID, sh.URL), V: state})
		}
		return rows
	})

	srv := daemon.HTTPServer(*addr, mux)
	ctx, stop := daemon.SignalContext()
	defer stop()

	loopCtx, stopLoop := context.WithCancel(context.Background())
	defer stopLoop()
	go func() { _ = coord.Run(loopCtx) }()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "shards", len(urls))

	select {
	case err := <-errc:
		fatal("serving", err)
	case <-ctx.Done():
		stop()
		app.BeginShutdown(*drain)
		stopLoop()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("shutdown", err)
		}
		logger.Info("stopped")
	}
}
