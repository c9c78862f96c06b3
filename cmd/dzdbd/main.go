// Command dzdbd serves the longitudinal zone database over HTTP — the
// study's equivalent of CAIDA's DZDB research-access API. The database
// comes either from a fresh simulation or from the segment file
// `riskybiz -save-data` writes (PREFIX.dzdb).
//
// Usage:
//
//	dzdbd [-addr :8053] [-scale 6] [-seed 1] [-drain 2s]
//	dzdbd [-addr :8053] -load dataset.dzdb
//	dzdbd [-addr :8053] -load dataset.dzdb -data-dir /var/lib/dzdb
//
// Then:
//
//	curl http://localhost:8053/v1/stats
//	curl http://localhost:8053/v1/zones?limit=10
//	curl http://localhost:8053/v1/domains/whitecounty.net
//	curl 'http://localhost:8053/v1/nameservers/ns2.internetemc.com?limit=100'
//	curl 'http://localhost:8053/v1/zones/com/snapshot?date=2016-07-15'
//	curl http://localhost:8053/metrics            # Prometheus exposition
//	curl http://localhost:8053/healthz            # liveness probe
//	curl http://localhost:8053/readyz             # readiness probe
//	curl http://localhost:8053/statusz            # human-readable status
//	go tool pprof http://localhost:8053/debug/pprof/profile
//	curl 'http://localhost:8053/debug/pprof/heap?seconds=30' > delta.pprof
//
// -prof-mutex-fraction/-prof-block-rate enable contention profiling
// (off by default; it taxes every lock), which lights up the /statusz
// contention table and /debug/pprof/mutex (412 profiling_disabled while
// the fraction is 0).
//
// The listener comes up immediately: probes and /statusz answer while
// the archive loads (or the world simulates) in the background, with
// /readyz reporting 503 until the store is populated and a sealed epoch
// is adoptable. On SIGTERM readiness flips to 503 first, the process
// waits -drain for load balancers to notice, then the listener drains.
//
// With -load, SIGHUP re-reads the archive and atomically swaps it in:
// requests in flight keep the snapshot they started on, new requests see
// the new epoch, and reads never block behind the reload. The archive is
// fingerprinted first: an unchanged file is never re-ingested.
//
// With -shard-id/-shard-count, the process serves only its zone-hash
// slice of the database as one member of a dzdbcoord fleet (see
// cmd/dzdbcoord): the database is projected with FilterShard after
// build or load, and /v1/internal/shard-info reports the identity so
// the coordinator can verify the partition config.
//
// With -data-dir, sealed epochs persist in a segment store (see
// internal/zonedb/segment): every successful build or reload is sealed
// to disk, and the next boot adopts the newest sealed epoch whose source
// fingerprint still matches — warm start, no re-ingest. Corrupt or torn
// segment files are quarantined at open, reported on /statusz and the
// "segments" readiness check, and the daemon rebuilds from source.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/dzdbapi"
	"repro/internal/obs/health"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/zonedb"
	"repro/internal/zonedb/segment"
)

func main() {
	addr := flag.String("addr", ":8053", "HTTP listen address")
	scale := flag.Float64("scale", 6, "mean new registrations per day (ignored with -load)")
	seed := flag.Int64("seed", 1, "random seed (ignored with -load)")
	load := flag.String("load", "", "load the zone DB from a segment file (riskybiz -save-data's PREFIX.dzdb) instead of simulating")
	dataDir := flag.String("data-dir", "", "segment-store directory; sealed epochs persist here and warm-boot the next start")
	drain := flag.Duration("drain", time.Second, "how long readiness reports 503 before the listener closes on shutdown")
	cacheSize := flag.Int("cache-size", 64, "response cache budget in MiB (0 disables body caching; ETag/304 stays on)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client token-bucket rate limit in req/s (0 disables)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent request cap; excess requests are shed with 503 (0 disables)")
	shardID := flag.Int("shard-id", 0, "this process's shard index in a dzdbcoord fleet (requires -shard-count)")
	shardCount := flag.Int("shard-count", 1, "total shards in the fleet; >1 serves only this shard's zone-hash slice")
	version := flag.Bool("version", false, "print build information and exit")
	profFlags := daemon.RegisterProfFlags(flag.CommandLine)
	flag.Parse()
	app := daemon.New("dzdbd", *version)
	defer app.Close()
	logger, fatal, reg := app.Log, app.Fatal, app.Reg
	if *shardCount < 1 || *shardID < 0 || *shardID >= *shardCount {
		fatal("validating shard flags",
			fmt.Errorf("-shard-id %d out of range for -shard-count %d", *shardID, *shardCount))
	}
	app.StartProfiler(profFlags)

	// The DB starts empty and adopts the real data once built, so the
	// listener (and the probe endpoints on it) can come up immediately.
	db := zonedb.New()
	storeCheck := app.Health.Register("store", health.Readiness, 0)
	storeCheck.Fail("loading")
	app.Health.RegisterFunc("epoch", health.Readiness, func() error {
		if !db.View().Closed() {
			return errors.New("no sealed epoch published yet")
		}
		return nil
	})

	// Open the segment store (when configured) before the listener, so
	// /statusz and the "segments" readiness check can report on it from
	// the first probe. Corruption found here is already quarantined; the
	// check stays failed until a fresh epoch seals successfully.
	var st *segment.Store
	var segCheck *health.Check
	if *dataDir != "" {
		segCheck = app.Health.Register("segments", health.Readiness, 0)
		var err error
		st, err = segment.Open(*dataDir, segment.WithObs(reg))
		if err != nil {
			logger.Error("segment store unavailable; epochs will not persist", "dir", *dataDir, "err", err)
			segCheck.Fail("open: " + err.Error())
			st = nil
		} else if q := st.Quarantined(); len(q) > 0 {
			for _, item := range q {
				logger.Warn("segment quarantined", "name", item.Name, "reason", item.Reason, "err", item.Err)
			}
			segCheck.Fail(fmt.Sprintf("%d corrupt files quarantined; awaiting a fresh seal", len(q)))
		} else {
			segCheck.OK()
		}
	}

	// curTag fingerprints the source of the epoch currently being served,
	// shared between the boot and SIGHUP goroutines.
	var tagMu sync.Mutex
	curTag := ""
	setTag := func(t string) { tagMu.Lock(); curTag = t; tagMu.Unlock() }
	getTag := func() string { tagMu.Lock(); defer tagMu.Unlock(); return curTag }

	// shardTag suffixes the source fingerprint with the partition slice,
	// so a shard's sealed segments never stand in for another shard's
	// (or for the full database) on a shared -data-dir. project reduces
	// a freshly built database to this process's slice of the zone-hash
	// partition; sealed segments are written post-projection, so a warm
	// boot adopts an already projected epoch.
	shardTag := func(tag string) string {
		if *shardCount > 1 {
			return fmt.Sprintf("%s shard=%d/%d", tag, *shardID, *shardCount)
		}
		return tag
	}
	project := func(fresh *zonedb.DB) *zonedb.DB {
		if *shardCount > 1 {
			return fresh.View().FilterShard(*shardID, *shardCount)
		}
		return fresh
	}

	api := dzdbapi.NewWithRegistry(db, reg)
	api.Log = logger
	api.SetShardIdentity(*shardID, *shardCount)
	api.SetCacheBytes(int64(*cacheSize) << 20)
	api.SetRateLimit(*rateLimit, 0)
	api.SetMaxInflight(*maxInflight)
	mux := app.ObservabilityMux()
	mux.Handle("/", api)

	// A server pinned at its concurrency cap is not ready for more
	// traffic; readiness flips so a balancer drains around it while
	// the shed path keeps answering 503+Retry-After.
	if *maxInflight > 0 {
		app.Health.RegisterFunc("overload", health.Readiness, func() error {
			ss := api.ServeStats()
			if ss.Inflight >= ss.MaxInflight {
				return fmt.Errorf("at concurrency cap (%d inflight)", ss.Inflight)
			}
			return nil
		})
	}

	// Serving SLO: 99% of v1 requests under 250ms, tracked over 5m/1h
	// burn windows across every versioned route's latency histogram.
	app.TrackSLO(
		slo.Objective{Name: "v1_latency", Target: 0.99, Threshold: 0.25},
		nil, api.LatencyHistograms(dzdbapi.V1Routes()...)...)

	app.StatusSection("store", func() []daemon.KV {
		v := db.View()
		rows := []daemon.KV{
			{K: "epoch", V: fmt.Sprintf("%d", v.Epoch())},
			{K: "sealed", V: fmt.Sprintf("%v", v.Closed())},
			{K: "zones", V: fmt.Sprintf("%d", len(v.Zones()))},
			{K: "domains", V: fmt.Sprintf("%d", v.NumDomains())},
			{K: "nameservers", V: fmt.Sprintf("%d", v.NumNameservers())},
		}
		if v.Closed() {
			rows = append(rows, daemon.KV{K: "close_day", V: v.CloseDay().String()})
		}
		if *shardCount > 1 {
			rows = append(rows, daemon.KV{K: "shard", V: fmt.Sprintf("%d of %d", *shardID, *shardCount)})
		}
		if *load != "" {
			rows = append(rows, daemon.KV{K: "archive", V: *load})
		}
		return rows
	})

	published := api.Metrics().CounterVec(dzdbapi.MetricEpochPublish, "", "how")
	hook := api.Metrics().Histogram(dzdbapi.MetricPublishHookSeconds, "", nil)
	app.StatusSection("serving", func() []daemon.KV {
		cs := api.CacheStats()
		ss := api.ServeStats()
		hookMean := 0.0
		if n := hook.Count(); n > 0 {
			hookMean = 1e3 * hook.Sum() / float64(n)
		}
		return []daemon.KV{
			{K: "epochs_published", V: fmt.Sprintf("%d advanced, %d rebuilt (publish hook mean %.2f ms)",
				published.With("advance").Value(), published.With("rebuild").Value(), hookMean)},
			{K: "cache_entries", V: fmt.Sprintf("%d", cs.Entries)},
			{K: "cache_bytes", V: fmt.Sprintf("%d of %d", cs.Bytes, cs.Capacity)},
			{K: "cache_hit_ratio", V: fmt.Sprintf("%.3f", cs.HitRatio())},
			{K: "cache_epoch", V: fmt.Sprintf("%d", cs.Epoch)},
			{K: "inflight", V: fmt.Sprintf("%d (cap %d)", ss.Inflight, ss.MaxInflight)},
			{K: "push_streams", V: fmt.Sprintf("%d", ss.ActiveStreams)},
			{K: "shed_rate_limited", V: fmt.Sprintf("%d", ss.RateLimited)},
			{K: "shed_overloaded", V: fmt.Sprintf("%d", ss.Overloaded)},
		}
	})

	if st != nil {
		app.StatusSection("segments", func() []daemon.KV {
			segs := st.Segments()
			rows := []daemon.KV{
				{K: "dir", V: st.Dir()},
				{K: "sealed", V: fmt.Sprintf("%d", len(segs))},
			}
			if info, ok := st.Latest(); ok {
				rows = append(rows,
					daemon.KV{K: "latest", V: fmt.Sprintf("%s (seq %d, close %s)", info.Name, info.Seq, info.CloseDay)},
					daemon.KV{K: "source", V: info.SourceTag})
			}
			for _, q := range st.Quarantined() {
				rows = append(rows, daemon.KV{K: "quarantined", V: fmt.Sprintf("%s (%s)", q.Name, q.Reason)})
			}
			return rows
		})
	}

	srv := daemon.HTTPServer(*addr, mux)
	ctx, stop := daemon.SignalContext()
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "ready", false)

	// Build or load the database behind the live listener; readiness
	// holds at 503 until the swap lands. With a segment store, a sealed
	// epoch whose source fingerprint still matches is adopted directly —
	// warm boot, no re-ingest — and a cold build seals its result so the
	// next boot is warm.
	go func() {
		tag, err := sourceTag(*load, *scale, *seed)
		if err != nil {
			storeCheck.Fail(err.Error())
			fatal("fingerprinting source", err)
		}
		tag = shardTag(tag)
		fresh := loadSealed(logger, st, tag)
		warm := fresh != nil
		if !warm {
			fresh, err = buildDB(logger, *load, *scale, *seed)
			if err != nil {
				storeCheck.Fail(err.Error())
				fatal("building database", err)
			}
			fresh = project(fresh)
		}
		db.Adopt(fresh)
		setTag(tag)
		storeCheck.OK()
		v := db.View()
		logger.Info("store ready", "warm", warm,
			"domains", v.NumDomains(), "nameservers", v.NumNameservers(),
			"epoch", int(v.Epoch()))
		if !warm {
			sealEpoch(logger, st, segCheck, v, tag)
		} else if segCheck != nil {
			segCheck.OK()
		}
	}()

	// SIGHUP re-reads the archive (when serving one) and Adopts it: one
	// atomic epoch flip, so reads racing the reload stay on the snapshot
	// they started with and never observe a half-loaded database. The
	// archive is fingerprinted first: an unchanged file is a no-op, and a
	// changed file whose epoch is already sealed in the segment store is
	// adopted from disk instead of re-ingested.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *load == "" {
				logger.Warn("SIGHUP ignored: serving a simulated database, not an archive")
				continue
			}
			tag, err := archiveTag(*load)
			if err != nil {
				logger.Error("reload failed: fingerprinting archive", "err", err)
				continue
			}
			tag = shardTag(tag)
			if tag == getTag() {
				logger.Info("SIGHUP: archive unchanged; keeping the current epoch", "path", *load)
				continue
			}
			if fresh := loadSealed(logger, st, tag); fresh != nil {
				db.Adopt(fresh)
				setTag(tag)
				v := db.View()
				logger.Info("archive reloaded from sealed epoch (no re-ingest)", "path", *load,
					"epoch", int(v.Epoch()),
					"domains", v.NumDomains(), "nameservers", v.NumNameservers())
				continue
			}
			fresh, err := segment.ReadFile(*load)
			if err != nil {
				logger.Error("reload failed; still serving the previous epoch", "err", err)
				continue
			}
			fresh = project(fresh)
			db.Adopt(fresh)
			setTag(tag)
			v := db.View()
			sealEpoch(logger, st, segCheck, v, tag)
			logger.Info("archive reloaded", "path", *load,
				"epoch", int(v.Epoch()),
				"domains", v.NumDomains(), "nameservers", v.NumNameservers())
		}
	}()

	select {
	case err := <-errc:
		fatal("serving", err)
	case <-ctx.Done():
		stop()
		// Readiness first, then the drain window, then the listener: a
		// probe racing shutdown sees 503 while in-flight requests finish.
		app.BeginShutdown(*drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("shutdown", err)
		}
		logger.Info("stopped")
	}
}

// buildDB produces the database to serve: an archive read from disk, or
// a freshly simulated world.
func buildDB(logger *slog.Logger, load string, scale float64, seed int64) (*zonedb.DB, error) {
	if load != "" {
		db, err := segment.ReadFile(load)
		if err != nil {
			return nil, err
		}
		logger.Info("archive loaded", "path", load,
			"domains", db.View().NumDomains(), "nameservers", db.View().NumNameservers())
		return db, nil
	}
	cfg := sim.DefaultConfig(scale)
	cfg.Seed = seed
	world, err := sim.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	logger.Info("simulating", "start", cfg.Start.String(), "end", cfg.End.String(), "scale", scale)
	if err := world.Run(); err != nil {
		return nil, err
	}
	v := world.ZoneDB().View()
	logger.Info("simulation complete", "domains", v.NumDomains(), "nameservers", v.NumNameservers())
	return world.ZoneDB(), nil
}

// sourceTag fingerprints the configured data source. Epochs sealed under
// the same tag hold the same facts, so a matching tag means a sealed
// segment can stand in for a fresh ingest.
func sourceTag(load string, scale float64, seed int64) (string, error) {
	if load == "" {
		return fmt.Sprintf("sim seed=%d scale=%g", seed, scale), nil
	}
	return archiveTag(load)
}

// archiveTag fingerprints an archive file by checksum and length —
// cheaper than an ingest by orders of magnitude, and enough to recognise
// an unchanged source.
func archiveTag(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	n, err := io.Copy(h, f)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("archive crc32c:%08x size:%d", h.Sum32(), n), nil
}

// loadSealed adopts the newest sealed epoch when its source fingerprint
// matches the configured source. It returns nil when the store is
// absent, empty, stale, or corrupt — any of which mean a cold build.
// Verification failure quarantines the segment inside Load.
func loadSealed(logger *slog.Logger, st *segment.Store, tag string) *zonedb.DB {
	if st == nil {
		return nil
	}
	info, ok := st.Latest()
	if !ok {
		return nil
	}
	if info.SourceTag != tag {
		logger.Info("sealed epoch is stale; ingesting from source",
			"segment", info.Name, "sealed", info.SourceTag, "want", tag)
		return nil
	}
	start := time.Now()
	fresh, err := st.Load(info)
	if err != nil {
		logger.Error("sealed epoch failed verification; ingesting from source",
			"segment", info.Name, "err", err)
		return nil
	}
	logger.Info("adopted sealed epoch", "segment", info.Name,
		"close_day", info.CloseDay.String(),
		"elapsed", time.Since(start).Round(time.Millisecond).String())
	return fresh
}

// sealEpoch persists the just-adopted epoch. A seal failure is
// survivable — the daemon keeps serving from memory — but the segments
// readiness check reports it so operators know restarts will be cold.
func sealEpoch(logger *slog.Logger, st *segment.Store, segCheck *health.Check, v *zonedb.View, tag string) {
	if st == nil {
		return
	}
	info, err := st.Seal(v, tag)
	if err != nil {
		logger.Error("sealing epoch failed; this epoch will not survive a restart", "err", err)
		if segCheck != nil {
			segCheck.Fail("seal: " + err.Error())
		}
		return
	}
	if segCheck != nil {
		segCheck.OK()
	}
	logger.Info("epoch sealed", "segment", info.Name, "seq", info.Seq, "bytes", info.Size)
}
