// Command dzdbd serves the longitudinal zone database over HTTP — the
// study's equivalent of CAIDA's DZDB research-access API. The database
// is the segment file `riskybiz -save-data` writes (PREFIX.dzdb).
//
// Usage:
//
//	riskybiz -scale 6 -seed 1 -only funnel -save-data dataset
//	dzdbd [-addr :8053] [-drain 2s] [-cache-size 64] -load dataset.dzdb
//
// Then:
//
//	curl http://localhost:8053/v1/stats
//	curl http://localhost:8053/v1/zones?limit=10
//	curl http://localhost:8053/v1/domains/whitecounty.net
//	curl 'http://localhost:8053/v1/nameservers/ns2.internetemc.com?limit=100'
//	curl 'http://localhost:8053/v1/zones/com/snapshot?date=2016-07-15'
//	curl http://localhost:8053/metrics            # Prometheus exposition
//	curl http://localhost:8053/healthz            # 200 while the process answers
//	curl http://localhost:8053/readyz             # readiness probe
//	curl http://localhost:8053/statusz            # human-readable status
//	go tool pprof http://localhost:8053/debug/pprof/profile
//	curl 'http://localhost:8053/debug/pprof/heap?seconds=30' > delta.pprof
//
// -prof-mutex-fraction/-prof-block-rate enable contention profiling
// (off by default; it taxes every lock): /debug/pprof/mutex?seconds=N
// then serves a delta profile (412 profiling_disabled while the
// fraction is 0), and /statusz [profiling] shows both rates.
//
// The listener comes up immediately: probes and /statusz answer while
// the archive loads in the background, with /readyz reporting 503 until
// the database is adopted. On SIGTERM readiness flips to 503 first, the
// process waits -drain for load balancers to notice, then the listener
// drains.
//
// SIGHUP re-reads the archive and atomically swaps it in:
// requests in flight keep the snapshot they started on, new requests see
// the new epoch, and reads never block behind the reload. The archive is
// fingerprinted first: an unchanged file is never re-read, and a file
// that fails to load leaves the previous epoch serving.
//
// With -shard-id/-shard-count, the process serves only its zone-hash
// slice of the database as one member of a dzdbcoord fleet (see
// cmd/dzdbcoord): the database is projected with FilterShard after
// load, and /v1/internal/shard-info reports the identity so
// the coordinator can verify the partition config.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/dzdbapi"
	"repro/internal/obs/slo"
	"repro/internal/zonedb"
	"repro/internal/zonedb/segment"
)

func main() {
	addr := flag.String("addr", ":8053", "HTTP listen address")
	load := flag.String("load", "", "the zone DB to serve: a segment file (riskybiz -save-data's PREFIX.dzdb); required")
	drain := flag.Duration("drain", time.Second, "how long readiness reports 503 before the listener closes on shutdown")
	cacheSize := flag.Int("cache-size", 64, "response cache budget in MiB (0 disables body caching; ETag/304 stays on)")
	shardID := flag.Int("shard-id", 0, "this process's shard index in a dzdbcoord fleet (requires -shard-count)")
	shardCount := flag.Int("shard-count", 1, "total shards in the fleet; >1 serves only this shard's zone-hash slice")
	version := flag.Bool("version", false, "print build information and exit")
	profFlags := daemon.RegisterProfFlags(flag.CommandLine)
	flag.Parse()
	app := daemon.New("dzdbd", *version)
	defer app.Close()
	logger, fatal, reg := app.Log, app.Fatal, app.Reg
	if *load == "" {
		fatal("flags", errors.New("-load is required (write one with riskybiz -save-data PREFIX)"))
	}
	if *shardCount < 1 || *shardID < 0 || *shardID >= *shardCount {
		fatal("validating shard flags",
			fmt.Errorf("-shard-id %d out of range for -shard-count %d", *shardID, *shardCount))
	}
	app.StartProfiler(profFlags)

	// The DB starts empty and adopts the real data once built, so the
	// listener (and the probe endpoints on it) can come up immediately.
	db := zonedb.New()
	storeCheck := app.Health.Register("store", 0)
	storeCheck.Fail("loading")
	app.Health.RegisterFunc("epoch", func() error {
		if !db.View().Closed() {
			return errors.New("no sealed epoch published yet")
		}
		return nil
	})
	arc := &archive{path: *load, db: db, shardID: *shardID, shardCount: *shardCount}

	api := dzdbapi.NewWithRegistry(db, reg)
	api.Log = logger
	api.SetShardIdentity(*shardID, *shardCount)
	api.SetCacheBytes(int64(*cacheSize) << 20)
	mux := app.ObservabilityMux()
	mux.Handle("/", api)

	// Serving SLO: 99% of v1 requests under 250ms, tracked over 5m/1h
	// burn windows across every versioned route's latency histogram.
	tracker := slo.NewTracker(reg, slo.Objective{Name: "v1_latency", Target: 0.99, Threshold: 0.25},
		api.LatencyHistograms(dzdbapi.V1Routes()...)...)
	tracker.Evaluate()
	tracker.Start()
	defer tracker.Stop()
	app.StatusSection("slo", func() []daemon.KV {
		rep := tracker.Report()
		verdict := "PASS"
		if !rep.Met {
			verdict = "FAIL"
		}
		return []daemon.KV{{K: rep.Objective.Name, V: verdict + " · " + rep.String()}}
	})

	app.StatusSection("store", func() []daemon.KV {
		v := db.View()
		rows := []daemon.KV{{K: "epoch", V: fmt.Sprintf("%d", v.Epoch())}}
		if v.Closed() {
			rows = append(rows, daemon.KV{K: "close_day", V: v.CloseDay().String()})
		}
		return append(rows, daemon.KV{K: "archive", V: *load})
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
			{K: "inflight", V: fmt.Sprintf("%d", ss.Inflight)},
			{K: "push_streams", V: fmt.Sprintf("%d", ss.ActiveStreams)},
		}
	})

	srv := daemon.HTTPServer(*addr, mux)
	ctx, stop := daemon.SignalContext()
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "ready", false)

	// Load the database behind the live listener; readiness holds at
	// 503 until the swap lands.
	go func() {
		if _, err := arc.reload(); err != nil {
			storeCheck.Fail(err.Error())
			fatal("loading archive", err)
		}
		storeCheck.OK()
		v := db.View()
		logger.Info("store ready", "path", *load,
			"domains", v.NumDomains(), "nameservers", v.NumNameservers(),
			"epoch", int(v.Epoch()))
	}()

	// SIGHUP re-reads the archive and Adopts it: one atomic epoch flip,
	// so reads racing the reload stay on the snapshot they started with
	// and never observe a half-loaded database.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			changed, err := arc.reload()
			switch {
			case err != nil:
				logger.Error("reload failed; still serving the previous epoch", "err", err)
			case !changed:
				logger.Info("SIGHUP: archive unchanged; keeping the current epoch", "path", *load)
			default:
				v := db.View()
				logger.Info("archive reloaded", "path", *load,
					"epoch", int(v.Epoch()),
					"domains", v.NumDomains(), "nameservers", v.NumNameservers())
			}
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

// archive is the -load file and the database it is served into. tag
// fingerprints the copy the database last adopted; mu makes the boot
// load and each SIGHUP reload run one at a time.
type archive struct {
	path                string
	db                  *zonedb.DB
	shardID, shardCount int

	mu  sync.Mutex
	tag string
}

// reload adopts the file into the database — projected to this
// process's shard slice — unless its fingerprint equals the copy last
// adopted, and reports whether it published a new epoch. On error the
// epoch being served is left as it was.
func (a *archive) reload() (bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	tag, err := archiveTag(a.path)
	if err != nil {
		return false, fmt.Errorf("fingerprinting archive: %w", err)
	}
	if tag == a.tag {
		return false, nil
	}
	fresh, err := segment.ReadFile(a.path)
	if err != nil {
		return false, fmt.Errorf("reading %s: %w", a.path, err)
	}
	if a.shardCount > 1 {
		fresh = fresh.View().FilterShard(a.shardID, a.shardCount)
	}
	a.db.Adopt(fresh)
	a.tag = tag
	return true, nil
}

// archiveTag fingerprints an archive file by checksum and length —
// cheaper than a load by orders of magnitude, and enough to recognise
// an unchanged file.
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
