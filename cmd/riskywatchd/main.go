// Command riskywatchd is the streaming counterpart of riskybiz -data: it
// runs zone history forward one day at a time and raises an alert the
// day a sacrificial nameserver appears, is retracted, or gets hijacked,
// instead of re-running batch detection over the whole archive.
//
// It consumes per-day zone deltas from one of two sources:
//
//	riskywatchd -archive PREFIX            # PREFIX.dzdb (+ PREFIX.whois), replayed once
//	riskywatchd -feed http://host:8053     # a dzdbd /v1/deltas feed, long-polled
//
// An archive is replayed from the engine's position to its last day,
// and then the process exits. To follow a history that grows, serve it
// with dzdbd -load (SIGHUP makes dzdbd re-read a rewritten file) and
// follow that with -feed; with -once a follower exits after its first
// full catch-up.
//
// Alerts are emitted as JSON Lines on stdout or -alerts FILE. The engine
// state checkpoints to -checkpoint FILE every minute while applying and
// at exit, so a restarted watcher resumes where it left off without
// replaying history (and without re-emitting old alerts — the alert
// sequence number is part of the checkpoint).
//
// Usage:
//
//	riskybiz -scale 6 -save-data dataset
//	riskywatchd -archive dataset -alerts alerts.jsonl -checkpoint watch.ckpt
//	riskywatchd -feed http://localhost:8053 -whois dataset.whois -metrics :8054
//
// With -metrics, feed lag, checkpoint age, applied-day and per-class
// alert counters are served on GET /metrics alongside /debug/pprof,
// /healthz, /readyz, and the human-readable /statusz. Readiness means
// "alerting usefully right now": the feed (or archive) is reachable,
// lag is within two days, and the checkpoint is younger than five
// minutes — a watcher that is silently behind is missed hijack windows,
// so it reports not-ready rather than limping quietly.
// The lag gauge updates on every pass (the archive replay, or a
// long-poll answered, empty pages included), so a stalled feed shows as
// growing lag instead of a frozen gauge.
//
// The process shuts down gracefully on SIGINT/SIGTERM, and after an
// archive replay: readiness flips to 503 first, the -drain window
// elapses when -metrics serves probes (with no listener there is none to
// wait for), and a final checkpoint is written before exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/dates"
	"repro/internal/dzdbapi"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/watch"
	"repro/internal/whois"
	"repro/internal/zonedb/delta"
	"repro/internal/zonedb/segment"
)

// config is what the flags select.
type config struct {
	archive, feed   string
	whois, alerts   string
	checkpoint      string
	metrics         string
	once            bool
	feedWait, drain time.Duration
}

func main() {
	var c config
	flag.StringVar(&c.archive, "archive", "", "riskybiz -save-data prefix (segment file PREFIX.dzdb, PREFIX.whois): replayed once, then the process exits")
	flag.StringVar(&c.feed, "feed", "", "base URL of a dzdbd /v1/deltas feed to follow")
	flag.StringVar(&c.whois, "whois", "", "WHOIS archive for registrar attribution (default PREFIX.whois in archive mode)")
	flag.StringVar(&c.alerts, "alerts", "-", "JSONL alert sink (\"-\" = stdout)")
	flag.StringVar(&c.checkpoint, "checkpoint", "", "checkpoint file: restored at start when present, rewritten on interval and at exit")
	flag.BoolVar(&c.once, "once", false, "with -feed, exit after the first full catch-up instead of following")
	flag.StringVar(&c.metrics, "metrics", "", "HTTP address for /metrics and /debug/pprof (empty = disabled)")
	flag.DurationVar(&c.feedWait, "feed-wait", 30*time.Second, "server-side hold per long-poll request (at most the server's 1m cap)")
	flag.DurationVar(&c.drain, "drain", time.Second, "how long readiness reports 503 on -metrics before shutdown proceeds (none without -metrics)")
	version := flag.Bool("version", false, "print build information and exit")
	profFlags := daemon.RegisterProfFlags(flag.CommandLine)
	flag.Parse()

	app := daemon.New("riskywatchd", *version)
	defer app.Close()
	if (c.archive == "") == (c.feed == "") {
		app.Fatal("flags", errors.New("exactly one of -archive or -feed is required"))
	}
	if c.once && c.archive != "" {
		app.Fatal("flags", errors.New("-once applies to -feed only: -archive always exits after one replay"))
	}
	if c.feedWait <= 0 {
		app.Fatal("flags", fmt.Errorf("-feed-wait must be positive (got %s)", c.feedWait))
	}
	app.StartProfiler(profFlags)
	ctx, stop := daemon.SignalContext()
	defer stop()
	if err := run(ctx, app, c); err != nil {
		app.Fatal("riskywatchd", err)
	}
}

// run restores the checkpoint, replays the archive or follows the feed
// until it is done or ctx is, then drains and writes the final
// checkpoint. A cancelled ctx is a clean shutdown, not an error.
func run(ctx context.Context, app *daemon.App, c config) error {
	park := time.Duration(0)
	if c.feed != "" {
		park = min(c.feedWait, dzdbapi.MaxLongPollWait)
	}
	w := &watcher{
		app:      app,
		ckptPath: c.checkpoint,

		lag:     app.Reg.Gauge("watch_feed_lag_days", "Days between the feed's close day and the last day applied."),
		ckptAge: app.Reg.Gauge("watch_checkpoint_age_seconds", "Seconds since the last checkpoint was written."),
		applied: app.Reg.Counter("watch_days_applied_total", "Days of zone deltas applied to the watch engine."),
		alerts:  app.Reg.CounterVec("watch_alerts_total", "Alerts emitted, by class.", "type"),
	}
	w.lastCkpt.Store(time.Now().UnixNano())
	w.closeDay.Store(int64(dates.None))
	w.lastDay.Store(int64(dates.None))

	// Readiness: the source must be answering (TTL'd — a wedged poll
	// loop goes stale and flips /readyz without ever reporting an
	// error), the engine must be within maxLagDays of the feed's
	// close, and the checkpoint must be young enough to bound replay
	// after a crash.
	w.feedCheck = app.Health.Register("feed", feedTTL(park))
	app.Health.RegisterFunc("lag", func() error {
		if lag := w.lag.Value(); lag > maxLagDays {
			return fmt.Errorf("%d days behind the feed (max %d)", lag, maxLagDays)
		}
		return nil
	})
	if c.checkpoint != "" {
		app.Health.RegisterFunc("checkpoint", func() error {
			age := time.Since(time.Unix(0, w.lastCkpt.Load()))
			if age > maxCheckpointAge {
				return fmt.Errorf("checkpoint %s old (max %s)", age.Round(time.Second), maxCheckpointAge)
			}
			return nil
		})
	}

	app.StatusSection("watch", func() []daemon.KV {
		rows := []daemon.KV{
			{K: "last_day", V: dates.Day(w.lastDay.Load()).String()},
			{K: "alerts_emitted", V: fmt.Sprintf("%d", w.seq.Load())},
			{K: "feed_lag_days", V: fmt.Sprintf("%d", w.lag.Value())},
		}
		if cd := dates.Day(w.closeDay.Load()); cd != dates.None {
			rows = append(rows, daemon.KV{K: "feed_close_day", V: cd.String()})
		}
		if w.breaker != nil {
			rows = append(rows, daemon.KV{K: "feed_breaker", V: w.breaker.State().String()})
		}
		if w.ckptPath != "" {
			rows = append(rows, daemon.KV{K: "checkpoint_age", V: time.Since(time.Unix(0, w.lastCkpt.Load())).Round(time.Second).String()})
		}
		return rows
	})

	if c.alerts == "" || c.alerts == "-" {
		w.enc = json.NewEncoder(os.Stdout)
	} else {
		f, err := os.OpenFile(c.alerts, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening alert sink: %w", err)
		}
		defer f.Close()
		w.enc = json.NewEncoder(f)
	}

	wh, err := loadWHOIS(c.whois, c.archive)
	if err != nil {
		return fmt.Errorf("loading WHOIS archive: %w", err)
	}
	dir := sim.StandardDirectory()

	if c.checkpoint != "" {
		if f, err := os.Open(c.checkpoint); err == nil {
			w.engine, err = watch.Restore(f, wh, dir)
			f.Close()
			if err != nil {
				return fmt.Errorf("restoring checkpoint: %w", err)
			}
			app.Log.Info("checkpoint restored", "path", c.checkpoint,
				"last_day", w.engine.LastDay().String(), "alerts", int(w.engine.Seq()))
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("opening checkpoint: %w", err)
		}
	}
	if w.engine == nil {
		w.engine = watch.New(wh, dir)
	}
	w.syncMirror()

	metricsSrv := app.ServeObservability(c.metrics)

	// Age the checkpoint gauge in the background so /metrics moves even
	// between applies.
	ageDone := make(chan struct{})
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-ageDone:
				return
			case <-t.C:
				w.ckptAge.Set(int64(time.Since(time.Unix(0, w.lastCkpt.Load())).Seconds()))
			}
		}
	}()

	if c.archive != "" {
		err = w.runArchive(ctx, c.archive)
	} else {
		err = w.runFeed(ctx, c.feed, c.feedWait, c.once)
	}
	close(ageDone)
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	if err == nil {
		app.Log.Info("shutting down", "last_day", w.engine.LastDay().String())
	} else {
		err = fmt.Errorf("watch loop failed: %w", err)
	}
	// Readiness flips before the final checkpoint and metrics teardown,
	// so probes racing shutdown see 503 while the endpoint still answers.
	// Without a listener no probe can see it, and there is no window to
	// wait out.
	drain := c.drain
	if metricsSrv == nil {
		drain = 0
	}
	app.BeginShutdown(drain)
	if cerr := w.checkpoint(true); cerr != nil {
		app.Log.Error("final checkpoint", "err", cerr)
	}
	daemon.Shutdown(metricsSrv, 5*time.Second)
	app.Log.Info("stopped")
	return err
}

// The watcher checkpoints every checkpointInterval while applying, and
// readiness fails once the engine trails the feed's close day by more
// than maxLagDays or the checkpoint is older than maxCheckpointAge.
const (
	checkpointInterval = time.Minute
	maxLagDays         = 2
	maxCheckpointAge   = 5 * time.Minute
)

// feedTTL is how long the feed check may go without a pass before
// /readyz calls it stale. A caught-up follower's pass is one parked
// long-poll, answered empty after park (zero in archive mode), so the
// TTL covers one park plus a 10 s margin, more than three of the
// follower's 2 s backoffs after a failed request.
func feedTTL(park time.Duration) time.Duration {
	return park + 10*time.Second
}

// loadWHOIS reads the registrar history: -whois when given, else the
// archive's PREFIX.whois, else an empty history (original-nameserver
// idioms cannot be attributed without one, so warn loudly later).
func loadWHOIS(path, prefix string) (*whois.History, error) {
	if path == "" && prefix != "" {
		path = prefix + ".whois"
		if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
			path = ""
		}
	}
	if path == "" {
		return whois.New(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return whois.ReadFrom(f)
}

type watcher struct {
	app     *daemon.App
	engine  *watch.Engine
	breaker *faults.Breaker // feed mode only

	enc *json.Encoder

	ckptPath string
	lastCkpt atomic.Int64 // unix nanos of the last checkpoint write

	// lastDay/seq/closeDay mirror engine and feed state for concurrent
	// readers (/statusz, health funcs); the engine itself is owned by the
	// apply goroutine.
	lastDay  atomic.Int64
	seq      atomic.Uint64
	closeDay atomic.Int64

	feedCheck *health.Check

	lag     *obs.Gauge
	ckptAge *obs.Gauge
	applied *obs.Counter
	alerts  *obs.CounterVec
}

// syncMirror refreshes the atomic mirrors from the engine. Call from
// the apply goroutine only.
func (w *watcher) syncMirror() {
	w.lastDay.Store(int64(w.engine.LastDay()))
	w.seq.Store(w.engine.Seq())
}

// passed records the outcome of one catch-up pass (a feed page walk or
// the archive replay): the reachability check and — the part that must
// move even when nothing new arrived — the lag gauge.
func (w *watcher) passed(last, closeDay dates.Day, err error) {
	if err != nil {
		w.feedCheck.Fail(err.Error())
		return
	}
	w.feedCheck.OK()
	if closeDay == dates.None {
		return // empty feed: nothing to lag behind
	}
	w.closeDay.Store(int64(closeDay))
	lag := int64(0)
	if last != dates.None && closeDay > last {
		lag = int64(closeDay - last)
	}
	w.lag.Set(lag)
}

// emit writes one alert to the JSONL sink.
func (w *watcher) emit(a watch.Alert) {
	w.alerts.With(a.Type).Inc()
	if err := w.enc.Encode(a); err != nil {
		w.app.Log.Error("writing alert", "err", err)
	}
}

// onApplied updates the per-day metrics, and checkpoints when the
// interval has elapsed. It runs on the apply goroutine.
func (w *watcher) onApplied(day, closeDay dates.Day) {
	w.applied.Inc()
	w.lag.Set(int64(closeDay - day))
	w.syncMirror()
	if err := w.checkpoint(false); err != nil {
		w.app.Log.Error("checkpoint", "err", err)
	}
}

// checkpoint writes the engine state durably and atomically (temp file,
// fsync, rename, directory fsync), so a crash leaves the previous
// checkpoint or the new one, never an empty file the next start cannot
// restore. Unless forced it is a no-op before the interval has elapsed.
func (w *watcher) checkpoint(force bool) error {
	if w.ckptPath == "" {
		return nil
	}
	last := time.Unix(0, w.lastCkpt.Load())
	if !force && time.Since(last) < checkpointInterval {
		return nil
	}
	if err := segment.WriteAtomic(w.ckptPath, w.engine.Save); err != nil {
		return err
	}
	w.lastCkpt.Store(time.Now().UnixNano())
	w.ckptAge.Set(0)
	return nil
}

// runFeed follows a remote /v1/deltas feed through the fault-tolerant
// client: retries absorb transient failures, the breaker stops
// hammering a down server, and the follower protocol guarantees no
// alert is lost or duplicated across either. After a failed request
// the follower backs off for its default 2 s.
func (w *watcher) runFeed(ctx context.Context, base string, wait time.Duration, once bool) error {
	w.breaker = &faults.Breaker{Name: "dzdb_feed"}
	w.breaker.Instrument(w.app.Reg)
	f := &watch.Follower{
		Client: &dzdbapi.Client{
			BaseURL: base,
			Retry:   &faults.Policy{MaxAttempts: 5},
			Breaker: w.breaker,
			Tracer:  trace.New(), // a span per request, so each carries a traceparent
		},
		Engine:    w.engine,
		OnAlert:   w.emit,
		OnApplied: func(day, closeDay dates.Day, _ int) { w.onApplied(day, closeDay) },
		OnPass:    w.passed,
		Once:      once,
		Mode:      watch.ModeLongPoll,
		Wait:      wait,
		Log:       w.app.Log,
	}
	w.app.Log.Info("following feed", "url", base, "from", w.engine.LastDay().String())
	return f.Run(ctx)
}

// runArchive replays the segment file PREFIX.dzdb through the engine
// once, from the day after the engine's position to the archive's last
// day; a restart from a current checkpoint applies nothing. The file is
// read once: to follow a history that grows, serve it with dzdbd -load
// and follow that with -feed.
func (w *watcher) runArchive(ctx context.Context, prefix string) error {
	path := prefix + ".dzdb"
	db, err := segment.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	idx, err := delta.Build(db.View())
	if err != nil {
		return fmt.Errorf("building delta index: %w", err)
	}
	w.closeDay.Store(int64(idx.Last()))
	from := idx.First()
	if last := w.engine.LastDay(); last != dates.None {
		from = last + 1
	}
	if from <= idx.Last() {
		w.app.Log.Info("replaying archive", "path", path,
			"from", from.String(), "to", idx.Last().String())
	}
	for d := from; d <= idx.Last(); d++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		alerts, err := w.engine.ApplyDay(idx.Day(d))
		if err != nil {
			return fmt.Errorf("applying %s: %w", d, err)
		}
		for _, a := range alerts {
			w.emit(a)
		}
		w.onApplied(d, idx.Last())
	}
	w.passed(w.engine.LastDay(), idx.Last(), nil)
	w.app.Log.Info("caught up", "last_day", w.engine.LastDay().String(),
		"alerts", int(w.engine.Seq()))
	return nil
}
