// Command riskywatchd is the streaming counterpart of riskybiz -data: it
// watches zone history as it grows and raises an alert the day a
// sacrificial nameserver appears, is retracted, or gets hijacked,
// instead of re-running batch detection over the whole archive.
//
// It consumes per-day zone deltas from one of two sources:
//
//	riskywatchd -archive PREFIX            # PREFIX.dzdb (+ PREFIX.whois), tailed on mtime
//	riskywatchd -feed http://host:8053     # a dzdbd /v1/deltas feed, long-polled
//
// Alerts are emitted as JSON Lines on stdout or -alerts FILE, and
// optionally POSTed to a -webhook URL. The engine state checkpoints to
// -checkpoint FILE every minute while applying and on shutdown, so a
// restarted watcher resumes where it left off without replaying history
// (and without re-emitting old alerts — the alert sequence number is
// part of the checkpoint).
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
// The lag gauge updates on every pass (an archive re-stat, or a
// long-poll answered, empty pages included), so a stalled feed shows as
// growing lag instead of a frozen gauge.
//
// The process shuts down gracefully on SIGINT/SIGTERM: readiness flips
// to 503 first, the -drain window elapses, and a final checkpoint is
// written before exit.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
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

func main() {
	archive := flag.String("archive", "", "riskybiz -save-data prefix (segment file PREFIX.dzdb, PREFIX.whois); replayed, then tailed for rewrites")
	feed := flag.String("feed", "", "base URL of a dzdbd /v1/deltas feed to follow")
	whoisPath := flag.String("whois", "", "WHOIS archive for registrar attribution (default PREFIX.whois in archive mode)")
	alertsPath := flag.String("alerts", "-", "JSONL alert sink (\"-\" = stdout)")
	webhook := flag.String("webhook", "", "POST each alert as JSON to this URL")
	ckptPath := flag.String("checkpoint", "", "checkpoint file: restored at start when present, rewritten on interval and shutdown")
	poll := flag.Duration("poll", 2*time.Second, "archive re-stat cadence; with -feed, the backoff after a failed request")
	once := flag.Bool("once", false, "exit after the first full catch-up instead of tailing")
	metricsAddr := flag.String("metrics", "", "HTTP address for /metrics and /debug/pprof (empty = disabled)")
	feedWait := flag.Duration("feed-wait", 30*time.Second, "server-side hold per long-poll request (at most the server's 1m cap)")
	drain := flag.Duration("drain", time.Second, "how long readiness reports 503 before shutdown proceeds")
	version := flag.Bool("version", false, "print build information and exit")
	profFlags := daemon.RegisterProfFlags(flag.CommandLine)
	flag.Parse()

	app := daemon.New("riskywatchd", *version)
	defer app.Close()
	if (*archive == "") == (*feed == "") {
		app.Fatal("flags", errors.New("exactly one of -archive or -feed is required"))
	}
	if *feedWait <= 0 {
		app.Fatal("flags", fmt.Errorf("-feed-wait must be positive (got %s)", *feedWait))
	}
	app.StartProfiler(profFlags)

	w := &watcher{
		app:      app,
		tracer:   trace.New(),
		webhook:  *webhook,
		hc:       &http.Client{Timeout: 10 * time.Second},
		ckptPath: *ckptPath,
		feedWait: *feedWait,

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
	park := time.Duration(0)
	if *feed != "" {
		park = min(*feedWait, dzdbapi.MaxLongPollWait)
	}
	w.feedCheck = app.Health.Register("feed", feedTTL(*poll, park))
	app.Health.RegisterFunc("lag", func() error {
		if lag := w.lag.Value(); lag > maxLagDays {
			return fmt.Errorf("%d days behind the feed (max %d)", lag, maxLagDays)
		}
		return nil
	})
	if *ckptPath != "" {
		app.Health.RegisterFunc("checkpoint", func() error {
			age := time.Since(time.Unix(0, w.lastCkpt.Load()))
			if age > maxCheckpointAge {
				return fmt.Errorf("checkpoint %s old (max %s)", age.Round(time.Second), maxCheckpointAge)
			}
			return nil
		})
	}

	source := *feed
	if source == "" {
		source = *archive + ".dzdb"
	}
	app.StatusSection("watch", func() []daemon.KV {
		rows := []daemon.KV{
			{K: "source", V: source},
			{K: "last_day", V: w.engineLastDay()},
			{K: "alerts_emitted", V: fmt.Sprintf("%d", w.engineSeq())},
			{K: "feed_lag_days", V: fmt.Sprintf("%d", w.lag.Value())},
		}
		if cd := dates.Day(w.closeDay.Load()); cd != dates.None {
			rows = append(rows, daemon.KV{K: "feed_close_day", V: cd.String()})
		}
		if w.breaker != nil {
			rows = append(rows, daemon.KV{K: "feed_breaker", V: w.breaker.State().String()})
		}
		if w.ckptPath != "" {
			rows = append(rows,
				daemon.KV{K: "checkpoint", V: w.ckptPath},
				daemon.KV{K: "checkpoint_age", V: time.Since(time.Unix(0, w.lastCkpt.Load())).Round(time.Second).String()})
		}
		return rows
	})

	if *alertsPath == "" || *alertsPath == "-" {
		w.enc = json.NewEncoder(os.Stdout)
	} else {
		f, err := os.OpenFile(*alertsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			app.Fatal("opening alert sink", err)
		}
		defer f.Close()
		w.enc = json.NewEncoder(f)
	}

	wh, err := loadWHOIS(*whoisPath, *archive)
	if err != nil {
		app.Fatal("loading WHOIS archive", err)
	}
	dir := sim.StandardDirectory()

	if *ckptPath != "" {
		if f, err := os.Open(*ckptPath); err == nil {
			w.engine, err = watch.Restore(f, wh, dir)
			f.Close()
			if err != nil {
				app.Fatal("restoring checkpoint", err)
			}
			app.Log.Info("checkpoint restored", "path", *ckptPath,
				"last_day", w.engine.LastDay().String(), "alerts", int(w.engine.Seq()))
		} else if !errors.Is(err, os.ErrNotExist) {
			app.Fatal("opening checkpoint", err)
		}
	}
	if w.engine == nil {
		w.engine = watch.New(wh, dir)
	}
	w.syncMirror()

	metricsSrv := app.ServeObservability(*metricsAddr)
	ctx, stop := daemon.SignalContext()
	defer stop()

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

	if *archive != "" {
		err = w.runArchive(ctx, *archive, *poll, *once)
	} else {
		err = w.runFeed(ctx, *feed, *poll, *once)
	}
	close(ageDone)
	switch {
	case err == nil || errors.Is(err, context.Canceled):
		app.Log.Info("shutting down", "last_day", w.engine.LastDay().String())
	default:
		app.Log.Error("watch loop failed", "err", err)
		defer os.Exit(1)
	}
	// Readiness flips before the final checkpoint and metrics teardown,
	// so probes racing shutdown see 503 while the endpoint still answers.
	app.BeginShutdown(*drain)
	if cerr := w.checkpoint(true); cerr != nil {
		app.Log.Error("final checkpoint", "err", cerr)
	}
	daemon.Shutdown(metricsSrv, 5*time.Second)
	app.Log.Info("stopped")
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
// TTL covers one park plus a margin of three poll intervals, at least
// 10 s.
func feedTTL(poll, park time.Duration) time.Duration {
	return park + max(3*poll, 10*time.Second)
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
	tracer  *trace.Tracer
	breaker *faults.Breaker // feed mode only

	enc     *json.Encoder
	webhook string
	hc      *http.Client

	ckptPath string
	lastCkpt atomic.Int64  // unix nanos of the last checkpoint write
	feedWait time.Duration // long-poll hold

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

// engineLastDay renders the mirrored engine position.
func (w *watcher) engineLastDay() string {
	return dates.Day(w.lastDay.Load()).String()
}

// engineSeq returns the mirrored alert sequence number.
func (w *watcher) engineSeq() uint64 { return w.seq.Load() }

// syncMirror refreshes the atomic mirrors from the engine. Call from
// the apply goroutine only.
func (w *watcher) syncMirror() {
	w.lastDay.Store(int64(w.engine.LastDay()))
	w.seq.Store(w.engine.Seq())
}

// passed records the outcome of one catch-up pass (feed page walk or
// archive re-stat): the reachability check and — the part that must
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

// emit writes one alert to every sink.
func (w *watcher) emit(a watch.Alert) {
	w.alerts.With(a.Type).Inc()
	if err := w.enc.Encode(a); err != nil {
		w.app.Log.Error("writing alert", "err", err)
	}
	if w.webhook == "" {
		return
	}
	body, _ := json.Marshal(a)
	err := faults.Retry(context.Background(), faults.Policy{MaxAttempts: 3}, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.webhook, bytes.NewReader(body))
		if err != nil {
			return faults.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.hc.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			return fmt.Errorf("webhook status %s", resp.Status)
		}
		return nil
	})
	if err != nil {
		w.app.Log.Error("webhook delivery failed", "seq", int(a.Seq), "err", err)
	}
}

// onApplied updates the per-day metrics and trace, and checkpoints when
// the interval has elapsed. It runs on the apply goroutine.
func (w *watcher) onApplied(ctx context.Context, day, closeDay dates.Day, alerts int) {
	_, sp := w.tracer.Start(ctx, "watch.apply_day")
	sp.SetAttr("day", day.String())
	sp.SetAttrInt("alerts", alerts)
	sp.End()
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
// alert is lost or duplicated across either.
func (w *watcher) runFeed(ctx context.Context, base string, poll time.Duration, once bool) error {
	w.breaker = &faults.Breaker{Name: "dzdb_feed"}
	w.breaker.Instrument(w.app.Reg)
	f := &watch.Follower{
		Client: &dzdbapi.Client{
			BaseURL: base,
			Retry:   &faults.Policy{MaxAttempts: 5},
			Breaker: w.breaker,
			Tracer:  w.tracer,
		},
		Engine:    w.engine,
		OnAlert:   w.emit,
		OnApplied: func(day, closeDay dates.Day, n int) { w.onApplied(ctx, day, closeDay, n) },
		OnPass:    w.passed,
		Poll:      poll,
		Once:      once,
		Mode:      watch.ModeLongPoll,
		Wait:      w.feedWait,
		Log:       w.app.Log,
	}
	w.app.Log.Info("following feed", "url", base, "from", w.engine.LastDay().String())
	return f.Run(ctx)
}

// runArchive replays the segment file PREFIX.dzdb through the engine,
// then tails it: when it is replaced (riskybiz -save-data writing a later
// world; the replace is atomic, so a reload never meets a half-written
// file) the new epoch is loaded and only the days past the engine's
// position are applied.
func (w *watcher) runArchive(ctx context.Context, prefix string, poll time.Duration, once bool) error {
	path := prefix + ".dzdb"
	var lastMod time.Time
	for {
		st, err := os.Stat(path)
		if err != nil {
			w.passed(w.engine.LastDay(), dates.None, err)
			return err
		}
		if !st.ModTime().Equal(lastMod) {
			lastMod = st.ModTime()
			if err := w.replayArchive(ctx, path); err != nil {
				return err
			}
		}
		// Every poll — replay or no-op — refreshes the reachability
		// check and the lag gauge against the last seen close day.
		w.passed(w.engine.LastDay(), dates.Day(w.closeDay.Load()), nil)
		if once {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

func (w *watcher) replayArchive(ctx context.Context, path string) error {
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
	if from > idx.Last() {
		return nil // nothing new in this epoch
	}
	w.app.Log.Info("replaying archive", "path", path,
		"from", from.String(), "to", idx.Last().String())
	for d := from; d <= idx.Last(); d++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		alerts, err := w.engine.ApplyDay(idx.Day(d))
		if err != nil {
			return fmt.Errorf("applying %s: %w", d, err)
		}
		for _, a := range alerts {
			w.emit(a)
		}
		w.onApplied(ctx, d, idx.Last(), len(alerts))
	}
	w.app.Log.Info("caught up", "last_day", w.engine.LastDay().String(),
		"alerts", int(w.engine.Seq()))
	return nil
}
