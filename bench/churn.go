package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/dates"
	"repro/internal/dzdbapi"
	"repro/internal/obs/trace"
	"repro/internal/registry"
	"repro/internal/watch"
	"repro/internal/whois"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// churnState is serve-churn after set-up: a live database replayed to
// day d0 through the event API, served by dzdbapi, tailed by a long-poll
// follower, its readers warmed up.
type churnState struct {
	idx   *delta.Index // the whole history of world-serve, the writer's script
	whois *whois.History
	dir   *registry.Directory
	d0    dates.Day

	live *zonedb.DB
	api  *dzdbapi.Server
	srv  *httptest.Server
	pop  *population

	// The writer's clock round the server's publish hook: one hook is
	// registered ahead of dzdbapi.New and one behind it, and hooks run in
	// registration order on the goroutine that called Close.
	closeCtx  context.Context
	hookSpan  *trace.Span
	hookStart time.Time
	hookTook  time.Duration

	follower   *watch.Follower
	stopFollow context.CancelFunc
	followDone chan error
	applied    chan dates.Day // one send per day the follower applied
	alertMu    sync.Mutex
	alerts     []watch.Alert

	gens    []*reqGen
	targets []*httpTarget
}

// applyDay plays one day of the history into db through the event API.
func applyDay(db *zonedb.DB, dd *delta.DayDelta) {
	day := dd.Day
	for _, e := range dd.EdgesRemoved {
		db.DelegationRemoved(e.Domain.TLD(), e.Domain, e.NS, day)
	}
	for _, d := range dd.DomainsRemoved {
		db.DomainRemoved(d.TLD(), d, day)
	}
	for _, h := range dd.GlueRemoved {
		db.GlueRemoved(h.TLD(), h, day)
	}
	for _, d := range dd.DomainsAdded {
		db.DomainAdded(d.TLD(), d, day)
	}
	for _, h := range dd.GlueAdded {
		db.GlueAdded(h.TLD(), h, day)
	}
	for _, e := range dd.EdgesAdded {
		db.DelegationAdded(e.Domain.TLD(), e.Domain, e.NS, day)
	}
}

func setupChurn(e *env) (*churnState, error) {
	w, err := buildWorld(e.sz.serveScale, e.seed)
	if err != nil {
		return nil, err
	}
	s := &churnState{whois: w.WHOIS(), dir: w.Directory(), closeCtx: e.ctx,
		applied: make(chan dates.Day, 1), followDone: make(chan error, 1)}
	if s.idx, err = delta.Build(w.ZoneDB().View()); err != nil {
		return nil, err
	}
	s.d0 = s.idx.Last() - dates.Day(e.sz.churnBack)
	if s.d0 <= s.idx.First() {
		return nil, fmt.Errorf("history of %d days is shorter than the churn window", s.idx.Last()-s.idx.First())
	}

	s.live = zonedb.New()
	eng := watch.New(s.whois, s.dir)
	for d := s.idx.First(); d <= s.d0; d++ {
		applyDay(s.live, s.idx.Day(d))
		if _, err := eng.ApplyDay(s.idx.Day(d)); err != nil {
			return nil, err
		}
	}
	s.live.OnPublish(func(*zonedb.View) {
		_, s.hookSpan = trace.Start(s.closeCtx, "dzdbapi.publish_hook")
		s.hookStart = time.Now()
	})
	s.api = dzdbapi.New(s.live)
	s.live.OnPublish(func(*zonedb.View) {
		s.hookTook = time.Since(s.hookStart)
		s.hookSpan.End()
	})
	s.live.Close(s.d0)
	s.srv = httptest.NewServer(s.api)

	// Readers draw keys over what exists at d0, so every request of the
	// window is answerable whatever day the writer has reached.
	s.pop = newPopulation(s.live.View(), e.seed)
	s.pop.first, s.pop.last = s.idx.First(), s.d0
	s.gens, s.targets = newClients(e.seed, e.clients, coldMix, s.pop, s.srv.URL)

	s.follower = &watch.Follower{
		Client: &dzdbapi.Client{BaseURL: s.srv.URL},
		Engine: eng,
		Mode:   watch.ModeLongPoll,
		Wait:   10 * time.Second,
		OnAlert: func(a watch.Alert) {
			s.alertMu.Lock()
			s.alerts = append(s.alerts, a)
			s.alertMu.Unlock()
		},
		OnApplied: func(day, _ dates.Day, _ int) { s.applied <- day },
	}
	var fctx context.Context
	fctx, s.stopFollow = context.WithCancel(e.ctx)
	go func() { s.followDone <- s.follower.Run(fctx) }()
	// Every epoch empties the cache, so there is none to fill: the warm-up
	// only opens the connections and brings the server's code paths in.
	return s, warmUp(e.sz.warmReqs/4, s.gens, s.targets)
}

func (s *churnState) teardown() {
	if s == nil || s.srv == nil {
		return
	}
	s.stopFollower()
	for _, t := range s.targets {
		t.close()
	}
	s.srv.Close()
}

// stopFollower cancels the follower and waits until it has returned;
// afterwards its engine is safe to read.
func (s *churnState) stopFollower() {
	if s.stopFollow == nil {
		return
	}
	s.stopFollow()
	s.stopFollow = nil
	for {
		select {
		case <-s.followDone:
			return
		case <-s.applied: // let a blocked OnApplied through
		}
	}
}

// epoch is the writer's timing of one published day.
type epoch struct {
	apply, close, hook, follow time.Duration
	traced                     bool
	slice                      int // the slice of the window it ran in
}

// churnSlices is how many slices the serve-churn window is cut into, 1.4
// seconds each at the declared fourteen: the stretches over which the
// host's processor accounting is read. A slice holds some fourteen epochs.
const churnSlices = serveSlices / 2

// burst is the readers' turn after one published epoch: a fixed number
// of requests per client.
type burst struct {
	took  time.Duration
	logs  []clientLog
	slice int
}

func (ep epoch) fresh() time.Duration { return ep.close + ep.follow }

// publish plays one day into the live database, closes it, and waits for
// the follower to have applied that day: one turn of the writer's closed
// loop. With a span in ctx the steps are recorded as its children.
func (s *churnState) publish(ctx context.Context, day dates.Day) (epoch, error) {
	var ep epoch
	t0 := time.Now()
	stage(ctx, "zonedb.apply_day", func(context.Context) { applyDay(s.live, s.idx.Day(day)) })
	t1 := time.Now()
	stage(ctx, "zonedb.close", func(ctx context.Context) {
		s.closeCtx = ctx
		s.live.Close(day)
	})
	t2 := time.Now()
	var err error
	stage(ctx, "watch.follow", func(context.Context) {
		timeout := time.NewTimer(30 * time.Second)
		defer timeout.Stop()
		for {
			select {
			case got := <-s.applied:
				if got == day {
					return
				}
			case ferr := <-s.followDone:
				err = fmt.Errorf("follower stopped: %v", ferr)
				s.followDone <- ferr
				return
			case <-timeout.C:
				err = fmt.Errorf("follower did not apply %s within 30s", day)
				return
			}
		}
	})
	ep.apply, ep.close, ep.hook, ep.follow = t1.Sub(t0), t2.Sub(t1), s.hookTook, time.Since(t2)
	return ep, err
}

func runServeChurn(e *env) (*result, error) {
	r := newResult()
	s, setupS, err := repeatSetup(e.sz.setupReps, func() (*churnState, error) { return setupChurn(e) }, (*churnState).teardown)
	defer s.teardown()
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setupS)
	if !e.traced {
		r.set("live_heap_mb", liveHeapMB())
	}

	// The window: the writer publishes one day and waits for the follower's
	// ack, then the readers run a burst of a fixed number of requests
	// against the epoch just published (whose cache is empty), and so on.
	// Writer and readers take turns, so no more goroutines are runnable at
	// once than the host has processors, and what is timed is the program,
	// not how the scheduler shares two processors among three loops. A
	// traced run traces every other epoch, so the two halves see the same
	// load.
	tracer := newTracer()
	var readerLogs []clientLog
	var epochs []epoch
	var bursts []burst
	var granted [churnSlices]float64
	perClient := limit{count: max(e.sz.churnBurst/len(s.gens), 1)}
	day := s.d0
	for i := 0; i < churnSlices && err == nil; i++ {
		w := startWatch()
		for day < s.idx.Last() && time.Since(w.t0) < e.window/churnSlices && err == nil {
			day++
			var ep epoch
			traced := e.traced && len(epochs)%2 == 1
			if traced {
				tracedRoot(e.ctx, tracer, func(ctx context.Context) { ep, err = s.publish(ctx, day) })
			} else {
				ep, err = s.publish(e.ctx, day)
			}
			ep.traced, ep.slice = traced, i
			epochs = append(epochs, ep)
			if err != nil {
				break
			}
			perClient.from = time.Now()
			logs := runClients(s.gens, asTargets(s.targets), perClient)
			bursts = append(bursts, burst{took: time.Since(perClient.from), logs: logs, slice: i})
			readerLogs = append(readerLogs, logs...)
		}
		_, granted[i] = w.stop()
	}
	s.stopFollower()
	if err != nil {
		return nil, err
	}

	readers := pool(readerLogs)
	r.attempted = readers.requests + len(epochs)
	r.failed = readers.failed
	r.verify("every reader request answered 200 (or 304 to a validator)", readers.err)
	r.verify("follower alerts equal an in-process replay, in order, exactly once", func() error {
		ref := watch.New(s.whois, s.dir)
		var want []watch.Alert
		for d := s.idx.First(); d <= day; d++ {
			alerts, err := ref.ApplyDay(s.idx.Day(d))
			if err != nil {
				return err
			}
			if d > s.d0 {
				want = append(want, alerts...)
			}
		}
		if !reflect.DeepEqual(s.alerts, want) && (len(s.alerts) > 0 || len(want) > 0) {
			return fmt.Errorf("follower emitted %d alerts, replay %d, or they differ", len(s.alerts), len(want))
		}
		if got := s.follower.Engine.LastDay(); got != day {
			return fmt.Errorf("follower engine at %s, last published day %s", got, day)
		}
		return nil
	}())

	// Every epoch and every burst is taken net of the processor time the
	// host took away during the slice of the window it ran in, and reported
	// as the median over epochs and over bursts.
	var fresh, rates, p50s, p99s []float64
	for _, ep := range epochs {
		fresh = append(fresh, ms(net(ep.fresh(), granted[ep.slice])))
	}
	for _, b := range bursts {
		st := sliceOf(b.logs, 0, b.took, granted[b.slice])
		rates, p50s, p99s = append(rates, st.rate), append(p50s, st.p50), append(p99s, st.p99)
	}
	readSteady := sliceStat{rate: median(rates), p50: median(p50s), p99: median(p99s)}
	if !e.traced {
		r.set("visible_ms", median(fresh))
		r.set("rate_per_s", readSteady.rate)
		return r, nil
	}
	r.set("op.p50_ms", readSteady.p50)
	r.set("tail.p99_ms", readSteady.p99)

	if err := finishTrace(e, "serve-churn", tracer, r); err != nil {
		return nil, err
	}
	var apply, closeMS, hook, noHook, follow, tracedTotal, plainTotal []float64
	for _, ep := range epochs {
		apply, closeMS, hook = append(apply, ms(ep.apply)), append(closeMS, ms(ep.close)), append(hook, ms(ep.hook))
		noHook, follow = append(noHook, ms(ep.close-ep.hook)), append(follow, ms(ep.follow))
		if total := ms(ep.apply + ep.close + ep.follow); ep.traced {
			tracedTotal = append(tracedTotal, total)
		} else {
			plainTotal = append(plainTotal, total)
		}
	}
	r.set("zonedb.apply_day_ms_p50", median(apply))
	r.set("zonedb.close_ms_p50", median(closeMS))
	r.set("zonedb.close_nohook_ms_p50", median(noHook))
	r.set("dzdbapi.publish_hook_ms_p50", median(hook))
	r.set("watch.follow_ms_p50", median(follow))
	sort.Float64s(fresh)
	r.set("watch.fresh_p50_ms", percentile(fresh, 0.50))
	r.set("watch.fresh_p90_ms", percentile(fresh, 0.90))
	r.set("churn.epochs", float64(len(epochs)))
	r.set("churn.reader_rps", readSteady.rate)
	r.set("dzdbapi.snapshot_us", readers.kindP50(kSnapshot))
	r.set("dzdbapi.cache_hit_ratio", s.api.CacheStats().HitRatio())
	if len(tracedTotal) > 0 {
		r.set("obs.trace_overhead_pct", 100*(median(tracedTotal)/median(plainTotal)-1))
	}
	// What the server pays per epoch on the feed: one index build over
	// the final view, timed after the window.
	builds := make([]float64, 3)
	var idx *delta.Index
	for i := range builds {
		t0 := time.Now()
		if idx, err = delta.Build(s.live.View()); err != nil {
			return nil, err
		}
		builds[i] = time.Since(t0).Seconds()
	}
	r.set("delta.build_s", median(builds))
	r.set("delta.days", float64(idx.Days()))
	return r, nil
}
