package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/obs/trace"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/watch"
	"repro/internal/whois"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
	"repro/internal/zonedb/segment"
)

// historyState is world-history after set-up: the full simulated
// history sealed once into a segment store on disk.
type historyState struct {
	tmp       string
	storeDir  string
	whois     *whois.History
	dir       *registry.Directory
	excludeNS []dnsname.Name
	hash      string // archive hash of the sealed view
	sealed    segment.Info
}

func setupHistory(e *env) (*historyState, error) {
	w, err := buildWorld(e.sz.historyScale, e.seed)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(e.outDir, "history-")
	if err != nil {
		return nil, err
	}
	s := &historyState{tmp: tmp, storeDir: tmp + "/segments",
		whois: w.WHOIS(), dir: w.Directory(), excludeNS: w.Truth().AccidentNS}
	store, err := segment.Open(s.storeDir)
	if err != nil {
		return s, err
	}
	v := w.ZoneDB().View()
	if s.sealed, err = store.Seal(v, "bench"); err != nil {
		return s, err
	}
	s.hash, err = archiveHash(v)
	return s, err
}

func (s *historyState) teardown() {
	if s != nil {
		os.RemoveAll(s.tmp)
	}
}

// coldPass is what one timed pass from the sealed store produced.
type coldPass struct {
	wall    time.Duration
	granted float64 // share of the pass's processor time the host granted
	perDay  []time.Duration
	db      *zonedb.DB
	res     *detect.Result
	an      *analysis.Analysis
	idx     *delta.Index
	eng     *watch.Engine
	summary *analysis.Summary
	alerts  int
}

func (p *coldPass) net() time.Duration { return net(p.wall, p.granted) }

func (p *coldPass) release() {
	p.db, p.res, p.an, p.summary, p.idx, p.eng = nil, nil, nil, nil, nil, nil
}

// pass is the timed operation of detect-cold: segment.Open to the last
// alert of a full replay. Traced and untraced passes make the same
// calls; a span in ctx turns the stage spans on.
func (s *historyState) pass(ctx context.Context) (*coldPass, error) {
	p := &coldPass{}
	var err error
	w := startWatch()
	stage(ctx, "segment.load", func(context.Context) {
		var store *segment.Store
		if store, err = segment.Open(s.storeDir); err == nil {
			p.db, _, err = store.LoadLatest()
		}
	})
	if err != nil {
		return nil, err
	}
	stage(ctx, "detect.run", func(ctx context.Context) {
		// The detector opens spans of its own under a traced context; the
		// stage table is made of the benchmark's spans only.
		p.res = detect.NewDetector(p.db, s.whois, s.dir).RunContext(trace.ContextWithSpan(ctx, nil))
	})
	stage(ctx, "analysis.build", func(context.Context) {
		p.an = analysis.New(p.res, p.db, dates.NewRange(sim.WindowStart, sim.WindowEnd), s.excludeNS).WithWHOIS(s.whois)
		// Summarize computes every table and figure of the evaluation.
		p.summary = p.an.Summarize(sim.NotificationDay, sim.FollowupDay)
	})
	stage(ctx, "delta.build", func(context.Context) { p.idx, err = delta.Build(p.db.View()) })
	if err != nil {
		return nil, err
	}
	p.eng = watch.New(s.whois, s.dir)
	p.perDay = make([]time.Duration, 0, int(p.idx.Last()-p.idx.First())+1)
	for d := p.idx.First(); d <= p.idx.Last() && err == nil; d++ {
		stage(ctx, "watch.apply_day", func(context.Context) {
			d0 := time.Now()
			var alerts []watch.Alert
			alerts, err = p.eng.ApplyDay(p.idx.Day(d))
			p.perDay = append(p.perDay, time.Since(d0))
			p.alerts += len(alerts)
		})
	}
	p.wall, p.granted = w.stop()
	return p, err
}

func runDetectCold(e *env) (*result, error) {
	r := newResult()
	s, setupS, err := repeatSetup(e.sz.setupReps, func() (*historyState, error) { return setupHistory(e) }, (*historyState).teardown)
	defer s.teardown()
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setupS)

	tracer := newTracer()
	var plain, traced []*coldPass
	var funnelErr error
	var funnel *detect.Funnel
	record := func(p *coldPass) {
		r.attempted++
		if funnel == nil {
			funnel = &p.res.Funnel
		} else if *funnel != p.res.Funnel && funnelErr == nil {
			funnelErr = fmt.Errorf("funnel %+v, first pass %+v", p.res.Funnel, *funnel)
			r.failed++
		}
	}
	start := time.Now()
	for len(plain) == 0 || time.Since(start) < e.window {
		p, err := s.pass(e.ctx)
		if err != nil {
			return nil, err
		}
		record(p)
		plain = keepLast(plain, p)
		if e.traced {
			tracedRoot(e.ctx, tracer, func(ctx context.Context) { p, err = s.pass(ctx) })
			if err != nil {
				return nil, err
			}
			record(p)
			traced = keepLast(traced, p)
		}
	}

	// The wall of a pass is taken net of the processor time the host took
	// away during it; the median of 5,206 ApplyDay calls of some tens of
	// microseconds each does not move with stolen time and stays as timed.
	// Both are reported as the median over passes.
	var walls, dayP50, dayP99 []float64
	for _, p := range plain {
		walls = append(walls, p.net().Seconds())
		perDay := make([]float64, len(p.perDay))
		for i, d := range p.perDay {
			perDay[i] = ms(d)
		}
		p50, p99 := p50p99(perDay)
		dayP50, dayP99 = append(dayP50, p50), append(dayP99, p99)
	}
	wallS := median(walls)
	last := plain[len(plain)-1]
	days := int(last.idx.Last()-last.idx.First()) + 1

	r.verify("funnel identical across passes", funnelErr)
	r.verify("loaded archive equals the sealed world", func() error {
		got, err := archiveHash(last.db.View())
		if err != nil || got != s.hash {
			return fmt.Errorf("loaded archive %s, sealed %s (%v)", got, s.hash, err)
		}
		return nil
	}())
	r.verify("watch replay equals batch detect", func() error {
		if last.eng.LastDay() != last.db.View().CloseDay() {
			return fmt.Errorf("engine at %s, close day %s", last.eng.LastDay(), last.db.View().CloseDay())
		}
		return sameResult(last.res, last.eng.Result())
	}())

	if !e.traced {
		r.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(last)
		r.set("visible_ms", wallS*1e3)
		r.set("rate_per_s", float64(days)/wallS)
		return r, nil
	}

	if err := finishTrace(e, "detect-cold", tracer, r); err != nil {
		return nil, err
	}
	st, lastT := r.stages, traced[len(traced)-1]
	var tracedWall []float64
	for _, p := range traced {
		tracedWall = append(tracedWall, p.net().Seconds())
	}
	loadS := st.perPass("segment.load")
	r.set("op.p50_ms", median(dayP50))
	r.set("tail.p99_ms", median(dayP99))
	r.set("segment.load_s", loadS)
	r.set("segment.load_mb_per_s", float64(s.sealed.Size)/1e6/loadS)
	r.set("detect.run_s", st.perPass("detect.run"))
	stats := lastT.res.Stats
	r.set("detect.extract_s", stats.Stage(detect.StageExtract).Duration.Seconds())
	r.set("detect.mine_s", stats.Stage(detect.StageMine).Duration.Seconds())
	r.set("detect.classify_s", stats.Stage(detect.StageClassify).Duration.Seconds())
	r.set("detect.candidates", float64(lastT.res.Funnel.Candidates))
	r.set("detect.sacrificial", float64(lastT.res.Funnel.Sacrificial))
	r.set("analysis.build_s", st.perPass("analysis.build"))
	setDeltaWatch(r, st, lastT.idx, lastT.alerts)
	cpS, cpBytes, err := checkpointCost(lastT.eng)
	if err != nil {
		return nil, err
	}
	r.set("watch.checkpoint_s", cpS)
	r.set("watch.checkpoint_bytes", float64(cpBytes))
	r.set("obs.trace_overhead_pct", 100*(median(tracedWall)/wallS-1))

	// The detector's ablations, timed after the window on the loaded DB.
	timeDetect := func(opts ...detect.Option) float64 {
		times := make([]float64, 3)
		for i := range times {
			t0 := time.Now()
			detect.NewDetector(lastT.db, s.whois, s.dir, opts...).RunContext(e.ctx)
			times[i] = time.Since(t0).Seconds()
		}
		return median(times)
	}
	noMine := detect.WithConfig(detect.Config{SkipMining: true})
	nomineS := timeDetect(noMine)
	r.set("detect.nomine_s", nomineS)
	if w := runtime.GOMAXPROCS(0); w >= 2 {
		r.set("detect.classify_par_speedup", nomineS/timeDetect(noMine, detect.WithWorkers(w)))
	}
	return r, nil
}
