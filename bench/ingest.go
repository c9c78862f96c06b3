package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/registry"
	"repro/internal/watch"
	"repro/internal/whois"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
	"repro/internal/zonedb/segment"
)

// ingestState is world-ingest after set-up: the zone files on disk, the
// side inputs of the watch engine, and the store passes seal into.
type ingestState struct {
	tmp   string
	view  *zonedb.View // the simulated world, for the reference ingest
	whois *whois.History
	dir   *registry.Directory
	fx    *fixture
	store *segment.Store
}

func setupIngest(e *env) (*ingestState, error) {
	w, err := buildWorld(e.sz.ingestScale, e.seed)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(e.outDir, "ingest-")
	if err != nil {
		return nil, err
	}
	s := &ingestState{tmp: tmp, view: w.ZoneDB().View(), whois: w.WHOIS(), dir: w.Directory()}
	last := s.view.CloseDay()
	first := last - dates.Day(e.sz.ingestDays-1)
	zoneDir := tmp + "/zones"
	if err := os.Mkdir(zoneDir, 0o755); err != nil {
		return s, err
	}
	if s.fx, err = writeZoneFiles(s.view, zoneDir, first, last, e.sz.fixtureCheck, rand.New(rand.NewSource(e.seed))); err != nil {
		return s, err
	}
	s.store, err = segment.Open(tmp + "/segments")
	return s, err
}

func (s *ingestState) teardown() {
	if s != nil {
		os.RemoveAll(s.tmp)
	}
}

// timedSource stamps every Next call. In a serial ingest the gap between
// two stamps is one file read, parsed and diffed into the database.
type timedSource struct {
	inner zonedb.SnapshotSource
	at    []time.Time
}

func (t *timedSource) Next() (*dnszone.Snapshot, string, error) {
	t.at = append(t.at, time.Now())
	return t.inner.Next()
}

// ingestPass is what one timed pass over the zone files produced.
type ingestPass struct {
	wall        time.Duration
	granted     float64 // share of the pass's processor time the host granted
	perFile     []time.Duration
	db          *zonedb.DB
	idx         *delta.Index
	eng         *watch.Engine
	alerts      int
	quarantined int
	sealed      segment.Info
	parEff      float64
}

// release drops a pass's outputs once a later pass of its kind exists.
func (p *ingestPass) release() { p.db, p.idx, p.eng = nil, nil, nil }

func (p *ingestPass) net() time.Duration { return net(p.wall, p.granted) }

// pass is the timed operation of ingest-files: first file open to last
// alert, through the engine's own file source and ingest loop.
func (s *ingestState) pass(ctx context.Context, workers int, reg *obs.Registry) (*ingestPass, error) {
	p := &ingestPass{}
	src := &timedSource{inner: &zonedb.FileSource{FS: os.DirFS(s.fx.dir), Paths: s.fx.paths}}
	w := startWatch()
	ing := zonedb.NewIngester()
	ing.Workers = workers
	ing.Obs = reg
	if err := ing.IngestAll(src); err != nil {
		return nil, err
	}
	p.db = ing.Finish()
	if err := s.tail(ctx, p); err != nil {
		return nil, err
	}
	p.wall, p.granted = w.stop()
	p.quarantined = ing.Quarantine().Total()
	p.parEff = ing.ParallelEfficiency()
	for i := 1; i < len(src.at); i++ {
		p.perFile = append(p.perFile, src.at[i].Sub(src.at[i-1]))
	}
	return p, nil
}

// stageAllocs are the heap allocations of the two per-file stages of a
// traced pass.
type stageAllocs struct{ readBytes, readObjs, addBytes, addObjs uint64 }

// tracedPass is the same pass with the stages driven one by one, a span
// round each call into a layer.
func (s *ingestState) tracedPass(ctx context.Context, tracer *trace.Tracer) (*ingestPass, stageAllocs, error) {
	p := &ingestPass{}
	var al stageAllocs
	var err error
	ac := newAllocCounter()
	w := startWatch()
	tracedRoot(ctx, tracer, func(ctx context.Context) {
		ing := zonedb.NewIngester()
		for _, path := range s.fx.paths {
			var snap *dnszone.Snapshot
			b0, o0 := ac.read()
			stage(ctx, "dnszone.read", func(context.Context) {
				var f *os.File
				if f, err = os.Open(s.fx.dir + "/" + path); err != nil {
					return
				}
				snap, err = dnszone.Read(f)
				f.Close()
			})
			b1, o1 := ac.read()
			if err != nil {
				return
			}
			stage(ctx, "zonedb.add_snapshot", func(context.Context) { err = ing.AddSnapshot(snap) })
			b2, o2 := ac.read()
			if err != nil {
				return
			}
			al.readBytes, al.readObjs = al.readBytes+b1-b0, al.readObjs+o1-o0
			al.addBytes, al.addObjs = al.addBytes+b2-b1, al.addObjs+o2-o1
		}
		stage(ctx, "zonedb.finish", func(context.Context) { p.db = ing.Finish() })
		err = s.tail(ctx, p)
		p.quarantined = ing.Quarantine().Total()
	})
	p.wall, p.granted = w.stop()
	return p, al, err
}

// tail is the part of a pass after the database is closed: seal the
// epoch, build the delta index, replay every day through the watch
// engine up to the last alert.
func (s *ingestState) tail(ctx context.Context, p *ingestPass) error {
	var err error
	stage(ctx, "segment.seal", func(context.Context) { p.sealed, err = s.store.Seal(p.db.View(), "bench") })
	if err != nil {
		return fmt.Errorf("sealing: %w", err)
	}
	stage(ctx, "delta.build", func(context.Context) { p.idx, err = delta.Build(p.db.View()) })
	if err != nil {
		return err
	}
	p.eng = watch.New(s.whois, s.dir)
	for d := p.idx.First(); d <= p.idx.Last() && err == nil; d++ {
		stage(ctx, "watch.apply_day", func(context.Context) {
			var alerts []watch.Alert
			alerts, err = p.eng.ApplyDay(p.idx.Day(d))
			p.alerts += len(alerts)
		})
	}
	return err
}

func runIngestFiles(e *env) (*result, error) {
	r := newResult()
	s, setupS, err := repeatSetup(e.sz.setupReps, func() (*ingestState, error) { return setupIngest(e) }, (*ingestState).teardown)
	defer s.teardown()
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setupS)

	tracer, ctx := newTracer(), e.ctx
	workers := runtime.GOMAXPROCS(0)
	var serial, parallel, traced []*ingestPass
	var allocs stageAllocs
	var reg *obs.Registry
	if e.traced {
		reg = obs.NewRegistry() // the pool only records its utilisation with a registry
	}
	start := time.Now()
	for len(serial) == 0 || time.Since(start) < e.window {
		p, err := s.pass(ctx, 0, nil)
		if err != nil {
			return nil, err
		}
		serial = keepLast(serial, p)
		if e.traced {
			p, al, err := s.tracedPass(ctx, tracer)
			if err != nil {
				return nil, err
			}
			traced, allocs = keepLast(traced, p), al
		}
		if p, err = s.pass(ctx, workers, reg); err != nil {
			return nil, err
		}
		parallel = keepLast(parallel, p)
	}

	files := len(s.fx.paths)
	// Every figure is taken per pass, net of the processor time the host
	// took away during it, and reported as the median over passes, so a
	// pass that ran while the host was disturbed counts once. The unit of
	// latency is one day of zone files, all zones: files
	// arrive zone by zone, so a day's time is summed over the zones.
	days := int(s.fx.last-s.fx.first) + 1
	var serialWall, parWall, dayP50, dayP99 []float64
	for _, p := range serial {
		serialWall = append(serialWall, p.net().Seconds())
		perDay := make([]float64, days)
		for i, d := range p.perFile {
			perDay[i%days] += ms(d) * p.granted
		}
		p50, p99 := p50p99(perDay)
		dayP50, dayP99 = append(dayP50, p50), append(dayP99, p99)
	}
	for _, p := range parallel {
		parWall = append(parWall, p.net().Seconds())
	}
	wallS, wallParS := median(serialWall), median(parWall)

	// Checks, all outside the timed passes.
	lastSerial, lastPar := serial[len(serial)-1], parallel[len(parallel)-1]
	for _, ps := range [][]*ingestPass{serial, parallel, traced} {
		for _, p := range ps {
			r.attempted += files
			r.failed += p.quarantined
		}
	}
	r.verify("serial, parallel and in-memory reference archives identical", func() error {
		ref := zonedb.NewIngester()
		if err := ref.IngestAll(newSnapshotSweep(s.view, s.fx.first, s.fx.last)); err != nil {
			return err
		}
		want, err := archiveHash(ref.Finish().View())
		if err != nil {
			return err
		}
		for name, p := range map[string]*ingestPass{"serial": lastSerial, "parallel": lastPar} {
			if got, err := archiveHash(p.db.View()); err != nil || got != want {
				return fmt.Errorf("%s pass archive %s, reference %s (%v)", name, got, want, err)
			}
		}
		return nil
	}())
	r.verify("watch engine equals batch detect on the ingested database", func() error {
		batch := detect.NewDetector(lastSerial.db, s.whois, s.dir,
			detect.WithConfig(detect.Config{SkipMining: true})).RunContext(ctx)
		if lastSerial.eng.LastDay() != lastSerial.db.View().CloseDay() {
			return fmt.Errorf("engine at %s, close day %s", lastSerial.eng.LastDay(), lastSerial.db.View().CloseDay())
		}
		return sameResult(batch, lastSerial.eng.Result())
	}())

	if !e.traced {
		// Only the last serial pass's outputs stay referenced for the
		// heap reading: database, delta index, engine.
		s.view, serial, parallel, lastPar = nil, nil, nil, nil
		r.set("live_heap_mb", liveHeapMB())
		runtime.KeepAlive(lastSerial)
		r.set("visible_ms", wallS*1e3)
		r.set("rate_per_s", float64(files)/wallParS)
		return r, nil
	}

	if err := finishTrace(e, "ingest-files", tracer, r); err != nil {
		return nil, err
	}
	st, last := r.stages, traced[len(traced)-1]
	var tracedWall []float64
	for _, p := range traced {
		tracedWall = append(tracedWall, p.net().Seconds())
	}
	textMB := float64(s.fx.bytes) / 1e6
	readS, addS := st.perPass("dnszone.read"), st.perPass("zonedb.add_snapshot")
	facts := countFacts(last.db.View())
	r.set("op.p50_ms", median(dayP50))
	r.set("tail.p99_ms", median(dayP99))
	r.set("ingest.files", float64(files))
	r.set("ingest.text_mb", textMB)
	r.set("ingest.records", float64(s.fx.records))
	r.set("ingest.wall_s", wallS)
	r.set("ingest.allocs_per_zone_day", float64(allocs.readObjs+allocs.addObjs)/float64(files))
	// 530 M domains present every day of nine years, at this fixture's
	// records per delegated domain and the serial pass's record rate.
	recPerDomain := float64(s.fx.records) / float64(s.fx.delegations)
	r.set("ingest.paper_extrap_days", 530e6*recPerDomain*3287/(float64(s.fx.records)/wallS)/86400)
	r.set("dnszone.read_s", readS)
	r.set("dnszone.read_mb_per_s", textMB/readS)
	r.set("dnszone.read_alloc_mb", float64(allocs.readBytes)/1e6)
	r.set("zonedb.add_snapshot_s", addS)
	r.set("zonedb.add_us_per_record", addS*1e6/float64(s.fx.records))
	r.set("zonedb.add_alloc_mb", float64(allocs.addBytes)/1e6)
	r.set("zonedb.finish_s", st.perPass("zonedb.finish"))
	r.set("zonedb.facts", float64(facts))
	if workers >= 2 {
		// A speed-up measured on one processor would be a fiction.
		r.set("ingest.wall_par_s", wallParS)
		r.set("zonedb.ingest_par_speedup", wallS/wallParS)
		r.set("zonedb.ingest_par_util", lastPar.parEff)
	}
	r.set("segment.seal_s", st.perPass("segment.seal"))
	r.set("segment.seal_bytes", float64(last.sealed.Size))
	r.set("segment.bytes_per_fact", float64(last.sealed.Size)/float64(facts))
	setDeltaWatch(r, st, last.idx, last.alerts)
	cpS, cpBytes, err := checkpointCost(last.eng)
	if err != nil {
		return nil, err
	}
	r.set("watch.checkpoint_s", cpS)
	r.set("watch.checkpoint_bytes", float64(cpBytes))
	r.set("obs.trace_overhead_pct", 100*(median(tracedWall)/wallS-1))
	return r, nil
}

// setDeltaWatch reports the delta and watch layers of a traced batch
// pass from its stage table.
func setDeltaWatch(r *result, st *stageTable, idx *delta.Index, alerts int) {
	days := int(idx.Last()-idx.First()) + 1
	changes := 0
	for d := idx.First(); d <= idx.Last(); d++ {
		changes += idx.Day(d).Changes()
	}
	applyS := st.perPass("watch.apply_day")
	r.set("delta.build_s", st.perPass("delta.build"))
	r.set("delta.days", float64(idx.Days()))
	r.set("delta.changes", float64(changes))
	r.set("watch.apply_s", applyS)
	r.set("watch.apply_us_per_day", applyS*1e6/float64(days))
	r.set("watch.alerts", float64(alerts))
}

// checkpointCost times one engine checkpoint into memory.
func checkpointCost(eng *watch.Engine) (seconds float64, size int, err error) {
	var buf bytes.Buffer
	t0 := time.Now()
	err = eng.Save(&buf)
	return time.Since(t0).Seconds(), buf.Len(), err
}

// countFacts counts the delegation edges, domains and glue hosts a view
// ever recorded.
func countFacts(v *zonedb.View) int {
	n := v.NumDomains()
	v.EachEdgeSpans(func(zonedb.Edge, *interval.Set) bool { n++; return true })
	v.EachGlueSpans(func(dnsname.Name, *interval.Set) bool { n++; return true })
	return n
}
