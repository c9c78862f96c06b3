// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (each regenerates the artifact from a cached study), the
// detection-funnel benchmark, ablation benchmarks for the design choices
// called out in DESIGN.md, and end-to-end pipeline benchmarks.
//
// Run with:
//
//	go test -bench=. -benchmem
package riskybiz

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/sim"
)

var (
	benchOnce sync.Once
	benchSt   *Study
	benchErr  error
)

// benchStudy caches one moderate study for all table/figure benchmarks.
func benchStudy(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		benchSt, benchErr = RunContext(context.Background(), Options{Seed: 1, DomainsPerDay: 8})
	})
	if benchErr != nil {
		b.Fatalf("study: %v", benchErr)
	}
	return benchSt
}

// ---- Tables ----

func BenchmarkTable1(b *testing.B) {
	a := benchStudy(b).Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := a.Table1()
		if t.TotalNameservers == 0 {
			b.Fatal("empty Table 1")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	a := benchStudy(b).Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := a.Table2()
		if t.TotalNameservers == 0 {
			b.Fatal("empty Table 2")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	a := benchStudy(b).Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := a.Table3()
		if t.HijackableNS == 0 {
			b.Fatal("empty Table 3")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	a := benchStudy(b).Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := a.Table4(5)
		if len(rows) == 0 {
			b.Fatal("empty Table 4")
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	a := benchStudy(b).Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := a.Table5(sim.NotificationDay, sim.FollowupDay)
		if t.Before.VulnerableNS == 0 {
			b.Fatal("empty Table 5")
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	a := benchStudy(b).Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := a.Table6()
		if t.TotalNameservers == 0 {
			b.Fatal("empty Table 6")
		}
	}
}

// ---- Figures ----

func BenchmarkFigure3(b *testing.B) {
	a := benchStudy(b).Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := a.Figure3()
		if s.Total() == 0 {
			b.Fatal("empty Figure 3")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	a := benchStudy(b).Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := a.Figure4()
		if s.Total() == 0 {
			b.Fatal("empty Figure 4")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	a := benchStudy(b).Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := a.Figure5()
		if len(pts) == 0 {
			b.Fatal("empty Figure 5")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	a := benchStudy(b).Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nsCDF, domCDF := a.Figure6()
		if nsCDF.N() == 0 || domCDF.N() == 0 {
			b.Fatal("empty Figure 6")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	a := benchStudy(b).Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		never, exp, hij := a.Figure7()
		if never.N() == 0 || exp.N() == 0 || hij.N() == 0 {
			b.Fatal("empty Figure 7")
		}
	}
}

// ---- §3.2 funnel and §4 accident ----

func BenchmarkFunnel(b *testing.B) {
	st := benchStudy(b)
	det := &detect.Detector{
		DB:    st.World.ZoneDB(),
		WHOIS: st.World.WHOIS(),
		Dir:   st.World.Directory(),
		Cfg:   detect.Config{SkipMining: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := det.RunContext(context.Background())
		if res.Funnel.Sacrificial == 0 {
			b.Fatal("empty funnel")
		}
	}
}

func BenchmarkAccident(b *testing.B) {
	st := benchStudy(b)
	a := st.Analysis
	ns := st.World.Truth().AccidentNS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := a.Accident(ns, st.World.Config().End)
		if rep.PeakDomains == 0 {
			b.Fatal("empty accident report")
		}
	}
}

// ---- End-to-end pipeline ----

func BenchmarkSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(3)
		cfg.Seed = int64(i + 1)
		w, err := sim.NewWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st, err := RunContext(context.Background(), Options{Seed: int64(i + 1), DomainsPerDay: 3})
		if err != nil {
			b.Fatal(err)
		}
		if st.Analysis.Table3().HijackableNS == 0 {
			b.Fatal("empty pipeline result")
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationSelectivity compares degree-selective hijackers with
// the uniform ablation; the reported metric is the per-op cost, and the
// Figure 5 gradient is printed once.
func BenchmarkAblationSelectivity(b *testing.B) {
	for _, mode := range []struct {
		name    string
		uniform bool
	}{{"selective", false}, {"uniform", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := RunContext(context.Background(), Options{Seed: 1, DomainsPerDay: 3, UniformHijackers: mode.uniform})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					t3 := st.Analysis.Table3()
					b.Logf("%s: %.1f%% NS, %.1f%% domains hijacked",
						mode.name, 100*t3.NSFraction(), 100*t3.DomainFraction())
				}
			}
		})
	}
}

// BenchmarkAblationEPPFix compares the historical world with the §7.3
// cascade-delete counterfactual: the interesting output is the number of
// hijackable renames after the notification date (zero under the fix).
func BenchmarkAblationEPPFix(b *testing.B) {
	for _, mode := range []struct {
		name string
		fix  bool
	}{{"historical", false}, {"cascade-fix", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := RunContext(context.Background(), Options{Seed: 1, DomainsPerDay: 3, EPPCascadeFix: mode.fix})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					after := 0
					for _, rn := range st.World.Truth().Renames {
						if rn.Day >= sim.NotificationDay {
							after++
						}
					}
					b.Logf("%s: %d renames after notification day", mode.name, after)
				}
			}
		})
	}
}

// BenchmarkAblationSingleRepo measures the detector with and without the
// single-repository elimination.
func BenchmarkAblationSingleRepo(b *testing.B) {
	st := benchStudy(b)
	for _, mode := range []struct {
		name string
		skip bool
	}{{"with-check", false}, {"without-check", true}} {
		b.Run(mode.name, func(b *testing.B) {
			det := &detect.Detector{
				DB:    st.World.ZoneDB(),
				WHOIS: st.World.WHOIS(),
				Dir:   st.World.Directory(),
				Cfg:   detect.Config{SkipMining: true, SkipSingleRepoCheck: mode.skip},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := det.RunContext(context.Background())
				if i == 0 {
					b.Logf("%s: %d violations, %d unclassified",
						mode.name, res.Funnel.SingleRepoViolations, res.Funnel.Unclassified)
				}
			}
		})
	}
}

// BenchmarkAblationMinSupport sweeps the pattern miner's minimum support.
func BenchmarkAblationMinSupport(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	names := make([]dnsname.Name, 0, 4000)
	for i := 0; i < 1500; i++ {
		names = append(names, dnsname.Name(fmt.Sprintf("dropthishost-%08x.biz", rng.Uint32())))
	}
	for i := 0; i < 1500; i++ {
		names = append(names, dnsname.Name(fmt.Sprintf("r%07x.lamedelegation.org", rng.Uint32())))
	}
	for i := 0; i < 1000; i++ {
		names = append(names, dnsname.Name(fmt.Sprintf("ns1.rnd%08x.com", rng.Uint32())))
	}
	for _, support := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("support-%d", support), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pats := detect.MineSubstrings(names, detect.MinerConfig{MinSupport: support})
				if len(pats) == 0 {
					b.Fatal("no patterns")
				}
			}
		})
	}
}

// BenchmarkAblationIntervalIndex compares interval-set containment
// queries against a naive per-day scan of raw events.
func BenchmarkAblationIntervalIndex(b *testing.B) {
	type event struct {
		day dates.Day
		on  bool
	}
	rng := rand.New(rand.NewSource(3))
	var set interval.Set
	var events []event
	day := dates.Day(0)
	for i := 0; i < 300; i++ {
		start := day + dates.Day(rng.Intn(20))
		end := start + dates.Day(rng.Intn(30))
		set.Add(dates.NewRange(start, end))
		events = append(events, event{start, true}, event{end + 1, false})
		day = end + 2
	}
	probe := make([]dates.Day, 1000)
	for i := range probe {
		probe[i] = dates.Day(rng.Intn(int(day)))
	}
	b.Run("interval-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hits := 0
			for _, d := range probe {
				if set.Contains(d) {
					hits++
				}
			}
			if hits == 0 {
				b.Fatal("no hits")
			}
		}
	})
	b.Run("naive-event-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hits := 0
			for _, d := range probe {
				on := false
				for _, e := range events {
					if e.day > d {
						break
					}
					on = e.on
				}
				if on {
					hits++
				}
			}
			if hits == 0 {
				b.Fatal("no hits")
			}
		}
	})
}

// BenchmarkSnapshotReconstruction measures materializing one daily zone
// file from the longitudinal store.
func BenchmarkSnapshotReconstruction(b *testing.B) {
	st := benchStudy(b)
	db := st.World.ZoneDB().View()
	day := dates.FromYMD(2016, 7, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := db.SnapshotOn("com", day)
		if len(snap.Delegations) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkPartialAnalysis measures the §5.6 partially-exposed scan.
func BenchmarkPartialAnalysis(b *testing.B) {
	a := benchStudy(b).Analysis
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := a.Partial(sim.NotificationDay)
		if p.FullyExposed == 0 {
			b.Fatal("empty partial stats")
		}
	}
}

var _ = analysis.NewCDF // keep the analysis import for documentation links

// ---- Observability primitives ----

// BenchmarkObsCounter measures the per-event cost of a hot-path counter
// increment — the price every instrumented query/command/request pays.
func BenchmarkObsCounter(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_events_total", "benchmark counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != uint64(b.N) {
		b.Fatalf("counter = %d, want %d", c.Value(), b.N)
	}
}

// BenchmarkObsCounterVec measures the labeled variant, including the
// child lookup that the HTTP middleware performs per event.
func BenchmarkObsCounterVec(b *testing.B) {
	reg := obs.NewRegistry()
	vec := reg.CounterVec("bench_labeled_total", "benchmark labeled counter", "route", "class")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.With("/domains/{name}", "2xx").Inc()
	}
}

// BenchmarkDetectionWorkers measures candidate extraction across worker
// counts (stage 1 dominates detection cost). Results are identical at
// every worker count (TestParallelWorkersIdentical); speedups require
// multiple CPUs — on a single-CPU machine this shows pure goroutine and
// memo-duplication overhead.
func BenchmarkDetectionWorkers(b *testing.B) {
	st := benchStudy(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			det := &detect.Detector{
				DB:    st.World.ZoneDB(),
				WHOIS: st.World.WHOIS(),
				Dir:   st.World.Directory(),
				Cfg:   detect.Config{SkipMining: true, Workers: workers},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := det.RunContext(context.Background())
				if res.Funnel.Sacrificial == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}
