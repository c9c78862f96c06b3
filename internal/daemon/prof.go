package daemon

import (
	"flag"
	"fmt"
	"runtime"

	"repro/internal/obs/prof"
)

// ProfFlags is the daemons' shared contention-profiling flag block.
// Contention profiling stays off unless -prof-mutex-fraction /
// -prof-block-rate are set — it taxes every lock operation.
type ProfFlags struct {
	MutexFraction int
	BlockRate     int
}

// RegisterProfFlags installs the -prof-* flags on fs.
func RegisterProfFlags(fs *flag.FlagSet) *ProfFlags {
	var f ProfFlags
	fs.IntVar(&f.MutexFraction, "prof-mutex-fraction", 0, "mutex profile sampling fraction (0 = off, 1 = every contention event)")
	fs.IntVar(&f.BlockRate, "prof-block-rate", 0, "block profile rate in ns of blocking per sample (0 = off)")
	return &f
}

// StartProfiler applies the parsed contention-profiling rates (Close
// restores the previous ones) and registers the /statusz profiling
// section — the rates plus, when mutex profiling is on, the top
// contended lock sites. Call once, after New and flag parsing.
func (a *App) StartProfiler(f *ProfFlags) {
	prevMutex := runtime.SetMutexProfileFraction(-1)
	if f.MutexFraction > 0 {
		runtime.SetMutexProfileFraction(f.MutexFraction)
	}
	if f.BlockRate > 0 {
		runtime.SetBlockProfileRate(f.BlockRate)
	}
	a.restoreProf = func() {
		if f.MutexFraction > 0 {
			runtime.SetMutexProfileFraction(prevMutex)
		}
		if f.BlockRate > 0 {
			runtime.SetBlockProfileRate(0) // the runtime has no getter; off is its default
		}
	}
	a.StatusSection("profiling", func() []KV {
		rows := []KV{
			{"mutex_fraction", fmt.Sprintf("%d", f.MutexFraction)},
			{"block_rate_ns", fmt.Sprintf("%d", f.BlockRate)},
		}
		if f.MutexFraction <= 0 {
			rows = append(rows, KV{"contention", "mutex profiling off (-prof-mutex-fraction to enable)"})
			return rows
		}
		sites := prof.TopContended(5)
		if len(sites) == 0 {
			rows = append(rows, KV{"contention", "no contention recorded"})
			return rows
		}
		for i, s := range sites {
			rows = append(rows, KV{
				fmt.Sprintf("contended_%d", i+1),
				fmt.Sprintf("%s — %d events, %d delay cycles", s.Site, s.Count, s.Delay),
			})
		}
		return rows
	})
}
