// Package runtime samples Go runtime and process health into obs
// gauges — the `go_*`/`process_*` families every daemon exposes on
// /metrics. Nothing samples in the background: the daemon's /metrics
// and /statusz handlers call Sample as they answer, so what a reader
// sees is the runtime at the moment of the read.
//
// The collector is created by internal/daemon, so dzdbd, dzdbcoord, and
// riskywatchd all report the same families without per-daemon wiring.
package runtime

import (
	stdruntime "runtime"
	"time"

	"repro/internal/obs"
)

// Sample is one point-in-time reading of the runtime: what the gauges
// were set from, plus the rows /statusz renders.
type Sample struct {
	Uptime        time.Duration
	Goroutines    int
	HeapAlloc     uint64
	HeapSys       uint64
	HeapObjects   uint64
	NumGC         uint32
	PauseTotal    time.Duration
	GCCPUFraction float64
}

// Collector publishes runtime samples into a registry. Create with
// New. All methods are safe for concurrent use.
type Collector struct {
	start time.Time

	goroutines *obs.Gauge
	heapAlloc  *obs.Gauge
	gcCPU      *obs.FloatGauge
	uptime     *obs.FloatGauge
}

// New registers the go_*/process_* gauges in reg and takes a first
// sample.
func New(reg *obs.Registry) *Collector {
	c := &Collector{
		start:      time.Now(),
		goroutines: reg.Gauge("go_goroutines", "Number of goroutines that currently exist."),
		heapAlloc:  reg.Gauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects."),
		gcCPU:      reg.FloatGauge("go_gc_cpu_fraction", "Fraction of available CPU time used by the GC since program start."),
		uptime:     reg.FloatGauge("process_uptime_seconds", "Seconds since the process started."),
	}
	reg.FloatGauge("process_start_time_seconds", "Unix time the process started.").
		Set(float64(c.start.UnixNano()) / 1e9)
	c.Sample()
	return c
}

// Sample reads the runtime now and publishes the gauges. The /metrics
// handler calls it right before every scrape, and /statusz before it
// renders.
func (c *Collector) Sample() Sample {
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	s := Sample{
		Uptime:        time.Since(c.start),
		Goroutines:    stdruntime.NumGoroutine(),
		HeapAlloc:     ms.HeapAlloc,
		HeapSys:       ms.HeapSys,
		HeapObjects:   ms.HeapObjects,
		NumGC:         ms.NumGC,
		PauseTotal:    time.Duration(ms.PauseTotalNs),
		GCCPUFraction: ms.GCCPUFraction,
	}

	c.goroutines.Set(int64(s.Goroutines))
	c.heapAlloc.Set(int64(s.HeapAlloc))
	c.gcCPU.Set(s.GCCPUFraction)
	c.uptime.Set(s.Uptime.Seconds())
	return s
}
