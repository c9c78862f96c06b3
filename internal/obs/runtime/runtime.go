// Package runtime samples Go runtime and process health into obs
// gauges — the `go_*`/`process_*` families every daemon exposes on
// /metrics. A background Collector wakes on an interval (and on demand,
// before a scrape) and publishes goroutine counts, heap/GC statistics,
// GC CPU fraction, uptime, and the open file-descriptor count.
//
// The collector is started by internal/daemon, so dzdbd, dzdbcoord, and
// riskywatchd all report the same families without per-daemon wiring.
// A wedged daemon whose collector stops updating is itself a signal:
// process_uptime_seconds freezes while the scrape succeeds.
package runtime

import (
	"os"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DefaultInterval is the background sampling cadence.
const DefaultInterval = 10 * time.Second

// Sample is one point-in-time reading of the runtime — what the gauges
// were last set from, kept for /statusz rendering.
type Sample struct {
	At            time.Time
	Uptime        time.Duration
	Goroutines    int
	GOMAXPROCS    int
	HeapAlloc     uint64
	HeapSys       uint64
	HeapObjects   uint64
	StackInuse    uint64
	Sys           uint64
	TotalAlloc    uint64
	Mallocs       uint64
	NextGC        uint64
	NumGC         uint32
	PauseTotal    time.Duration
	GCCPUFraction float64
	OpenFDs       int // -1 when the platform offers no /proc/self/fd
}

// Collector periodically samples the runtime into a registry. Create
// with Start; stop with Stop. All methods are safe for concurrent use.
type Collector struct {
	reg      *obs.Registry
	interval time.Duration
	start    time.Time

	goroutines *obs.Gauge
	gomaxprocs *obs.Gauge
	heapAlloc  *obs.Gauge
	heapSys    *obs.Gauge
	heapObjs   *obs.Gauge
	stackInuse *obs.Gauge
	sys        *obs.Gauge
	totalAlloc *obs.Gauge
	mallocs    *obs.Gauge
	nextGC     *obs.Gauge
	gcCycles   *obs.Gauge
	gcPause    *obs.FloatGauge
	gcCPU      *obs.FloatGauge
	uptime     *obs.FloatGauge
	startTime  *obs.FloatGauge
	openFDs    *obs.Gauge

	last     atomic.Pointer[Sample]
	stopOnce sync.Once
	done     chan struct{}
}

// Start registers the go_*/process_* gauges in reg, takes an immediate
// sample, and begins resampling every interval (<= 0 selects
// DefaultInterval) until Stop.
func Start(reg *obs.Registry, interval time.Duration) *Collector {
	if interval <= 0 {
		interval = DefaultInterval
	}
	c := &Collector{
		reg:      reg,
		interval: interval,
		start:    time.Now(),
		done:     make(chan struct{}),

		goroutines: reg.Gauge("go_goroutines", "Number of goroutines that currently exist."),
		gomaxprocs: reg.Gauge("go_gomaxprocs", "Value of GOMAXPROCS."),
		heapAlloc:  reg.Gauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects."),
		heapSys:    reg.Gauge("go_memstats_heap_sys_bytes", "Bytes of heap memory obtained from the OS."),
		heapObjs:   reg.Gauge("go_memstats_heap_objects", "Number of allocated heap objects."),
		stackInuse: reg.Gauge("go_memstats_stack_inuse_bytes", "Bytes in stack spans in use."),
		sys:        reg.Gauge("go_memstats_sys_bytes", "Total bytes of memory obtained from the OS."),
		totalAlloc: reg.Gauge("go_memstats_alloc_bytes_total", "Cumulative bytes allocated for heap objects."),
		mallocs:    reg.Gauge("go_memstats_mallocs_total", "Cumulative count of heap objects allocated."),
		nextGC:     reg.Gauge("go_memstats_next_gc_bytes", "Heap size target of the next GC cycle."),
		gcCycles:   reg.Gauge("go_gc_cycles_total", "Completed GC cycles."),
		gcPause:    reg.FloatGauge("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time."),
		gcCPU:      reg.FloatGauge("go_gc_cpu_fraction", "Fraction of available CPU time used by the GC since program start."),
		uptime:     reg.FloatGauge("process_uptime_seconds", "Seconds since the process started."),
		startTime:  reg.FloatGauge("process_start_time_seconds", "Unix time the process started."),
		openFDs:    reg.Gauge("process_open_fds", "Open file descriptors (-1 when unavailable)."),
	}
	c.startTime.Set(float64(c.start.UnixNano()) / 1e9)
	c.Sample()
	go c.loop()
	return c
}

func (c *Collector) loop() {
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.Sample()
		}
	}
}

// Stop ends background sampling. Idempotent; the gauges keep their last
// values.
func (c *Collector) Stop() {
	c.stopOnce.Do(func() { close(c.done) })
}

// Last returns the most recent sample.
func (c *Collector) Last() Sample { return *c.last.Load() }

// Sample reads the runtime now and publishes the gauges. Called on the
// background interval and by the /metrics wrapper right before a scrape,
// so scrapes never see gauges staler than one handler invocation.
func (c *Collector) Sample() Sample {
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	s := Sample{
		At:            time.Now(),
		Goroutines:    stdruntime.NumGoroutine(),
		GOMAXPROCS:    stdruntime.GOMAXPROCS(0),
		HeapAlloc:     ms.HeapAlloc,
		HeapSys:       ms.HeapSys,
		HeapObjects:   ms.HeapObjects,
		StackInuse:    ms.StackInuse,
		Sys:           ms.Sys,
		TotalAlloc:    ms.TotalAlloc,
		Mallocs:       ms.Mallocs,
		NextGC:        ms.NextGC,
		NumGC:         ms.NumGC,
		PauseTotal:    time.Duration(ms.PauseTotalNs),
		GCCPUFraction: ms.GCCPUFraction,
		OpenFDs:       countOpenFDs(),
	}
	s.Uptime = s.At.Sub(c.start)

	c.goroutines.Set(int64(s.Goroutines))
	c.gomaxprocs.Set(int64(s.GOMAXPROCS))
	c.heapAlloc.Set(int64(s.HeapAlloc))
	c.heapSys.Set(int64(s.HeapSys))
	c.heapObjs.Set(int64(s.HeapObjects))
	c.stackInuse.Set(int64(s.StackInuse))
	c.sys.Set(int64(s.Sys))
	c.totalAlloc.Set(int64(s.TotalAlloc))
	c.mallocs.Set(int64(s.Mallocs))
	c.nextGC.Set(int64(s.NextGC))
	c.gcCycles.Set(int64(s.NumGC))
	c.gcPause.Set(s.PauseTotal.Seconds())
	c.gcCPU.Set(s.GCCPUFraction)
	c.uptime.Set(s.Uptime.Seconds())
	c.openFDs.Set(int64(s.OpenFDs))

	c.last.Store(&s)
	return s
}

// countOpenFDs counts entries in /proc/self/fd. Platforms without procfs
// (or a sandbox hiding it) report -1 rather than a misleading zero.
func countOpenFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
