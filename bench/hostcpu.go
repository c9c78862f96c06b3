package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// hostCPU is the guest's cumulative processor accounting, from the first
// line of /proc/stat, in clock ticks: time its processors spent running,
// and time they had work to run while the hypervisor ran someone else
// ("steal"). On a host that reports no steal both stay comparable and
// every share below is 1.
type hostCPU struct{ busy, stolen int64 }

func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	// cpu user nice system idle iowait irq softirq steal ...
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return hostCPU{}
	}
	var c hostCPU
	for _, i := range []int{1, 2, 3, 6, 7} {
		n, _ := strconv.ParseInt(string(f[i]), 10, 64)
		c.busy += n
	}
	c.stolen, _ = strconv.ParseInt(string(f[8]), 10, 64)
	return c
}

// stopwatch times one stretch of a run — a set-up, a pass, a slice of a
// window — on the wall clock and on the host's processor accounting.
type stopwatch struct {
	t0 time.Time
	c0 hostCPU
}

func startWatch() stopwatch { return stopwatch{t0: time.Now(), c0: readHostCPU()} }

// stop returns the wall time since the start and the share of the
// processor time the guest asked for in it that the host granted:
// busy ÷ (busy + stolen). The counters tick every 10 ms, so the share is
// only meaningful over stretches of half a second or more.
func (w stopwatch) stop() (wall time.Duration, granted float64) {
	wall = time.Since(w.t0)
	c1 := readHostCPU()
	busy, stolen := c1.busy-w.c0.busy, c1.stolen-w.c0.stolen
	if busy <= 0 || stolen <= 0 {
		return wall, 1
	}
	return wall, float64(busy) / float64(busy+stolen)
}

// net is a wall time with the stolen share taken out: what the stretch
// would have taken had the hypervisor not run other guests on its cores.
func net(wall time.Duration, granted float64) time.Duration {
	return time.Duration(float64(wall) * granted)
}
