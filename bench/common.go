package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/detect"
)

// repeatSetup runs setup reps times, tearing down every state but the
// last, and returns that state with the median set-up time in seconds,
// net of stolen processor time. Repeating makes setup_s a median of a
// run, not one sample.
func repeatSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var state T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(state)
		}
		w := startWatch()
		s, err := setup()
		if err != nil {
			teardown(s)
			return state, 0, err
		}
		times = append(times, net(w.stop()).Seconds())
		state = s
	}
	return state, median(times), nil
}

// keepLast appends p, releasing the outputs of the pass before it: only
// the last pass of a kind is checked and measured for live heap.
func keepLast[P interface{ release() }](ps []P, p P) []P {
	if n := len(ps); n > 0 {
		ps[n-1].release()
	}
	return append(ps, p)
}

// liveHeapMB returns the heap still in use after collection. It collects
// twice with a pause between: goroutines of servers just closed need a
// moment to exit and drop what they hold, and pools empty over two
// cycles.
func liveHeapMB() float64 {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// allocCounter reads the cumulative heap allocation counters.
type allocCounter struct{ samples [2]metrics.Sample }

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.samples[0].Name = "/gc/heap/allocs:bytes"
	a.samples[1].Name = "/gc/heap/allocs:objects"
	return a
}

func (a *allocCounter) read() (bytes, objects uint64) {
	metrics.Read(a.samples[:])
	return a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()
}

// sameResult reports the first divergence between two detection results:
// the funnel, then every sacrificial record and its affected domains.
func sameResult(a, b *detect.Result) error {
	if a.Funnel != b.Funnel {
		return fmt.Errorf("funnel %+v vs %+v", a.Funnel, b.Funnel)
	}
	if len(a.Sacrificial) != len(b.Sacrificial) {
		return fmt.Errorf("%d vs %d sacrificial nameservers", len(a.Sacrificial), len(b.Sacrificial))
	}
	for i := range a.Sacrificial {
		x, y := &a.Sacrificial[i], &b.Sacrificial[i]
		if x.NS != y.NS || x.Created != y.Created || x.Idiom != y.Idiom || x.Class != y.Class ||
			x.Registrar != y.Registrar || x.Original != y.Original || x.RegDomain != y.RegDomain ||
			x.Collision != y.Collision || x.HijackedOn != y.HijackedOn {
			return fmt.Errorf("record %d: %s vs %s differ", i, x.NS, y.NS)
		}
		if len(x.Domains) != len(y.Domains) {
			return fmt.Errorf("%s: %d vs %d affected domains", x.NS, len(x.Domains), len(y.Domains))
		}
		for j := range x.Domains {
			if x.Domains[j].Name != y.Domains[j].Name || x.Domains[j].Spans.String() != y.Domains[j].Spans.String() {
				return fmt.Errorf("%s: affected domain %d differs", x.NS, j)
			}
		}
	}
	return nil
}
