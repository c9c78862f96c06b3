package runtime

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestCollectorSample(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(reg)

	s := c.Sample()
	if s.Goroutines < 1 {
		t.Errorf("Goroutines = %d, want >= 1", s.Goroutines)
	}
	if s.HeapAlloc == 0 || s.HeapSys == 0 {
		t.Errorf("memstats not populated: heap=%d sys=%d", s.HeapAlloc, s.HeapSys)
	}
	if s.Uptime < 0 {
		t.Errorf("Uptime = %v", s.Uptime)
	}

	var sb strings.Builder
	reg.WriteTo(&sb)
	out := sb.String()
	for _, name := range []string{
		"go_goroutines",
		"go_memstats_heap_alloc_bytes",
		"go_gc_cpu_fraction",
		"process_uptime_seconds",
		"process_start_time_seconds",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}
