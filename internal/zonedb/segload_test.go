package zonedb_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/sim"
	"repro/internal/zonedb"
)

// goroutinesSettle fails unless the goroutine count comes back down to
// base: what a call started has exited, not merely finished its work.
func goroutinesSettle(tb testing.TB, what string, base int) {
	tb.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			tb.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// indexTrace renders both traversal indexes of v, keys sorted and each
// key's edges in the index's own order, with the spans each edge reads
// back through the edge table.
func indexTrace(v *zonedb.View) string {
	var sb strings.Builder
	keys := func(each func(func(dnsname.Name) bool)) []dnsname.Name {
		var out []dnsname.Name
		each(func(n dnsname.Name) bool {
			out = append(out, n)
			return true
		})
		slices.Sort(out)
		return out
	}
	for _, ns := range keys(v.Nameservers) {
		v.EachDomainOf(ns, func(d dnsname.Name, s *interval.Set) bool {
			fmt.Fprintf(&sb, "N %s %s %s\n", ns, d, s)
			return true
		})
	}
	for _, d := range keys(v.Domains) {
		v.EachNSOf(d, func(ns dnsname.Name, s *interval.Set) bool {
			fmt.Fprintf(&sb, "D %s %s %s\n", d, ns, s)
			return true
		})
	}
	return sb.String()
}

// TestReadSegmentConcurrent: ReadSegment fills the edge table beside the
// others, and what it loads does not depend on how many cores it had. At
// GOMAXPROCS 1, 2 and 8 the database loaded from a scale-2 world's
// payload re-encodes to the very same bytes, archives as the world does,
// answers every index walk as the one-core load does, and leaves no
// goroutine behind.
func TestReadSegmentConcurrent(t *testing.T) {
	cfg := sim.DefaultConfig(2)
	cfg.Seed = 1
	w, err := sim.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	src := w.ZoneDB().View()
	var payload, archive bytes.Buffer
	if err := src.WriteSegment(&payload); err != nil {
		t.Fatal(err)
	}
	if err := src.WriteArchive(&archive); err != nil {
		t.Fatal(err)
	}

	var serial string
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			db, err := zonedb.ReadSegment(payload.Bytes())
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			goroutinesSettle(t, fmt.Sprintf("GOMAXPROCS=%d", procs), base)
			v := db.View()
			var again, arch bytes.Buffer
			if err := v.WriteSegment(&again); err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			if !bytes.Equal(again.Bytes(), payload.Bytes()) {
				t.Errorf("GOMAXPROCS=%d: the loaded database re-encodes to other bytes", procs)
			}
			if err := v.WriteArchive(&arch); err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			if !bytes.Equal(arch.Bytes(), archive.Bytes()) {
				t.Errorf("GOMAXPROCS=%d: the loaded database archives to other bytes", procs)
			}
			trace := indexTrace(v)
			if procs == 1 {
				serial = trace
			} else if trace != serial {
				t.Errorf("GOMAXPROCS=%d: the indexes walk otherwise than at GOMAXPROCS=1", procs)
			}
		}()
	}
}
