package zonedb_test

import (
	"bytes"
	"fmt"
	"maps"
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

// TestReadSegmentWalksInKeyOrder: a loaded view walks its facts in the
// order its segment stored them — key order — and yields the very sets
// its maps hold. The first write after the load drops that order, so the
// next view's walks include the write, while the view pinned before it
// walks as it did.
func TestReadSegmentWalksInKeyOrder(t *testing.T) {
	cfg := sim.DefaultConfig(3)
	cfg.Seed = 1
	w, err := sim.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]*zonedb.View{
		"rich": zonedb.RichDB().View(), "seed": zonedb.SeedDB().View(),
		"empty": zonedb.EmptyClosedDB().View(), "scale 3": w.ZoneDB().View(),
	} {
		t.Run(name, func(t *testing.T) {
			var payload bytes.Buffer
			if err := src.WriteSegment(&payload); err != nil {
				t.Fatal(err)
			}
			db, err := zonedb.ReadSegment(payload.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			pinned := db.View()
			if err := zonedb.WalksInKeyOrder(pinned); err != nil {
				t.Fatalf("loaded: %v", err)
			}
			before := walked(pinned)

			// One new key per table, and a domain the load held registered
			// again.
			day := pinned.CloseDay() + 1
			var again dnsname.Name
			pinned.EachDomainSpans(func(d dnsname.Name, _ *interval.Set) bool {
				again = d
				return false
			})
			db.DomainAdded("com", "zz-written.com", day)
			db.DelegationAdded("com", "zz-written.com", "ns.zz-written.com", day)
			db.GlueAdded("com", "ns.zz-written.com", day)
			if again != "" {
				db.DomainAdded(again.TLD(), again, day)
			}
			db.Close(day)

			if err := zonedb.WalksInKeyOrder(pinned); err != nil {
				t.Errorf("pinned after a write: %v", err)
			}
			if got := walked(pinned); !maps.Equal(got, before) {
				t.Error("the pinned view walks otherwise after a write")
			}
			v := db.View()
			after := walked(v)
			want := map[string]string{
				"E zz-written.com ns.zz-written.com": v.EdgeSpans("zz-written.com", "ns.zz-written.com").String(),
				"D zz-written.com":                   v.DomainSpans("zz-written.com").String(),
				"G ns.zz-written.com":                v.GlueSpans("ns.zz-written.com").String(),
			}
			if again != "" {
				want["D "+string(again)] = v.DomainSpans(again).String()
			}
			for k, spans := range want {
				if after[k] != spans {
					t.Errorf("the written view walks %s with %q, want %q", k, after[k], spans)
				}
			}
			if len(after) != len(before)+3 {
				t.Errorf("the written view walks %d facts, want %d", len(after), len(before)+3)
			}
		})
	}
}

// walked renders what v's three Each*Spans walks yield: each fact's spans
// by table and key.
func walked(v *zonedb.View) map[string]string {
	out := make(map[string]string)
	v.EachEdgeSpans(func(e zonedb.Edge, s *interval.Set) bool {
		out["E "+string(e.Domain)+" "+string(e.NS)] = s.String()
		return true
	})
	v.EachDomainSpans(func(d dnsname.Name, s *interval.Set) bool {
		out["D "+string(d)] = s.String()
		return true
	})
	v.EachGlueSpans(func(h dnsname.Name, s *interval.Set) bool {
		out["G "+string(h)] = s.String()
		return true
	})
	return out
}
