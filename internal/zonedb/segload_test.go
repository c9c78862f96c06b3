package zonedb_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/sim"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
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

// TestReadSegmentAnswersLikeLive holds every read of a loaded view to the
// map path. The rich, seed, empty and a scale-3 database are sealed and
// loaded at GOMAXPROCS 1, 2 and 8, and each loaded view must say about
// every name in the payload, and a few absent ones, exactly what the
// reference text parser's database of the same facts says — set for set
// and in each walk's own order — and, walks sorted, what the sealed live
// view says. Its id walks name what its walks by name do, and its delta
// index, whose days carry ids, is the live view's day for day. Then the same writes go to the loaded database and to the
// reference: the view pinned before them still answers as it did, and
// the one the writes thawed answers as the written reference does.
func TestReadSegmentAnswersLikeLive(t *testing.T) {
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
			ref, err := zonedb.TextReference(src)
			if err != nil {
				t.Fatal(err)
			}
			names := zonedb.AnswerNames(ref.View())
			want := zonedb.Answers(ref.View(), names, true)
			wantLive := zonedb.Answers(src, names, false)
			if got := zonedb.Answers(ref.View(), names, false); got != wantLive {
				t.Fatalf("the reference answers otherwise than the live view:\n%s", firstDiff(got, wantLive))
			}

			var db *zonedb.DB
			for _, procs := range []int{1, 2, 8} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					if db, err = zonedb.ReadSegment(payload.Bytes()); err != nil {
						t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
					}
				}()
				if got := zonedb.Answers(db.View(), names, true); got != want {
					t.Fatalf("GOMAXPROCS=%d: the loaded view answers otherwise than the map path:\n%s", procs, firstDiff(got, want))
				}
				if err := zonedb.IDsName(db.View()); err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
			}
			if got := zonedb.Answers(db.View(), names, false); got != wantLive {
				t.Fatalf("the loaded view answers otherwise than the live view:\n%s", firstDiff(got, wantLive))
			}
			indexesAlike(t, db.View(), src)

			// Writes that extend a domain the load holds with a new
			// nameserver, give a nameserver it holds a new domain, and add
			// a domain, glue and an edge of their own.
			pinned := db.View()
			write := func(db *zonedb.DB) {
				day := pinned.CloseDay() + 1
				db.DomainAdded("com", "zz-written.com", day)
				db.DelegationAdded("com", "zz-written.com", "ns.zz-written.com", day)
				db.GlueAdded("com", "ns.zz-written.com", day)
				var dom, ns dnsname.Name
				pinned.EachEdgeSpans(func(e zonedb.Edge, _ *interval.Set) bool {
					dom, ns = e.Domain, e.NS
					return false
				})
				if dom != "" {
					db.DelegationAdded(dom.TLD(), dom, "ns.zz-written.com", day)
					db.DelegationAdded("com", "zz-written.com", ns, day)
					db.DomainAdded(dom.TLD(), dom, day)
				}
				db.Close(day)
			}
			write(db)
			write(ref)
			if got := zonedb.Answers(pinned, names, true); got != want {
				t.Fatalf("the pinned view answers otherwise after a write:\n%s", firstDiff(got, want))
			}
			if err := zonedb.IDsName(pinned); err != nil {
				t.Fatalf("the pinned view after a write: %v", err)
			}
			if db.View().Names() != nil {
				t.Fatal("the view a write thawed keeps the name table")
			}
			written := append(slices.Clone(names), "zz-written.com", "ns.zz-written.com")
			slices.Sort(written)
			if got, want := zonedb.Answers(db.View(), written, true), zonedb.Answers(ref.View(), written, true); got != want {
				t.Fatalf("the thawed view answers otherwise than the written reference:\n%s", firstDiff(got, want))
			}
		})
	}
}

// indexesAlike fails unless the delta index of the loaded view is the
// live view's, day for day, and each of its non-quiet days carries ids,
// each the id of its entry in the loaded view's name table.
func indexesAlike(t *testing.T, loaded, live *zonedb.View) {
	t.Helper()
	got, err := delta.Build(loaded)
	if err != nil {
		t.Fatal(err)
	}
	want, err := delta.Build(live)
	if err != nil {
		t.Fatal(err)
	}
	if got.First() != want.First() || got.Last() != want.Last() || got.Days() != want.Days() {
		t.Fatalf("the loaded view's index spans %s..%s in %d days, the live view's %s..%s in %d",
			got.First(), got.Last(), got.Days(), want.First(), want.Last(), want.Days())
	}
	if want.First() == dates.None {
		return
	}
	for d := want.First(); d <= want.Last(); d++ {
		g, w := got.Day(d), want.Day(d)
		if !delta.SameLists(g, w) {
			t.Fatalf("%s: the loaded view's delta %+v, the live view's %+v", d, g, w)
		}
		if ids, ok := g.IDs(); g.Changes() > 0 && (!ok || ids.Dict != loaded.Names()) {
			t.Fatalf("%s: a loaded view's day carries no ids in its name table", d)
		}
	}
}

// firstDiff shows the first line where got and want part, with the
// lines before it.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			var at, was string
			if i < len(g) {
				at = g[i]
			}
			if i < len(w) {
				was = w[i]
			}
			return fmt.Sprintf("line %d:\n got  %s\n want %s\nafter\n%s", i+1, at, was, strings.Join(g[max(0, i-3):i], "\n"))
		}
	}
	return "no difference"
}

// BenchmarkKeyedReads times single keyed reads of the scale-8 world (seed
// 1), as dzdbd serves a loaded view and the detector reads one: live is
// the world's own view, as the simulator recorded it; loaded is the view
// ReadSegment returns for its segment; and maps holds the loaded facts
// in the fact maps the first write builds from it, over the very names
// and sets the load decoded: the map form, with nothing else changed.
// Each op is one read of a key drawn from a
// fixed shuffle of every key of its kind, so neither form gets the
// cache's help from walking in key order.
func BenchmarkKeyedReads(b *testing.B) {
	cfg := sim.DefaultConfig(8)
	cfg.Seed = 1
	w, err := sim.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
	src := w.ZoneDB().View()
	var payload bytes.Buffer
	if err := src.WriteSegment(&payload); err != nil {
		b.Fatal(err)
	}
	loaded, err := zonedb.ReadSegment(payload.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	ref := zonedb.Unpacked(loaded.View())

	var edges []zonedb.Edge
	var domains, hosts, nameservers []dnsname.Name
	ref.EachEdgeSpans(func(e zonedb.Edge, _ *interval.Set) bool {
		edges = append(edges, e)
		return true
	})
	ref.EachDomainSpans(func(d dnsname.Name, _ *interval.Set) bool {
		domains = append(domains, d)
		return true
	})
	ref.EachGlueSpans(func(h dnsname.Name, _ *interval.Set) bool {
		hosts = append(hosts, h)
		return true
	})
	ref.Nameservers(func(ns dnsname.Name) bool {
		nameservers = append(nameservers, ns)
		return true
	})
	// Each key is a copy of its own, as a request's names are: no form
	// finds its key by the pointer it stores.
	clone := func(n dnsname.Name) dnsname.Name { return dnsname.Name(strings.Clone(string(n))) }
	rng := rand.New(rand.NewSource(1))
	for _, keys := range [][]dnsname.Name{domains, hosts, nameservers} {
		for i := range keys {
			keys[i] = clone(keys[i])
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	}
	for i, e := range edges {
		edges[i] = zonedb.Edge{Domain: clone(e.Domain), NS: clone(e.NS)}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	day := src.CloseDay() - 365

	var sink int
	count := func(dnsname.Name, *interval.Set) bool {
		sink++
		return true
	}
	for _, form := range []struct {
		name string
		v    *zonedb.View
	}{{"live", src}, {"maps", ref}, {"loaded", loaded.View()}} {
		v := form.v
		for _, read := range []struct {
			name string
			fn   func(i int)
		}{
			{"EdgeSpans", func(i int) { e := edges[i%len(edges)]; sink += v.EdgeSpans(e.Domain, e.NS).Len() }},
			{"DomainSpans", func(i int) { sink += v.DomainSpans(domains[i%len(domains)]).Len() }},
			{"EachNSOf", func(i int) { v.EachNSOf(domains[i%len(domains)], count) }},
			{"EachDomainOf", func(i int) { v.EachDomainOf(nameservers[i%len(nameservers)], count) }},
			{"GlueOn", func(i int) {
				if v.GlueOn(hosts[i%len(hosts)], day) {
					sink++
				}
			}},
		} {
			b.Run(form.name+"/"+read.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					read.fn(i)
				}
			})
		}
	}
	if sink == 0 {
		b.Fatal("no read found anything")
	}
}
