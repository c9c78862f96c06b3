package zonedb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
	"repro/internal/sim"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// snapshotsMatch fails t unless the zone indexes and the filtered walk
// (View.SnapshotOn) all write the bytes the walk they replaced writes,
// for every zone on every day.
func snapshotsMatch(t testing.TB, v *zonedb.View, zones []dnsname.Name, days []dates.Day, idx ...*zonedb.ZoneIndex) {
	t.Helper()
	write := func(s *dnszone.Snapshot) []byte {
		var b bytes.Buffer
		if err := s.Write(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, zone := range zones {
		for _, day := range days {
			want := write(v.SnapshotOnReference(zone, day))
			if got := write(v.SnapshotOn(zone, day)); !bytes.Equal(got, want) {
				t.Fatalf("epoch %d: View.SnapshotOn(%s, %s):\n%s\nwant\n%s", v.Epoch(), zone, day, got, want)
			}
			for i, x := range idx {
				if got := write(x.SnapshotOn(zone, day)); !bytes.Equal(got, want) {
					t.Fatalf("epoch %d: index %d: SnapshotOn(%s, %s):\n%s\nwant\n%s", v.Epoch(), i, zone, day, got, want)
				}
			}
		}
	}
}

// applyDay plays one day of a feed into db through the event API.
func applyDay(db *zonedb.DB, dd *delta.DayDelta) {
	day := dd.Day
	for _, e := range dd.EdgesRemoved {
		db.DelegationRemoved(e.Domain.TLD(), e.Domain, e.NS, day)
	}
	for _, d := range dd.DomainsRemoved {
		db.DomainRemoved(d.TLD(), d, day)
	}
	for _, h := range dd.GlueRemoved {
		db.GlueRemoved(h.TLD(), h, day)
	}
	for _, d := range dd.DomainsAdded {
		db.DomainAdded(d.TLD(), d, day)
	}
	for _, h := range dd.GlueAdded {
		db.GlueAdded(h.TLD(), h, day)
	}
	for _, e := range dd.EdgesAdded {
		db.DelegationAdded(e.Domain.TLD(), e.Domain, e.NS, day)
	}
}

// TestZoneIndexMatchesSnapshotOn holds the zone index, built and
// extended, and the filtered walk to the whole-database walk they
// replaced, byte for byte: on simulated worlds (every zone, days before
// the first fact, through the close day and past it), on the last days
// of a world replayed one Close a day with each day's index extended from
// the last, and on the seal script's databases, whose ragged CloseZones
// and back-dated events leave zones sealed through different days and
// eager facts that show no open span.
func TestZoneIndexMatchesSnapshotOn(t *testing.T) {
	for _, scale := range []float64{1, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("scale=%g/seed=%d", scale, seed), func(t *testing.T) {
				t.Parallel()
				cfg := sim.DefaultConfig(scale)
				cfg.Seed = seed
				w, err := sim.NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Run(); err != nil {
					t.Fatal(err)
				}
				v := w.ZoneDB().View()
				last := v.CloseDay()
				days := []dates.Day{cfg.Start - 400, cfg.Start - 1, cfg.Start, last - 1, last, last + 1}
				rng := rand.New(rand.NewSource(seed))
				for range 12 {
					days = append(days, cfg.Start+dates.Day(rng.Intn(int(last-cfg.Start)+1)))
				}
				zones := append(v.Zones(), "absent")
				snapshotsMatch(t, v, zones, days, v.ZoneIndex())
				if scale > 1 {
					return
				}

				// The world's last days again, a Close a day, each day's
				// index extended from the one before.
				hist, err := delta.Build(v)
				if err != nil {
					t.Fatal(err)
				}
				live, d0 := zonedb.New(), hist.Last()-20
				for d := hist.First(); d <= d0; d++ {
					applyDay(live, hist.Day(d))
				}
				live.Close(d0)
				x := live.View().ZoneIndex()
				for d := d0 + 1; d <= hist.Last(); d++ {
					applyDay(live, hist.Day(d))
					live.Close(d)
					v := live.View()
					ext, ok := x.Extend(v)
					if !ok {
						t.Fatalf("%s: the index of the day before did not extend", d)
					}
					snapshotsMatch(t, v, zones, []dates.Day{d0 - 1, d - 1, d, d + 1, days[rng.Intn(len(days))]}, ext)
					x = ext
				}
			})
		}
	}

	// A zone sealed past the close day with no fact showing an open span
	// lets a Close with an earlier day still seal the database, so the
	// epochs after it advance while events open eager facts, and each
	// Close then seals the earlier ones fact by fact without listing them,
	// until the Close that reaches the zone's day makes them ordinary.
	t.Run("eager-advance", func(t *testing.T) {
		db := zonedb.New()
		db.DelegationAdded("com", "a.com", "ns.a.com", 10)
		db.GlueAdded("com", "ns.a.com", 10)
		db.DelegationRemoved("com", "a.com", "ns.a.com", 12)
		db.GlueRemoved("com", "ns.a.com", 12)
		db.Close(30)
		db.Close(15)
		x := db.View().ZoneIndex()
		for _, day := range []dates.Day{16, 17, 18, 30, 31} {
			db.DelegationAdded("com", dnsname.Name(fmt.Sprintf("d%d.com", day)), "ns.a.com", day)
			db.GlueAdded("com", dnsname.Name(fmt.Sprintf("ns.d%d.com", day)), day)
			db.Close(day)
			v := db.View()
			ext, ok := x.Extend(v)
			if !ok {
				t.Fatalf("Close(%s) is not an advance of the epoch before", day)
			}
			snapshotsMatch(t, v, []dnsname.Name{"com"}, []dates.Day{11, 15, 16, 17, 18, 19, 29, 30, 31}, ext)
			x = ext
		}
	})

	t.Run("seal-script", func(t *testing.T) {
		t.Parallel()
		drawn := map[string]int{}
		extended := 0
		for seed := int64(1); seed <= 16; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := newSealScript(t, rng.Intn)
			prev, prevEpoch := s.db.View().ZoneIndex(), s.db.View().Epoch()
			for range 60 {
				s.step()
				v := s.db.View()
				var days []dates.Day
				for d := s.day - 12; d <= s.day+3; d++ {
					days = append(days, d)
				}
				zones := append(slices.Clone(s.inUse), s.spare...)
				idx := []*zonedb.ZoneIndex{v.ZoneIndex()}
				ext, ok := prev.Extend(v)
				if advance := v.Advance() != nil && prevEpoch+1 == v.Epoch(); ok != advance {
					t.Fatalf("epoch %d: Extend ok = %v, advance of the indexed epoch = %v", v.Epoch(), ok, advance)
				}
				if ok {
					extended++
					idx = append(idx, ext)
				}
				snapshotsMatch(t, v, zones, days, idx...)
				prev, prevEpoch = idx[len(idx)-1], v.Epoch()
			}
			for k, n := range s.drawn {
				drawn[k] += n
			}
		}
		for _, kind := range []string{"CloseZones with ragged ends", "Close over a back-dated add into sealed days"} {
			if drawn[kind] == 0 {
				t.Errorf("no script drew %q", kind)
			}
		}
		if extended == 0 {
			t.Error("no epoch extended its parent's index")
		}
	})
}

// loadedView returns v after a round trip through its segment encoding.
func loadedView(tb testing.TB, v *zonedb.View) *zonedb.View {
	tb.Helper()
	var buf bytes.Buffer
	if err := v.WriteSegment(&buf); err != nil {
		tb.Fatal(err)
	}
	db, err := zonedb.ReadSegment(buf.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	return db.View()
}

// BenchmarkSnapshotOn renders snapshots of a scale-3 world, a zone and a
// day at a time, the way /v1/zones/{zone}/snapshot asks for them: from
// the zone index, by the filtered walk View.SnapshotOn takes, and by the
// walk it replaced; build is the index's own cost, paid once a view, and
// build/loaded its cost on the world loaded from its segment, dzdbd's
// first index after -load or SIGHUP.
func BenchmarkSnapshotOn(b *testing.B) {
	cfg := sim.DefaultConfig(3)
	cfg.Seed = 1
	w, err := sim.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
	v := w.ZoneDB().View()
	zones, last := v.Zones(), v.CloseDay()
	x := v.ZoneIndex()
	render := func(b *testing.B, snapshotOn func(dnsname.Name, dates.Day) *dnszone.Snapshot) {
		rng := rand.New(rand.NewSource(1))
		var buf []byte
		for i := 0; i < b.N; i++ {
			day := last - dates.Day(rng.Intn(int(last-cfg.Start)/2+1))
			buf = snapshotOn(zones[rng.Intn(len(zones))], day).AppendTo(buf[:0])
		}
	}
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.ZoneIndex()
		}
	})
	b.Run("build/loaded", func(b *testing.B) {
		loaded := loadedView(b, v)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loaded.ZoneIndex()
		}
	})
	b.Run("index", func(b *testing.B) { render(b, x.SnapshotOn) })
	b.Run("walk", func(b *testing.B) { render(b, v.SnapshotOn) })
	b.Run("reference", func(b *testing.B) { render(b, v.SnapshotOnReference) })
}
