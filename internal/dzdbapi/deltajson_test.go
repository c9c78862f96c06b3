package dzdbapi

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/sim"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// FuzzDeltasPage holds the /v1/deltas page writer to encoding/json with
// SetIndent("", "  "), which it replaced, on pages the fuzzer builds:
// empty, null and quiet-day windows, None days, every list of a day,
// names and cursors that need escaping, with and without next_cursor.
func FuzzDeltasPage(f *testing.F) {
	// The writer spells out each exported field of the page, as
	// encoding/json encodes those only: one added to these types must be
	// added to it too.
	for typ, n := range map[reflect.Type]int{
		reflect.TypeOf(DeltasResponse{}): 5, reflect.TypeOf(DayDeltaJSON{}): 2,
		reflect.TypeOf(delta.DayDelta{}): 7, reflect.TypeOf(zonedb.Edge{}): 2,
	} {
		exported := 0
		for i := range typ.NumField() {
			if typ.Field(i).IsExported() {
				exported++
			}
		}
		if exported != n {
			f.Fatalf("%s has %d exported fields, the page writer knows %d", typ, exported, n)
		}
	}
	f.Add(uint64(7), int32(d(0)), int32(d(200)), "", []byte{1, 0, 0x3f, 1, 2, 3, 4, 5, 6, 7, 8, 9}, "odd.com")
	f.Add(uint64(0), int32(dates.None), int32(dates.None), "", []byte{}, "")
	f.Add(uint64(1<<63), int32(d(5)), int32(d(4)), "", []byte{0}, "")
	f.Add(uint64(2), int32(d(3)), int32(d(9)), "MjAxNi0wNy0xNQ", []byte{1, 0, 0, 0x40, 0x81, 2, 2}, "")
	f.Add(uint64(3), int32(-800000), int32(3000000), "<&>\"\\\x01 ", []byte{1, 0x7f, 9, 9, 9, 9, 9, 9, 9}, "a<b>&\"\\ \xff.com")
	f.Fuzz(func(t *testing.T, epoch uint64, first, last int32, cursor string, shape []byte, odd string) {
		names := []dnsname.Name{"a.com", "ns1.b.net", "x.org", dnsname.Name(odd)}
		next := func() int {
			if len(shape) == 0 {
				return 0
			}
			b := shape[0]
			shape = shape[1:]
			return int(b)
		}
		resp := &DeltasResponse{Epoch: epoch, FirstDay: dates.Day(first), CloseDay: dates.Day(last), NextCursor: cursor}
		if next() > 0 {
			resp.Deltas = []DayDeltaJSON{}
		}
		for day := dates.Day(first); len(shape) > 0; day++ {
			lists := next()
			dd := delta.DayDelta{Day: day}
			if lists&0x40 != 0 {
				dd.Day = dates.None
			}
			for i, l := range []*[]dnsname.Name{&dd.DomainsAdded, &dd.DomainsRemoved, &dd.GlueAdded, &dd.GlueRemoved} {
				if lists&(1<<i) != 0 {
					for n := 1 + next()%3; n > 0; n-- {
						*l = append(*l, names[next()%len(names)])
					}
				}
			}
			for i, l := range []*[]zonedb.Edge{&dd.EdgesAdded, &dd.EdgesRemoved} {
				if lists&(0x10<<i) != 0 {
					for n := 1 + next()%3; n > 0; n-- {
						*l = append(*l, zonedb.Edge{Domain: names[next()%len(names)], NS: names[next()%len(names)]})
					}
				}
			}
			changes := dd.Changes()
			if lists&0x80 != 0 {
				changes = -next()
			}
			resp.Deltas = append(resp.Deltas, DayDeltaJSON{DayDelta: dd, Changes: changes})
		}

		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendDeltasPage(nil, resp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("page writer wrote\n%s\nencoding/json\n%s", got, want.Bytes())
		}
	})
}

// BenchmarkDeltasPage renders the 30-day pages of a scale-3 world's feed
// that serve-churn's deltas?from= requests ask for, by the page writer
// and by encoding/json with the indent it replaced.
func BenchmarkDeltasPage(b *testing.B) {
	cfg := sim.DefaultConfig(3)
	cfg.Seed = 1
	w, err := sim.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
	st := computeState(w.ZoneDB().View())
	_, last := st.Feed.Window()
	var pages []*DeltasResponse
	for back := 0; back < 365; back += 5 {
		pages = append(pages, deltaPage(st, deltasQuery{from: last - dates.Day(back), page: Page{limit: 30}}))
	}
	b.Run("writer", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendDeltasPage(buf[:0], pages[i%len(pages)])
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(pages[i%len(pages)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
