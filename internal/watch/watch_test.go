package watch

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/dzdbapi"
	"repro/internal/sim"
	"repro/internal/whois"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// buildWorld simulates the standard ecosystem and returns it with its
// sealed view and delta index.
func buildWorld(t testing.TB, scale float64, seed int64) (*sim.World, *zonedb.View, *delta.Index) {
	t.Helper()
	cfg := sim.DefaultConfig(scale)
	cfg.Seed = seed
	w, err := sim.NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	v := w.ZoneDB().View()
	if !v.Closed() {
		t.Fatal("simulated view not closed")
	}
	idx, err := delta.Build(v)
	if err != nil {
		t.Fatalf("delta.Build: %v", err)
	}
	return w, v, idx
}

// replay applies every day of the index through the engine, returning
// all alerts.
func replay(t *testing.T, e *Engine, idx *delta.Index, from, to dates.Day) []Alert {
	t.Helper()
	var alerts []Alert
	for d := from; d <= to; d++ {
		as, err := e.ApplyDay(idx.Day(d))
		if err != nil {
			t.Fatalf("ApplyDay(%s): %v", d, err)
		}
		alerts = append(alerts, as...)
	}
	return alerts
}

// diffResults fails the test on any divergence between the batch and
// incremental results.
func diffResults(t *testing.T, batch, inc *detect.Result) {
	t.Helper()
	if batch.Funnel != inc.Funnel {
		t.Errorf("funnel mismatch:\n batch %+v\n watch %+v", batch.Funnel, inc.Funnel)
	}
	if len(batch.Sacrificial) != len(inc.Sacrificial) {
		t.Fatalf("sacrificial count: batch %d, watch %d", len(batch.Sacrificial), len(inc.Sacrificial))
	}
	for i := range batch.Sacrificial {
		b, w := &batch.Sacrificial[i], &inc.Sacrificial[i]
		if b.NS != w.NS {
			t.Fatalf("record %d: batch NS %s, watch NS %s", i, b.NS, w.NS)
		}
		if b.Created != w.Created || b.Idiom != w.Idiom || b.Class != w.Class ||
			b.Registrar != w.Registrar || b.Original != w.Original ||
			b.RegDomain != w.RegDomain || b.Collision != w.Collision ||
			b.HijackedOn != w.HijackedOn {
			t.Errorf("%s: field mismatch\n batch %+v\n watch %+v", b.NS, *b, *w)
			continue
		}
		if len(b.Domains) != len(w.Domains) {
			t.Errorf("%s: %d affected domains in batch, %d in watch", b.NS, len(b.Domains), len(w.Domains))
			continue
		}
		for j := range b.Domains {
			bd, wd := b.Domains[j], w.Domains[j]
			if bd.Name != wd.Name || bd.Spans.String() != wd.Spans.String() {
				t.Errorf("%s: domain %d: batch %s %s, watch %s %s",
					b.NS, j, bd.Name, bd.Spans, wd.Name, wd.Spans)
			}
		}
	}
}

// loadedIndex returns v's database after a round trip through its
// segment encoding, and that database's delta index: a view with a name
// table, whose days carry ids.
func loadedIndex(t testing.TB, v *zonedb.View) (*zonedb.DB, *delta.Index) {
	t.Helper()
	var buf bytes.Buffer
	if err := v.WriteSegment(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := zonedb.ReadSegment(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := delta.Build(db.View())
	if err != nil {
		t.Fatal(err)
	}
	for d := idx.First(); d <= idx.Last(); d++ {
		if dd := idx.Day(d); dd.Changes() > 0 {
			if _, ok := dd.IDs(); !ok {
				t.Fatalf("%s: a loaded view's day carries no ids", d)
			}
		}
	}
	return db, idx
}

// checkTable fails unless the engine finds each record in exactly one
// place: a slot of the table from dictionary id to engine id holds the
// record that carries that id and that name, the name map holds only
// names outside the dictionary, and every record that carries state is
// in the one its dictionary id names. The ids marked watched are those of
// the registrable domains the watch holds.
func checkTable(t *testing.T, e *Engine) {
	t.Helper()
	if len(e.byDict) != e.dict.Len() || len(e.watching) != e.dict.Len() {
		t.Fatalf("tables of %d and %d slots for a dictionary of %d names", len(e.byDict), len(e.watching), e.dict.Len())
	}
	for did, w := range e.watching {
		if name := e.dict.Name(int32(did)); w != (len(e.regWatch[name]) > 0) {
			t.Fatalf("id %d (%s) is marked watched %v, but the watch holds %v", did, name, w, e.regWatch[name])
		}
	}
	for did, id := range e.byDict {
		if id < 0 {
			continue
		}
		if r, name := &e.recs[id], e.dict.Name(int32(did)); r.did != int32(did) || r.name != name || r.idle() {
			t.Fatalf("slot %d (%s) holds record %d, which carries dictionary id %d, name %s and state %v", did, name, id, r.did, r.name, !r.idle())
		}
	}
	for name, id := range e.ids {
		if did, in := e.dict.ID(name); in {
			t.Fatalf("the name map holds %s, whose dictionary id is %d", name, did)
		}
		if r := &e.recs[id]; r.did != -1 || r.name != name || r.idle() {
			t.Fatalf("the name map gives %s record %d, which carries dictionary id %d, name %s and state %v", name, id, r.did, r.name, !r.idle())
		}
	}
	for id := range e.recs {
		r := &e.recs[id]
		if r.idle() {
			continue
		}
		mapped, ok := e.ids[r.name]
		if r.did >= 0 && e.byDict[r.did] != int32(id) || r.did < 0 && (!ok || mapped != int32(id)) {
			t.Fatalf("record %d (%s, dictionary id %d) carries state, but neither the table nor the name map gives it", id, r.name, r.did)
		}
	}
}

// sameReplay fails unless alerts are want's and e saves the checkpoint
// whose SHA-256 is sum.
func sameReplay(t *testing.T, e *Engine, alerts, want []Alert, sum string) {
	t.Helper()
	if !slices.Equal(alerts, want) {
		t.Errorf("%d alerts, the live replay %d: the streams differ", len(alerts), len(want))
	}
	var ckpt bytes.Buffer
	if err := e.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(ckpt.Bytes()); hex.EncodeToString(got[:]) != sum {
		t.Errorf("final checkpoint (%d bytes) sha256 %x, want %s", ckpt.Len(), got, sum)
	}
}

// finalCheckpoints holds the SHA-256 of each seed's final Save bytes
// after TestReplayEquivalence's full replay (scale 2). Result covers only
// the candidates; these pin the rest of the engine's state too — glue,
// registrations, active delegations and first-seen days — and the
// checkpoint's byte layout. Any change to them is a change of verdict or
// of format.
var finalCheckpoints = map[int64]string{
	1: "f9af28e6319bfcf4357071a1933d929bbc4e4e722ffdc46293e7b745ff7620c5",
	2: "68dc4ded375e03266f3afe47e9cd59708985ffb72affd6786315c87263d5d003",
	3: "8145be9f6e69ca706a0fb6ebf9fa3f55688cf42902b77604c64d91c5e471683b",
	4: "8384dedf391d7d6d2a599bb38d27ca6ae32442422ea712dcdde3172ae350533b",
	5: "237581a4a9da3c55e33429d1250d58d4025a21e8ebd0a96def78854d1aeed265",
	6: "ba00c8ce74020b6d33a8255d77a65a1d9feb561808de77da2134fcd9eea13f73",
	7: "895789f5ae04fecee97698ce4486de9f4f942d8171de016d171aaf33475c846c",
	8: "e3823d415d0ac59f8cc8fcf46267ee9ed66bb4ace1bf88eb50b1a74237f5352e",
}

// TestReplayEquivalence replays the full simulated history through the
// incremental engine and demands the exact batch Detector output: same
// funnel, same sacrificial records, same per-domain delegation spans —
// and a final checkpoint whose bytes hash to finalCheckpoints.
// The sweep must draw every outcome the rules can reach — sink, marker
// and original matches, test and single-repository eliminations,
// unclassified candidates, hijacks — or it proves nothing about them.
// Seeds 1–8 draw all of those but never a retraction or a collision;
// TestDemotionAndHijack and detect's TestCollisionClassification hold
// those two paths.
//
// The live view's index is replayed by name. Each seed's history is also
// replayed by dictionary id, from the index of its view loaded from its
// segment; by name again, from that index's days after the /v1/deltas
// JSON, which carries no ids; and by id across a restart, restoring a
// mid-history checkpoint and going on with the index of another load,
// whose name table is not the first's. Every one must give the live
// replay's alerts byte for byte and its pinned checkpoint.
func TestReplayEquivalence(t *testing.T) {
	drawn := map[string]int{}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w, v, idx := buildWorld(t, 2, seed)
			batch := (&detect.Detector{DB: w.ZoneDB(), WHOIS: w.WHOIS(), Dir: w.Directory(),
				Cfg: detect.Config{SkipMining: true}}).RunContext(context.Background())

			e := New(w.WHOIS(), w.Directory())
			alerts := replay(t, e, idx, idx.First(), idx.Last())
			if e.LastDay() != v.CloseDay() {
				t.Fatalf("engine at %s, close day %s", e.LastDay(), v.CloseDay())
			}
			diffResults(t, batch, e.Result())
			sameReplay(t, e, alerts, alerts, finalCheckpoints[seed])
			replaysAlike(t, w, v, alerts, finalCheckpoints[seed])

			// Alert-stream bookkeeping must reconcile with the funnel.
			counts := map[string]int{}
			for _, a := range alerts {
				counts[a.Type]++
			}
			if got := counts[AlertSacrificial] - counts[AlertRetracted]; got != e.funnel.Sacrificial {
				t.Errorf("alerts: %d sacrificial - %d retracted = %d, funnel says %d",
					counts[AlertSacrificial], counts[AlertRetracted], got, e.funnel.Sacrificial)
			}
			hijacked := 0
			for _, s := range batch.Sacrificial {
				if s.Hijacked() {
					hijacked++
				}
			}
			if counts[AlertHijacked] != hijacked {
				t.Errorf("alerts: %d hijacked, batch found %d", counts[AlertHijacked], hijacked)
			}

			f := batch.Funnel
			for method, n := range batch.Stats.MatchesByMethod {
				drawn[method] += n
			}
			drawn["test"] += f.TestNameservers
			drawn["single-repo"] += f.SingleRepoViolations
			drawn["unclassified"] += f.Unclassified
			drawn["hijacked"] += hijacked
		})
	}
	for _, outcome := range []string{"sink", "marker", "original", "test", "single-repo", "unclassified", "hijacked"} {
		if drawn[outcome] == 0 {
			t.Errorf("no seed drew a %s outcome", outcome)
		}
	}
	t.Logf("outcomes drawn over the sweep: %v", drawn)
	t.Run("released and re-added", testReleasedAndReAdded)
}

// replaysAlike replays the history of the simulated world w, whose live
// view v replayed by name gave want and the checkpoint whose SHA-256 is
// sum, by the three other ways TestReplayEquivalence names.
func replaysAlike(t *testing.T, w *sim.World, v *zonedb.View, want []Alert, sum string) {
	db, idx := loadedIndex(t, v)
	t.Run("loaded", func(t *testing.T) {
		e := New(w.WHOIS(), w.Directory())
		alerts := replay(t, e, idx, idx.First(), idx.Last())
		checkTable(t, e)
		sameReplay(t, e, alerts, want, sum)
	})

	t.Run("feed", func(t *testing.T) {
		ts := httptest.NewServer(dzdbapi.New(db))
		defer ts.Close()
		e := New(w.WHOIS(), w.Directory())
		var alerts []Alert
		f := &Follower{
			Client:  &dzdbapi.Client{BaseURL: ts.URL},
			Engine:  e,
			OnAlert: func(a Alert) { alerts = append(alerts, a) },
			Once:    true,
		}
		if err := f.Run(context.Background()); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if e.dict != nil {
			t.Error("the feed's days were applied by id")
		}
		sameReplay(t, e, alerts, want, sum)
	})

	t.Run("restored onto another load", func(t *testing.T) {
		mid := idx.First() + (idx.Last()-idx.First())/2
		e1 := New(w.WHOIS(), w.Directory())
		alerts := replay(t, e1, idx, idx.First(), mid)
		var ckpt bytes.Buffer
		if err := e1.Save(&ckpt); err != nil {
			t.Fatal(err)
		}
		e2, err := Restore(&ckpt, w.WHOIS(), w.Directory())
		if err != nil {
			t.Fatal(err)
		}
		// Another load of the history with a name registered and dropped
		// before mid, which sorts first: every name's id is one more.
		other, err := zonedb.ReadSegment(segmentOf(t, v))
		if err != nil {
			t.Fatal(err)
		}
		other.DomainAdded("com", "0.com", idx.First())
		other.DomainRemoved("com", "0.com", idx.First()+1)
		other.Close(v.CloseDay())
		_, idx2 := loadedIndex(t, other.View())
		first, _ := idx2.Day(idx.First()).IDs()
		later, _ := idx.Day(idx.First()).IDs()
		if first.Dict.Name(0) != "0.com" || first.Dict.Len() != later.Dict.Len()+1 {
			t.Fatalf("the second load's name table starts %s and holds %d names, the first's %d", first.Dict.Name(0), first.Dict.Len(), later.Dict.Len())
		}
		alerts = append(alerts, replay(t, e2, idx2, mid+1, idx2.Last())...)
		checkTable(t, e2)
		sameReplay(t, e2, alerts, want, sum)
	})
}

// segmentOf returns v's segment payload.
func segmentOf(t testing.TB, v *zonedb.View) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := v.WriteSegment(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// testReleasedAndReAdded: a domain and a glue host that lose all their
// state give their records back, and when they return on a later day,
// by id, they are given records again. Day for day, the replay by id
// keeps the table exact and saves what the replay by name saves, up to a
// hijack alert. An engine restored from the replay by id's checkpoint
// before the hijack, and going on by id, raises the same alerts: the
// table it switches to marks the watch the checkpoint rebuilt.
func testReleasedAndReAdded(t *testing.T) {
	d0 := dates.FromYMD(2020, 1, 1)
	shop, gone, host := dnsname.Name("shop.org"), dnsname.Name("gone.org"), dnsname.Name("host.gone.org")
	db := zonedb.New()
	db.DomainAdded("org", shop, d0)
	db.DelegationAdded("org", shop, "ns1.victim.com", d0)
	db.DelegationRemoved("org", shop, "ns1.victim.com", d0+1)
	db.DelegationAdded("org", shop, "ns1.victim123.biz", d0+1)
	for _, on := range []dates.Day{d0, d0 + 4} {
		db.DomainAdded("org", gone, on)
		db.GlueAdded("org", host, on)
		db.DelegationAdded("org", gone, "ns1.victim.com", on)
		db.DomainRemoved("org", gone, on+2)
		db.GlueRemoved("org", host, on+2)
		db.DelegationRemoved("org", gone, "ns1.victim.com", on+2)
	}
	db.DomainAdded("biz", "victim123.biz", d0+5)
	db.Close(d0 + 7)
	byName, err := delta.Build(db.View())
	if err != nil {
		t.Fatal(err)
	}
	_, byID := loadedIndex(t, db.View())

	wh := whois.New()
	wh.Observe("victim.com", d0, "Enom")
	dir := sim.StandardDirectory()
	named, numbered := New(wh, dir), New(wh, dir)
	var resumed *Engine
	var hijacks int
	released := map[dnsname.Name]bool{}
	for d := d0; d <= d0+7; d++ {
		want, err := named.ApplyDay(byName.Day(d))
		if err != nil {
			t.Fatal(err)
		}
		got, err := numbered.ApplyDay(byID.Day(d))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: alerts by id %+v, by name %+v", d, got, want)
		}
		if resumed != nil {
			again, err := resumed.ApplyDay(byID.Day(d))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(again, want) {
				t.Fatalf("%s: alerts by id after a restore %+v, by name %+v", d, again, want)
			}
			if resumed.dict != nil { // a quiet day carries no ids
				checkTable(t, resumed)
			}
		}
		for _, a := range got {
			if a.Type == AlertHijacked {
				hijacks++
			}
		}
		checkTable(t, numbered)
		var g, w bytes.Buffer
		if err := numbered.Save(&g); err != nil {
			t.Fatal(err)
		}
		if err := named.Save(&w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("%s: the replay by id saves\n%s\nby name\n%s", d, g.Bytes(), w.Bytes())
		}
		if d == d0+2 {
			if resumed, err = Restore(&g, wh, dir); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range []dnsname.Name{gone, host} {
			if _, r := numbered.lookup(-1, n); r == nil {
				released[n] = true
			} else if released[n] && d < d0+4 {
				t.Fatalf("%s: %s has a record again before it is re-added", d, n)
			}
		}
	}
	if !released[gone] || !released[host] {
		t.Errorf("released over the replay: %v, want %s and %s", released, gone, host)
	}
	for _, n := range []dnsname.Name{gone, host} {
		if _, r := numbered.lookup(-1, n); r != nil {
			t.Errorf("%s still has a record after its second removal", n)
		}
	}
	if hijacks != 1 {
		t.Errorf("%d hijack alerts, want 1", hijacks)
	}
}

// TestIDReplayKeepsNoNameMap: a replay by id finds every record through
// the table from dictionary id to engine id, and the name map stays empty
// day after day. A day without ids puts in the map only a name the
// dictionary lacks; a name it holds takes its slot, where a later day by
// id finds the same record.
func TestIDReplayKeepsNoNameMap(t *testing.T) {
	w, v, _ := buildWorld(t, 2, 1)
	_, idx := loadedIndex(t, v)
	e := New(w.WHOIS(), w.Directory())
	for d := idx.First(); d <= idx.Last(); d++ {
		if _, err := e.ApplyDay(idx.Day(d)); err != nil {
			t.Fatal(err)
		}
		if len(e.ids) != 0 {
			t.Fatalf("%s: the name map holds %d names after a day by id", d, len(e.ids))
		}
	}
	checkTable(t, e)

	d0 := dates.FromYMD(2020, 1, 1)
	inside, outside := dnsname.Name("host.shop.org"), dnsname.Name("ns1.elsewhere.net")
	db := zonedb.New()
	db.DomainAdded("org", "shop.org", d0)
	db.GlueAdded("org", inside, d0+1)
	db.GlueRemoved("org", inside, d0+2)
	db.Close(d0 + 3)
	_, byID := loadedIndex(t, db.View())
	e = New(whois.New(), sim.StandardDirectory())
	for _, dd := range []*delta.DayDelta{
		byID.Day(d0),
		{Day: d0 + 1, GlueAdded: []dnsname.Name{inside, outside}},
	} {
		if _, err := e.ApplyDay(dd); err != nil {
			t.Fatal(err)
		}
	}
	checkTable(t, e)
	outID, out := e.lookup(-1, outside)
	if len(e.ids) != 1 || out == nil || !out.glue || e.ids[outside] != outID {
		t.Fatalf("after glue for %s by name, the name map is %v", outside, e.ids)
	}
	did, ok := e.dict.ID(inside)
	if id, in := e.lookup(-1, inside); !ok || in == nil || !in.glue || e.byDict[did] != id {
		t.Fatalf("after glue for %s by name, its slot %d (%v) holds record %d", inside, did, ok, e.byDict[did])
	}

	// The day by id removes inside's glue: it finds the record the day by
	// name gave it, which goes, and outside's stays as it was.
	if _, err := e.ApplyDay(byID.Day(d0 + 2)); err != nil {
		t.Fatal(err)
	}
	checkTable(t, e)
	if _, in := e.lookup(-1, inside); in != nil || e.byDict[did] != -1 {
		t.Errorf("%s still has record %d after its glue went by id", inside, e.byDict[did])
	}
	if id, r := e.lookup(-1, outside); id != outID || r == nil || !r.glue || len(e.ids) != 1 {
		t.Errorf("%s has record %d (glue %v) after a day by id, had %d; the name map is %v", outside, id, r != nil && r.glue, outID, e.ids)
	}
}

// TestCheckpointRestoreMidHistory kills the engine mid-replay, restores
// it from its checkpoint, finishes the replay, and demands (a) the same
// final result as an uninterrupted run and (b) a byte-identical alert
// stream across the cut — no loss, no duplication, no seq gap.
func TestCheckpointRestoreMidHistory(t *testing.T) {
	w, _, idx := buildWorld(t, 2, 1)

	full := New(w.WHOIS(), w.Directory())
	fullAlerts := replay(t, full, idx, idx.First(), idx.Last())

	mid := idx.First() + (idx.Last()-idx.First())/2
	e1 := New(w.WHOIS(), w.Directory())
	part1 := replay(t, e1, idx, idx.First(), mid)

	var buf bytes.Buffer
	if err := e1.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	e1 = nil // the first engine is dead; only its checkpoint survives

	e2, err := Restore(bytes.NewReader(buf.Bytes()), w.WHOIS(), w.Directory())
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if e2.LastDay() != mid {
		t.Fatalf("restored engine at %s, want %s", e2.LastDay(), mid)
	}
	// Replaying an already-applied day must be refused, not double-counted.
	if _, err := e2.ApplyDay(idx.Day(mid)); err == nil {
		t.Fatal("ApplyDay(mid) after restore: want ErrStale, got nil")
	}
	part2 := replay(t, e2, idx, mid+1, idx.Last())

	combined := append(append([]Alert{}, part1...), part2...)
	if len(combined) != len(fullAlerts) {
		t.Fatalf("alert count: split %d, uninterrupted %d", len(combined), len(fullAlerts))
	}
	for i := range combined {
		if combined[i] != fullAlerts[i] {
			t.Fatalf("alert %d diverges:\n split %+v\n full  %+v", i, combined[i], fullAlerts[i])
		}
	}
	diffResults(t, full.Result(), e2.Result())

	// The restored-then-finished engine holds the uninterrupted one's
	// whole state, not only its verdicts: the two save the same bytes.
	var want bytes.Buffer
	if err := full.Save(&want); err != nil {
		t.Fatalf("Save(full): %v", err)
	}
	buf.Reset()
	if err := e2.Save(&buf); err != nil {
		t.Fatalf("Save(final): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Errorf("restored engine saves %d bytes, uninterrupted %d: checkpoints differ", buf.Len(), want.Len())
	}

	// A second checkpoint cycle at the very end must also round-trip.
	e3, err := Restore(bytes.NewReader(buf.Bytes()), w.WHOIS(), w.Directory())
	if err != nil {
		t.Fatalf("Restore(final): %v", err)
	}
	diffResults(t, full.Result(), e3.Result())
	if e3.Seq() != full.Seq() {
		t.Errorf("restored seq %d, uninterrupted %d", e3.Seq(), full.Seq())
	}
}
