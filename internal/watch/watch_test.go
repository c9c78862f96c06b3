package watch

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/sim"
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
			var ckpt bytes.Buffer
			if err := e.Save(&ckpt); err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(ckpt.Bytes()); hex.EncodeToString(sum[:]) != finalCheckpoints[seed] {
				t.Errorf("final checkpoint (%d bytes) sha256 %x, want %s", ckpt.Len(), sum, finalCheckpoints[seed])
			}

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
