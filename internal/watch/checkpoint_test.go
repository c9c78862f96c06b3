package watch

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/whois"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// watchingCheckpoint saves an engine that has seen shop.org renamed from
// ns1.victim.com to the hijackable ns1.victim123.biz, so the checkpoint
// holds one sacrificial candidate watching victim123.biz. It returns the
// checkpoint, the engine's side inputs, and the day victim123.biz is
// registered.
func watchingCheckpoint(t testing.TB) ([]byte, *whois.History, *registry.Directory, *delta.DayDelta) {
	t.Helper()
	shop := dnsname.Name("shop.org")
	victim, sac := dnsname.Name("ns1.victim.com"), dnsname.Name("ns1.victim123.biz")
	d0 := dates.FromYMD(2020, 1, 1)
	wh := whois.New()
	wh.Observe("victim.com", d0, "Enom")
	dir := sim.StandardDirectory()
	e := New(wh, dir)
	for _, dd := range []*delta.DayDelta{
		{Day: d0, DomainsAdded: []dnsname.Name{shop}, EdgesAdded: []zonedb.Edge{{Domain: shop, NS: victim}}},
		{Day: d0 + 1, EdgesRemoved: []zonedb.Edge{{Domain: shop, NS: victim}}, EdgesAdded: []zonedb.Edge{{Domain: shop, NS: sac}}},
	} {
		if _, err := e.ApplyDay(dd); err != nil {
			t.Fatal(err)
		}
	}
	if f := e.Funnel(); f.Sacrificial != 1 {
		t.Fatalf("funnel %+v, want one sacrificial", f)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), wh, dir, &delta.DayDelta{Day: d0 + 2, DomainsAdded: []dnsname.Name{"victim123.biz"}}
}

// TestRestoreRefusals: a checkpoint whose candidate list the engine
// cannot stand on is refused with an error — not a panic, and not a
// registration watch that fires twice for one registration.
func TestRestoreRefusals(t *testing.T) {
	good, wh, dir, register := watchingCheckpoint(t)
	e, err := Restore(bytes.NewReader(good), wh, dir)
	if err != nil {
		t.Fatalf("Restore(good): %v", err)
	}
	alerts, err := e.ApplyDay(register)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Type != AlertHijacked {
		t.Fatalf("registering the watched domain: alerts %+v, want one hijacked", alerts)
	}

	var cp Checkpoint
	if err := json.Unmarshal(good, &cp); err != nil {
		t.Fatal(err)
	}
	editState := func(fn func(c *Checkpoint)) []byte {
		c := cp
		c.Glue = slices.Clone(cp.Glue)
		c.Domains = slices.Clone(cp.Domains)
		c.Edges = slices.Clone(cp.Edges)
		c.Seen = slices.Clone(cp.Seen)
		c.Cands = nil
		for _, st := range cp.Cands {
			c.Cands = append(c.Cands, st.clone())
		}
		fn(&c)
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	edit := func(fn func(cands []*nsState) []*nsState) []byte {
		return editState(func(c *Checkpoint) { c.Cands = fn(c.Cands) })
	}
	sacrificial := func(cands []*nsState) *nsState {
		for _, st := range cands {
			if st.Phase == detect.OutSacrificial {
				return st
			}
		}
		t.Fatal("checkpoint has no sacrificial candidate")
		return nil
	}
	for _, tc := range []struct {
		name, want string
		ckpt       []byte
	}{
		{"null candidate", "has no name", edit(func(c []*nsState) []*nsState { return append(c, nil) })},
		{"nameless candidate", "has no name", edit(func(c []*nsState) []*nsState {
			return append(c, &nsState{HijackedOn: dates.None})
		})},
		{"duplicate candidate", "twice", edit(func(c []*nsState) []*nsState {
			return append(c, sacrificial(c).clone())
		})},
		{"phase past the last", "unknown phase", edit(func(c []*nsState) []*nsState {
			sacrificial(c).Phase = detect.OutSacrificial + 1
			return c
		})},
		{"negative phase", "unknown phase", edit(func(c []*nsState) []*nsState {
			sacrificial(c).Phase = -1
			return c
		})},
		{"null spans", "no spans", []byte(strings.Replace(string(edit(func(c []*nsState) []*nsState {
			sacrificial(c).span("shop.org")
			return c
		})), `"shop.org": []`, `"shop.org": null`, 1))},
		// The engine keeps one record per name, where the checkpoint's
		// lists used to fill maps that collapsed a repeat silently.
		{"duplicate glue", "glue for ns1.victim.com twice", editState(func(c *Checkpoint) {
			c.Glue = append(c.Glue, "ns1.victim.com", "ns1.victim.com")
		})},
		{"duplicate domain", "domain shop.org twice", editState(func(c *Checkpoint) {
			c.Domains = append(c.Domains, c.Domains...)
		})},
		{"duplicate edge", "edge shop.org -> ns1.victim123.biz twice", editState(func(c *Checkpoint) {
			c.Edges = append(c.Edges, c.Edges...)
		})},
		{"duplicate seen", "seen twice", editState(func(c *Checkpoint) {
			c.Seen = append(c.Seen, c.Seen[0])
		})},
		{"seen with no day", "no first day", editState(func(c *Checkpoint) {
			c.Seen[0].First = dates.None
		})},
		{"edge to a nameserver never seen", "never saw", editState(func(c *Checkpoint) {
			c.Seen = nil
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Restore(bytes.NewReader(tc.ckpt), wh, dir)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, want an error saying %q", err, tc.want)
			}
		})
	}
}

// FuzzRestore: no input makes Restore or Save panic, and a checkpoint
// Restore accepts saves to bytes that restore and save to themselves.
func FuzzRestore(f *testing.F) {
	good, wh, dir, _ := watchingCheckpoint(f)
	f.Add(good)
	f.Add([]byte(`{"version":1,"last_day":"none","candidates":[null]}`))
	f.Add([]byte(`{"version":1,"last_day":"2020-01-02","candidates":[{"ns":"a.biz","first":"2020-01-02","phase":3,"class":1,"reg_domain":"a.biz","hijacked_on":"none"},{"ns":"a.biz","first":"2020-01-02","phase":3,"hijacked_on":"none"}]}`))
	f.Add([]byte(`{"version":1,"last_day":"2020-01-02","candidates":[{"ns":"a.biz","phase":0,"domains":{"x.org":[["2020-01-01","2019-01-01"]]}}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := Restore(bytes.NewReader(b), wh, dir)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := e.Save(&first); err != nil {
			t.Fatalf("Save: %v", err)
		}
		e2, err := Restore(bytes.NewReader(first.Bytes()), wh, dir)
		if err != nil {
			t.Fatalf("re-saved checkpoint refused: %v\n%s", err, first.Bytes())
		}
		if err := e2.Save(&second); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save, restore, save is not stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
