package dzdbapi

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dates"
	"repro/internal/sim"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
)

// TestSnapshotAcrossAdvances replays the last days of a small world into
// a server, one Close a day, and holds every zone's snapshot on days
// around each epoch's close to View.SnapshotOn of the same view, byte for
// byte. Readers ask three at a time, so the first request's build or
// extension of the zone index races the others (under -race). An epoch
// whose predecessor built its index starts from it; one whose
// predecessor went unread holds nothing of it and builds its own.
func TestSnapshotAcrossAdvances(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.Seed = 2
	w, err := sim.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	hist, err := delta.Build(w.ZoneDB().View())
	if err != nil {
		t.Fatal(err)
	}
	apply := func(db *zonedb.DB, dd *delta.DayDelta) {
		for _, e := range dd.EdgesRemoved {
			db.DelegationRemoved(e.Domain.TLD(), e.Domain, e.NS, dd.Day)
		}
		for _, h := range dd.GlueRemoved {
			db.GlueRemoved(h.TLD(), h, dd.Day)
		}
		for _, d := range dd.DomainsRemoved {
			db.DomainRemoved(d.TLD(), d, dd.Day)
		}
		for _, d := range dd.DomainsAdded {
			db.DomainAdded(d.TLD(), d, dd.Day)
		}
		for _, h := range dd.GlueAdded {
			db.GlueAdded(h.TLD(), h, dd.Day)
		}
		for _, e := range dd.EdgesAdded {
			db.DelegationAdded(e.Domain.TLD(), e.Domain, e.NS, dd.Day)
		}
	}
	live, d0 := zonedb.New(), hist.Last()-30
	for d := hist.First(); d <= d0; d++ {
		apply(live, hist.Day(d))
	}
	srv := New(live)
	live.Close(d0)

	rng := rand.New(rand.NewSource(1))
	read, extended := false, 0
	for d := d0 + 1; d <= hist.Last(); d++ {
		apply(live, hist.Day(d))
		live.Close(d)
		st, v := srv.state.Load(), live.View()
		if got := st.zones.parent != nil; got != read {
			t.Fatalf("%s: the epoch holds its predecessor's index = %v, want %v", d, got, read)
		}
		if read {
			extended++
		}
		if read = rng.Intn(4) > 0; !read {
			continue
		}
		var paths []string
		var want [][]byte
		for _, z := range v.Zones() {
			for _, day := range []dates.Day{d, d - 1, d0 - 3, hist.First() + dates.Day(rng.Intn(int(d-hist.First())))} {
				paths = append(paths, "/v1/zones/"+string(z)+"/snapshot?date="+day.String())
				want = append(want, v.SnapshotOn(z, day).AppendTo(nil))
			}
		}
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := range paths {
					i = (i + r*len(paths)/3) % len(paths)
					if got := body(t, srv, paths[i]); !bytes.Equal(got, want[i]) {
						t.Errorf("epoch %d: GET %s\n got %s\nwant %s", st.Epoch, paths[i], got, want[i])
						return
					}
				}
			}(r)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	if extended < 10 {
		t.Fatalf("only %d epochs started from their predecessor's index", extended)
	}
}
