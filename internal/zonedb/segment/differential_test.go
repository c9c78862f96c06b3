package segment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/sim"
	"repro/internal/zonedb"
)

// simView simulates the standard ecosystem and returns its sealed view.
func simView(tb testing.TB, scale float64, seed int64) *zonedb.View {
	tb.Helper()
	cfg := sim.DefaultConfig(scale)
	cfg.Seed = seed
	w, err := sim.NewWorld(cfg)
	if err != nil {
		tb.Fatalf("building world: %v", err)
	}
	if err := w.Run(); err != nil {
		tb.Fatalf("simulating: %v", err)
	}
	return w.ZoneDB().View()
}

// TestSegmentAndArchiveLoadTheSameDatabase is the differential check on
// the two encodings of a sealed view, over simulated worlds and their
// shard projections: what Load makes of a sealed segment and what
// ReadFrom makes of the text archive archive byte-identically, to the
// view's own archive, and answer the order-revealing queries alike;
// sealing is deterministic.
func TestSegmentAndArchiveLoadTheSameDatabase(t *testing.T) {
	empty := zonedb.New()
	empty.Close(100)
	views := map[string]*zonedb.View{"empty": empty.View()}
	for seed := int64(1); seed <= 3; seed++ {
		whole := simView(t, 1, seed)
		views[fmt.Sprintf("seed%d/whole", seed)] = whole
		views[fmt.Sprintf("seed%d/shard0of2", seed)] = whole.FilterShard(0, 2).View()
		views[fmt.Sprintf("seed%d/shard1of2", seed)] = whole.FilterShard(1, 2).View()
	}
	for name, v := range views {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st := reopen(t, dir)
			var sealed [2][]byte
			for i := range sealed {
				info, err := st.Seal(v, "diff")
				if err != nil {
					t.Fatalf("Seal: %v", err)
				}
				if sealed[i], err = os.ReadFile(filepath.Join(dir, info.Name)); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(sealed[0], sealed[1]) {
				t.Error("sealing the same view twice wrote different segments")
			}

			fromSeg, _, err := reopen(t, dir).LoadLatest()
			if err != nil {
				t.Fatalf("LoadLatest: %v", err)
			}
			var text bytes.Buffer
			if err := v.WriteArchive(&text); err != nil {
				t.Fatal(err)
			}
			want := append([]byte(nil), text.Bytes()...)
			fromText, err := zonedb.ReadFrom(&text)
			if err != nil {
				t.Fatalf("ReadFrom: %v", err)
			}
			if got := archiveBytes(t, fromSeg); !bytes.Equal(got, want) {
				t.Error("the loaded segment does not archive to the sealed view's bytes")
			}
			if got := archiveBytes(t, fromText); !bytes.Equal(got, want) {
				t.Error("the read-back archive does not archive to the sealed view's bytes")
			}

			a, b := fromSeg.View(), fromText.View()
			if a.NumDomains() != b.NumDomains() || a.NumNameservers() != b.NumNameservers() {
				t.Errorf("segment holds %d domains / %d nameservers, archive %d / %d",
					a.NumDomains(), a.NumNameservers(), b.NumDomains(), b.NumNameservers())
			}
			b.Nameservers(func(ns dnsname.Name) bool {
				if !reflect.DeepEqual(a.EdgesOf(ns), b.EdgesOf(ns)) {
					t.Errorf("EdgesOf(%s): segment %v, archive %v", ns, a.EdgesOf(ns), b.EdgesOf(ns))
					return false
				}
				return true
			})
			b.Domains(func(d dnsname.Name) bool {
				if !reflect.DeepEqual(nsHistory(a, d), nsHistory(b, d)) {
					t.Errorf("EachNSOf(%s): segment %v, archive %v", d, nsHistory(a, d), nsHistory(b, d))
					return false
				}
				return true
			})
		})
	}
}

// nsHistory collects what EachNSOf says of one domain.
func nsHistory(v *zonedb.View, domain dnsname.Name) map[dnsname.Name]*interval.Set {
	out := make(map[dnsname.Name]*interval.Set)
	v.EachNSOf(domain, func(ns dnsname.Name, spans *interval.Set) bool {
		out[ns] = spans
		return true
	})
	return out
}
