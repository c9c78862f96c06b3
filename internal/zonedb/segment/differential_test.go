package segment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
// the two ways a sealed view is saved, over simulated worlds and their
// shard projections: what Load makes of a sealed segment and what
// ReadFile makes of a WriteFile archive byte-identically, to the view's
// own archive; the file WriteFile writes is the segment Seal writes; and
// sealing is deterministic. (zonedb's TestSegmentMatchesArchive holds
// the decoded tables, index order included, to the text reference.)
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
			file := filepath.Join(t.TempDir(), "saved.dzdb")
			if err := WriteFile(file, v); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			if written, err := os.ReadFile(file); err != nil || !bytes.Equal(written, sealed[0]) {
				t.Errorf("WriteFile wrote other bytes than Seal (read err %v)", err)
			}

			fromSeg, _, err := reopen(t, dir).LoadLatest()
			if err != nil {
				t.Fatalf("LoadLatest: %v", err)
			}
			fromFile, err := ReadFile(file)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			var want bytes.Buffer
			if err := v.WriteArchive(&want); err != nil {
				t.Fatal(err)
			}
			if got := archiveBytes(t, fromSeg); !bytes.Equal(got, want.Bytes()) {
				t.Error("the loaded segment does not archive to the sealed view's bytes")
			}
			if got := archiveBytes(t, fromFile); !bytes.Equal(got, want.Bytes()) {
				t.Error("the read-back file does not archive to the saved view's bytes")
			}
		})
	}
}
