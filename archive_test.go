package riskybiz

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/detect"
	"repro/internal/sim"
	"repro/internal/whois"
	"repro/internal/zonedb/segment"
)

// TestDetectionFromArchivedDataset saves the zone database (a segment
// file, as riskybiz -save-data writes it) and WHOIS history, reloads
// them, and re-runs detection with the public registry directory — the
// "work from saved data" path must yield exactly the same funnel and
// classification as the in-memory run.
func TestDetectionFromArchivedDataset(t *testing.T) {
	st := sharedStudy(t)

	path := filepath.Join(t.TempDir(), "dataset.dzdb")
	if err := segment.WriteFile(path, st.World.ZoneDB().View()); err != nil {
		t.Fatal(err)
	}
	var wbuf bytes.Buffer
	if err := st.World.WHOIS().WriteArchive(&wbuf); err != nil {
		t.Fatal(err)
	}
	db, err := segment.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	who, err := whois.ReadFrom(&wbuf)
	if err != nil {
		t.Fatal(err)
	}

	det := &detect.Detector{
		DB:    db,
		WHOIS: who,
		Dir:   sim.StandardDirectory(),
		Cfg:   detect.Config{SkipMining: true},
	}
	res := det.RunContext(context.Background())

	orig := st.Result.Funnel
	got := res.Funnel
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("funnel differs after archive round trip:\n  live    %+v\n  archive %+v", orig, got)
	}
	// Spot-check classification parity for every live detection.
	for i := range st.Result.Sacrificial {
		s := &st.Result.Sacrificial[i]
		r := res.Lookup(s.NS)
		if r == nil {
			t.Fatalf("%s missing after archive round trip", s.NS)
		}
		if r.Idiom != s.Idiom || r.Created != s.Created || r.HijackedOn != s.HijackedOn {
			t.Fatalf("%s differs: live %v/%v/%v vs archive %v/%v/%v",
				s.NS, s.Idiom, s.Created, s.HijackedOn, r.Idiom, r.Created, r.HijackedOn)
		}
	}
}
