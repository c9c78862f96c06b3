package riskybiz

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/zonedb"
)

// printed renders what the riskybiz command prints for a study: every
// artifact as text, and the -json summary.
func printed(t *testing.T, st *Study) (text, summary []byte) {
	t.Helper()
	var tb, jb bytes.Buffer
	st.PrintArtifacts(&tb, nil, false)
	if err := st.Analysis.Summarize(sim.NotificationDay, sim.FollowupDay).WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

// TestDetectionFromArchivedDataset saves the shared study as riskybiz
// -save-data does, loads it back as riskybiz -data does, and requires
// the loaded study to print exactly what the live one prints: every
// table and figure (the §4 accident rows included, whose end-of-data
// day both read from the sealed zone data) and the JSON summary.
func TestDetectionFromArchivedDataset(t *testing.T) {
	live := sharedStudy(t)
	prefix := filepath.Join(t.TempDir(), "dataset")
	if err := SaveData(live, prefix); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadContext(context.Background(), prefix, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.World != nil {
		t.Error("a loaded study carries a world")
	}
	if !reflect.DeepEqual(loaded.Exclude, live.Exclude) || len(live.Exclude) == 0 {
		t.Fatalf("exclude list %v after the round trip, live %v", loaded.Exclude, live.Exclude)
	}
	liveText, liveJSON := printed(t, live)
	gotText, gotJSON := printed(t, loaded)
	if !bytes.Equal(liveText, gotText) {
		t.Errorf("printed artifacts differ after the round trip:\n--- live\n%s\n--- loaded\n%s", liveText, gotText)
	}
	if !bytes.Equal(liveJSON, gotJSON) {
		t.Errorf("JSON summary differs after the round trip:\n--- live\n%s\n--- loaded\n%s", liveJSON, gotJSON)
	}
}

// TestSnapshotFilesMatchLiveStudy writes a small world's daily zone
// files as riskybiz -save-snapshots does and rebuilds the zone database
// from them as riskybiz -data -snapshots does, serially and with four
// zone-affine ingest workers: detection over either must find the live
// study's funnel and sacrificial records exactly. (A tenth of a domain a
// day: the file count is fixed by days × zones, ~47K files whatever the
// scale.)
func TestSnapshotFilesMatchLiveStudy(t *testing.T) {
	ctx := context.Background()
	live, err := RunContext(ctx, Options{Seed: 1, DomainsPerDay: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if live.Result.Funnel.Sacrificial == 0 {
		t.Fatal("live study detected nothing")
	}
	dir := t.TempDir()
	prefix := filepath.Join(dir, "dataset")
	if err := SaveData(live, prefix); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveSnapshots(live, filepath.Join(dir, "zones")); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		ing := zonedb.NewIngester()
		ing.Workers = workers
		db, err := IngestSnapshots(ctx, filepath.Join(dir, "zones", "*.zone"), ing)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		st, err := LoadContext(ctx, prefix, db)
		if err != nil {
			t.Fatal(err)
		}
		if st.Result.Funnel != live.Result.Funnel {
			t.Fatalf("workers=%d: funnel %+v, live %+v", workers, st.Result.Funnel, live.Result.Funnel)
		}
		if !reflect.DeepEqual(st.Result.Sacrificial, live.Result.Sacrificial) {
			t.Fatalf("workers=%d: sacrificial records differ from the live study's", workers)
		}
	}
}
