package zonedb

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/fstest"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
	"repro/internal/obs"
)

// TestIngestSentinelErrors pins the error contract: each validation
// failure wraps its distinct sentinel so callers can branch with
// errors.Is.
func TestIngestSentinelErrors(t *testing.T) {
	ing := NewIngester()
	s0 := dnszone.NewSnapshot("com", d(2))
	s0.AddDelegation("a.com", "ns1.x.net")
	if err := ing.AddSnapshot(s0); err != nil {
		t.Fatal(err)
	}

	undated := dnszone.NewSnapshot("com", dates.None)
	if err := ing.AddSnapshot(undated); !errors.Is(err, ErrSnapshotUndated) {
		t.Errorf("undated err = %v", err)
	}
	stale := dnszone.NewSnapshot("com", d(1))
	if err := ing.AddSnapshot(stale); !errors.Is(err, ErrSnapshotOutOfOrder) {
		t.Errorf("out-of-order err = %v", err)
	}
	gap := dnszone.NewSnapshot("com", d(9))
	if err := ing.AddSnapshot(gap); !errors.Is(err, ErrSnapshotGap) {
		t.Errorf("gap err = %v", err)
	}
	// The sentinels are distinct: none of the errors match each other.
	if errors.Is(ErrSnapshotGap, ErrSnapshotOutOfOrder) || errors.Is(ErrSnapshotUndated, ErrSnapshotGap) {
		t.Error("sentinels are not distinct")
	}
	// A rejected snapshot must not have advanced the zone's history.
	next := dnszone.NewSnapshot("com", d(3))
	if err := ing.AddSnapshot(next); err != nil {
		t.Errorf("valid successor rejected after failed snapshots: %v", err)
	}
}

// snapBytes renders a snapshot series entry as a master-file snapshot.
func snapBytes(t *testing.T, zone dnsname.Name, day dates.Day, rows map[dnsname.Name][]dnsname.Name) []byte {
	t.Helper()
	s := dnszone.NewSnapshot(zone, day)
	for dom, ns := range rows {
		s.AddDelegation(dom, ns...)
	}
	s.Sort()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corpus builds a six-day .com series with four invalid files threaded
// through it: a garbage file, an out-of-order replay, a gap jump, and a
// dateless snapshot. It returns the full path list and the clean subset.
func corpus(t *testing.T) (fsys fstest.MapFS, all, clean []string) {
	t.Helper()
	fsys = fstest.MapFS{}
	day := func(n int) map[dnsname.Name][]dnsname.Name {
		rows := map[dnsname.Name][]dnsname.Name{"a.com": {"ns1.x.net"}}
		if n >= 2 {
			rows["b.com"] = []dnsname.Name{"ns2.x.net"}
		}
		return rows
	}
	add := func(name string, content []byte, ok bool) {
		fsys[name] = &fstest.MapFile{Data: content}
		all = append(all, name)
		if ok {
			clean = append(clean, name)
		}
	}
	add("com-0.zone", snapBytes(t, "com", d(0), day(0)), true)
	add("com-1.zone", snapBytes(t, "com", d(1), day(1)), true)
	add("garbage.zone", []byte("$ORIGIN com.\nthis is not a record\n"), false)
	add("com-2.zone", snapBytes(t, "com", d(2), day(2)), true)
	add("com-replay.zone", snapBytes(t, "com", d(1), day(1)), false)
	add("com-jump.zone", snapBytes(t, "com", d(7), day(7)), false)
	add("com-3.zone", snapBytes(t, "com", d(3), day(3)), true)
	undated := bytes.TrimPrefix(snapBytes(t, "com", d(4), day(4)), []byte("; zone"))
	undated = undated[bytes.IndexByte(undated, '\n')+1:] // drop the dated header
	add("com-undated.zone", undated, false)
	add("com-4.zone", snapBytes(t, "com", d(4), day(4)), true)
	return fsys, all, clean
}

func archive(t *testing.T, db *DB) string {
	t.Helper()
	return archiveView(t, db.View())
}

func TestStrictIngestAbortsOnFirstInvalid(t *testing.T) {
	fsys, all, _ := corpus(t)
	ing := NewIngester()
	err := ing.IngestAll(&FileSource{FS: fsys, Paths: all})
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
	if !strings.Contains(err.Error(), "garbage.zone") {
		t.Fatalf("error does not name the offending file: %v", err)
	}
}

// TestDegradedIngestMatchesCleanSubset is the acceptance criterion:
// degraded ingestion of a corrupted stream completes, reports exactly
// which snapshots were quarantined and why, and produces a DB
// byte-identical to a strict ingest of only the valid snapshots.
func TestDegradedIngestMatchesCleanSubset(t *testing.T) {
	fsys, all, clean := corpus(t)

	reg := obs.NewRegistry()
	degraded := NewIngester()
	degraded.Degraded = true
	degraded.Obs = reg
	if err := degraded.IngestAll(&FileSource{FS: fsys, Paths: all}); err != nil {
		t.Fatalf("degraded ingest failed: %v", err)
	}

	report := degraded.Quarantine()
	if report.Total() != 4 {
		t.Fatalf("quarantined %d snapshots, want 4: %+v", report.Total(), report.Entries)
	}
	wantReasons := map[string]string{
		"garbage.zone":     "corrupt",
		"com-replay.zone":  "out-of-order",
		"com-jump.zone":    "gap",
		"com-undated.zone": "undated",
	}
	by := map[dnsname.Name]int{}
	for _, e := range report.Entries {
		if want := wantReasons[e.Source]; e.Reason != want {
			t.Errorf("%s quarantined as %q, want %q (err: %v)", e.Source, e.Reason, want, e.Err)
		}
		by[e.Zone]++
	}
	if by["com"] != 3 || by[""] != 1 {
		t.Errorf("quarantined per zone = %v", by)
	}
	if s := report.String(); !strings.Contains(s, "4 quarantined") {
		t.Errorf("summary = %q", s)
	}

	strict := NewIngester()
	if err := strict.IngestAll(&FileSource{FS: fsys, Paths: clean}); err != nil {
		t.Fatalf("clean-subset ingest failed: %v", err)
	}
	if got, want := archive(t, degraded.Finish()), archive(t, strict.Finish()); got != want {
		t.Error("degraded DB differs from clean-subset DB")
	}

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`zonedb_snapshots_quarantined_total{zone="com",reason="gap"} 1`,
		`zonedb_snapshots_quarantined_total{zone="com",reason="out-of-order"} 1`,
		`zonedb_snapshots_quarantined_total{zone="com",reason="undated"} 1`,
		`zonedb_snapshots_quarantined_total{zone="unknown",reason="corrupt"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q in:\n%s", want, sb.String())
		}
	}
}

func TestDegradedIngestHonorsMaxQuarantine(t *testing.T) {
	fsys, all, _ := corpus(t)
	ing := NewIngester()
	ing.Degraded = true
	ing.MaxQuarantine = 2
	err := ing.IngestAll(&FileSource{FS: fsys, Paths: all})
	if !errors.Is(err, ErrTooManyQuarantined) {
		t.Fatalf("err = %v, want ErrTooManyQuarantined", err)
	}
	if ing.Quarantine().Total() != 2 {
		t.Fatalf("quarantined %d, want the 2 within budget", ing.Quarantine().Total())
	}
}

// TestDegradedIngestSurvivesReadFaults injects a mid-file read failure —
// a truncated download — and checks the damaged file quarantines as
// corrupt while the rest of the series ingests.
func TestDegradedIngestSurvivesReadFaults(t *testing.T) {
	fsys := fstest.MapFS{}
	var paths []string
	for n := 0; n < 3; n++ {
		name := "com-" + string(rune('0'+n)) + ".zone"
		fsys[name] = &fstest.MapFile{Data: snapBytes(t, "com", d(n),
			map[dnsname.Name][]dnsname.Name{"a.com": {"ns1.x.net"}})}
		paths = append(paths, name)
	}
	damaged := paths[1]
	ing := NewIngester()
	ing.Degraded = true
	// Fail the second file's read after 10 bytes — a truncated download.
	n := 0
	src := &FileSource{FS: fsys, Paths: paths, Wrap: func(r io.Reader) io.Reader {
		n++
		if n == 2 {
			return newFailingReader(r, 10)
		}
		return r
	}}
	if err := ing.IngestAll(src); err != nil {
		t.Fatalf("degraded ingest failed: %v", err)
	}
	// Losing day 1 also makes day 2 a gap, so both quarantine: the
	// damaged file as corrupt and its successor as a gap.
	report := ing.Quarantine()
	if report.Total() != 2 {
		t.Fatalf("report = %+v", report.Entries)
	}
	if e := report.Entries[0]; e.Source != damaged || e.Reason != "corrupt" || !errors.Is(e.Err, ErrSnapshotCorrupt) {
		t.Fatalf("first entry = %+v", e)
	}
	if e := report.Entries[1]; e.Source != paths[2] || e.Reason != "gap" {
		t.Fatalf("second entry = %+v", e)
	}
	db := ing.Finish()
	if got := db.View().EdgeSpans("a.com", "ns1.x.net").TotalDays(); got != 1 {
		t.Fatalf("a.com edge days = %d, want 1 (only day 0 ingested)", got)
	}
}
