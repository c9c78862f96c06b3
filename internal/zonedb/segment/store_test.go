package segment

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/faults"
	"repro/internal/zonedb"
)

// testDB builds a tiny sealed database whose close day distinguishes
// epochs (so tests can tell which epoch a Load returned).
func testDB(t *testing.T, closeDay dates.Day) *zonedb.DB {
	t.Helper()
	db := zonedb.New()
	db.DomainAdded("com", "foo.com", 10)
	db.DelegationAdded("com", "foo.com", "ns1.foo.com", 10)
	db.GlueAdded("com", "ns1.foo.com", 10)
	db.DomainAdded("net", "bar.net", 20)
	db.DelegationAdded("net", "bar.net", "ns1.foo.com", 20)
	db.Close(closeDay)
	return db
}

// archiveBytes canonicalizes a DB for byte-exact comparison.
func archiveBytes(t *testing.T, db *zonedb.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.View().WriteArchive(&buf); err != nil {
		t.Fatalf("WriteArchive: %v", err)
	}
	return buf.Bytes()
}

// sealEpochs opens a store in a fresh dir and seals one epoch per close
// day, returning the dir.
func sealEpochs(t *testing.T, days ...dates.Day) string {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, day := range days {
		if _, err := st.Seal(testDB(t, day).View(), fmt.Sprintf("tag-%s", day)); err != nil {
			t.Fatalf("Seal(%s): %v", day, err)
		}
	}
	return dir
}

func TestSealAndReopen(t *testing.T) {
	dir := sealEpochs(t, 100, 200)
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if q := st.Quarantined(); len(q) != 0 {
		t.Fatalf("clean reopen quarantined %v", q)
	}
	segs := st.Segments()
	if len(segs) != 2 || segs[0].Seq != 1 || segs[1].Seq != 2 {
		t.Fatalf("segments = %+v", segs)
	}
	db, info, err := st.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if info.CloseDay != 200 || info.SourceTag != "tag-"+dates.Day(200).String() {
		t.Fatalf("latest info = %+v", info)
	}
	want := archiveBytes(t, testDB(t, 200))
	if got := archiveBytes(t, db); !bytes.Equal(got, want) {
		t.Fatal("recovered epoch differs from sealed epoch")
	}
}

func TestOpenEmptyDir(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, ok := st.Latest(); ok {
		t.Fatal("empty store reported a latest epoch")
	}
	if _, _, err := st.LoadLatest(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("LoadLatest on empty store: %v", err)
	}
}

func TestRetentionPrunesOldSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithKeep(2))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, day := range []dates.Day{100, 200, 300} {
		if _, err := st.Seal(testDB(t, day).View(), ""); err != nil {
			t.Fatalf("Seal: %v", err)
		}
	}
	segs := st.Segments()
	if len(segs) != 2 || segs[0].Seq != 2 || segs[1].Seq != 3 {
		t.Fatalf("segments after retention = %+v", segs)
	}
	if _, err := os.Stat(filepath.Join(dir, "epoch-000001.seg")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("pruned segment still on disk: %v", err)
	}
	// Sequence numbers keep growing past pruned epochs.
	if info, err := st.Seal(testDB(t, 400).View(), ""); err != nil || info.Seq != 4 {
		t.Fatalf("Seal after prune: info=%+v err=%v", info, err)
	}
}

func TestOpenSweepsTempAndOrphanFiles(t *testing.T) {
	dir := sealEpochs(t, 100)
	// A crashed seal leaves a temp file and possibly a renamed-but-never-
	// committed segment; neither is named by the manifest.
	if err := os.WriteFile(filepath.Join(dir, "epoch-000009.seg.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "epoch-000009.seg"), []byte("uncommitted"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if q := st.Quarantined(); len(q) != 0 {
		t.Fatalf("sweep should not quarantine: %v", q)
	}
	for _, name := range []string{"epoch-000009.seg.tmp", "epoch-000009.seg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the sweep", name)
		}
	}
	if len(st.Segments()) != 1 {
		t.Fatalf("segments = %+v", st.Segments())
	}
}

// reopen asserts dir opens without error and returns the store.
func reopen(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

// copyDir clones a sealed store directory so each corruption case
// mutates its own copy.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestTornSegmentMatrix corrupts the newest segment at every interesting
// byte position — truncations at and inside each framing boundary, bit
// flips in block data, block checksums, and the magic — and asserts the
// store quarantines it and falls back to the older sealed epoch, never
// panicking and never serving corrupt data.
func TestTornSegmentMatrix(t *testing.T) {
	master := sealEpochs(t, 100, 200)
	seg2 := "epoch-000002.seg"
	raw, err := os.ReadFile(filepath.Join(master, seg2))
	if err != nil {
		t.Fatal(err)
	}

	// Truncation points: every structural boundary plus probes inside
	// each region.
	cuts := []int{0, 1, len(segMagic) - 1, len(segMagic), len(segMagic) + 4, len(segMagic) + 8,
		len(segMagic) + 9, len(raw) / 2, len(raw) - 9, len(raw) - 8, len(raw) - 4, len(raw) - 1}
	// A probe in the framing at the head of the file is named by its
	// offset; one placed against the middle or the end by that, so its name
	// does not move when the payload's size does.
	where := func(at int) string {
		switch mid := len(raw) / 2; {
		case at == mid:
			return "mid"
		case at > mid:
			return fmt.Sprintf("end-%d", len(raw)-at)
		}
		return fmt.Sprint(at)
	}
	type tear struct {
		name   string
		mutate func([]byte) []byte
	}
	var tears []tear
	for _, cut := range cuts {
		if cut < 0 || cut >= len(raw) {
			continue
		}
		cut := cut
		tears = append(tears, tear{"truncate@" + where(cut), func(b []byte) []byte { return b[:cut] }})
	}
	flips := []int{len(segMagic) - 2, len(segMagic) + 2, len(segMagic) + 6, len(segMagic) + 20, len(raw) - 2}
	for _, at := range flips {
		at := at
		tears = append(tears, tear{"bitflip@" + where(at), func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[at] ^= 0x40
			return out
		}})
	}
	tears = append(tears, tear{"append-garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), "junk"...) }})

	want100 := archiveBytes(t, testDB(t, 100))
	for _, tc := range tears {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyDir(t, master)
			if err := os.WriteFile(filepath.Join(dir, seg2), tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			st := reopen(t, dir)
			q := st.Quarantined()
			if len(q) != 1 || q[0].Name != seg2 {
				t.Fatalf("quarantine = %+v", q)
			}
			if _, err := os.Stat(filepath.Join(dir, quarantineDir, seg2)); err != nil {
				t.Fatalf("corrupt segment not moved aside: %v", err)
			}
			db, info, err := st.LoadLatest()
			if err != nil {
				t.Fatalf("LoadLatest after quarantine: %v", err)
			}
			if info.Seq != 1 || info.CloseDay != 100 {
				t.Fatalf("fell back to %+v, want epoch 1", info)
			}
			if got := archiveBytes(t, db); !bytes.Equal(got, want100) {
				t.Fatal("fallback epoch bytes differ")
			}
			// The repaired manifest must be durable: a second open is clean.
			st2 := reopen(t, dir)
			if q := st2.Quarantined(); len(q) != 0 {
				t.Fatalf("second open still quarantining: %+v", q)
			}
			if len(st2.Segments()) != 1 {
				t.Fatalf("second open segments = %+v", st2.Segments())
			}
		})
	}

	// A crash that tears the only sealed epoch and leaves a seal's debris
	// beside it: the torn file is quarantined (kept, not deleted), the
	// debris swept, the store comes up empty, and the epoch rebuilt from
	// source reseals and survives a reopen.
	t.Run("only-epoch-with-debris", func(t *testing.T) {
		dir := sealEpochs(t, 100)
		seg1 := "epoch-000001.seg"
		raw1, err := os.ReadFile(filepath.Join(dir, seg1))
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			seg1:                   raw1[:len(raw1)/2],
			"epoch-000099.seg.tmp": []byte("torn"),
			"epoch-000098.seg":     []byte("orphan"),
		} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st := reopen(t, dir)
		if q := st.Quarantined(); len(q) != 1 || q[0].Name != seg1 {
			t.Fatalf("quarantine = %+v, want only %s", q, seg1)
		}
		if got, err := os.ReadFile(filepath.Join(dir, quarantineDir, seg1)); err != nil || !bytes.Equal(got, raw1[:len(raw1)/2]) {
			t.Fatalf("torn segment not kept in quarantine as it was: %v", err)
		}
		for _, name := range []string{"epoch-000099.seg.tmp", "epoch-000098.seg"} {
			if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s survived the sweep", name)
			}
		}
		if _, _, err := st.LoadLatest(); !errors.Is(err, ErrEmpty) {
			t.Fatalf("LoadLatest = %v, want ErrEmpty", err)
		}
		if _, err := st.Seal(testDB(t, 100).View(), "rebuilt"); err != nil {
			t.Fatalf("reseal: %v", err)
		}
		st2 := reopen(t, dir)
		if q := st2.Quarantined(); len(q) != 0 {
			t.Fatalf("reopen after reseal quarantined %+v", q)
		}
		db, info, err := st2.LoadLatest()
		if err != nil || info.SourceTag != "rebuilt" {
			t.Fatalf("LoadLatest after reseal = %+v, %v", info, err)
		}
		if !bytes.Equal(archiveBytes(t, db), want100) {
			t.Fatal("resealed epoch bytes differ")
		}
	})
}

// TestQuarantineKeepsEveryTornCopy: a reseal after the only epoch was
// quarantined reuses its sequence number, and when that segment is torn
// too its quarantined copy must land beside the first, not over it.
func TestQuarantineKeepsEveryTornCopy(t *testing.T) {
	dir := sealEpochs(t, 100)
	seg1 := "epoch-000001.seg"
	tear := func(cut func([]byte) []byte) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, seg1))
		if err != nil {
			t.Fatal(err)
		}
		torn := cut(raw)
		if err := os.WriteFile(filepath.Join(dir, seg1), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		return torn
	}
	first := tear(func(b []byte) []byte { return b[:len(b)/2] })
	st := reopen(t, dir)
	if info, err := st.Seal(testDB(t, 200).View(), "resealed"); err != nil || info.Name != seg1 {
		t.Fatalf("reseal = %+v, %v; want %s again", info, err, seg1)
	}
	second := tear(func(b []byte) []byte { return b[:len(b)-4] })
	st2 := reopen(t, dir)

	for i, st := range []*Store{st, st2} {
		if q := st.Quarantined(); len(q) != 1 || q[0].Name != seg1 {
			t.Fatalf("open %d quarantined %+v, want %s", i+1, q, seg1)
		}
	}
	for i, kept := range []struct {
		name string
		torn []byte
	}{{seg1, first}, {seg1 + ".1", second}} {
		got, err := os.ReadFile(filepath.Join(dir, quarantineDir, kept.name))
		if err != nil || !bytes.Equal(got, kept.torn) {
			t.Errorf("quarantine/%s does not hold torn copy %d as it was: %v", kept.name, i+1, err)
		}
	}
	if _, _, err := st2.LoadLatest(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("LoadLatest = %v, want ErrEmpty", err)
	}
}

// TestTornManifestMatrix corrupts the manifest at every line boundary
// and mid-line, plus bit flips. A corrupt manifest is quarantined along
// with the (now unprovable) segment files; the store comes up empty and
// a later reseal works.
func TestTornManifestMatrix(t *testing.T) {
	master := sealEpochs(t, 100, 200)
	raw, err := os.ReadFile(filepath.Join(master, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var cuts []int
	for i, b := range raw {
		if b == '\n' && i+1 < len(raw) {
			cuts = append(cuts, i+1) // cut exactly at each line boundary
		}
	}
	cuts = append(cuts, 1, len(raw)/2, len(raw)-1)
	type tear struct {
		name   string
		mutate func([]byte) []byte
	}
	var tears []tear
	for _, cut := range cuts {
		if cut <= 0 || cut >= len(raw) {
			continue
		}
		cut := cut
		tears = append(tears, tear{fmt.Sprintf("truncate@%d", cut), func(b []byte) []byte { return b[:cut] }})
	}
	tears = append(tears,
		tear{"bitflip-entry", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(manifestMagic)+5] ^= 0x20
			return out
		}},
		tear{"empty", func([]byte) []byte { return nil }},
	)
	for _, tc := range tears {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyDir(t, master)
			if err := os.WriteFile(filepath.Join(dir, manifestName), tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			st := reopen(t, dir)
			var sawManifest bool
			for _, q := range st.Quarantined() {
				if q.Name == manifestName {
					sawManifest = true
				}
			}
			if !sawManifest {
				t.Fatalf("manifest not quarantined: %+v", st.Quarantined())
			}
			if _, ok := st.Latest(); ok {
				t.Fatal("store trusted segments after losing the manifest")
			}
			// The orphaned segments are preserved for manual recovery, not
			// deleted.
			for _, name := range []string{"epoch-000001.seg", "epoch-000002.seg"} {
				if _, err := os.Stat(filepath.Join(dir, quarantineDir, name)); err != nil {
					t.Errorf("%s not preserved in quarantine: %v", name, err)
				}
			}
			// The store remains usable: seal a fresh epoch and reopen clean.
			if _, err := st.Seal(testDB(t, 300).View(), ""); err != nil {
				t.Fatalf("Seal after manifest loss: %v", err)
			}
			st2 := reopen(t, dir)
			if info, ok := st2.Latest(); !ok || info.CloseDay != 300 {
				t.Fatalf("reseal not visible after reopen: %+v", info)
			}
		})
	}
}

// faultPlan arms one injected failure for one target file.
type faultPlan struct {
	target    string // final file name the fault applies to
	failAfter int64  // -1 = no write failure
	short     bool
	failSync  bool
	failClose bool
	rename    bool // fail the rename of target instead
}

func (p faultPlan) hooks() Hooks {
	h := Hooks{}
	if p.rename {
		h.Rename = func(oldpath, newpath string) error {
			if filepath.Base(newpath) == p.target {
				return faults.ErrInjected
			}
			return os.Rename(oldpath, newpath)
		}
		return h
	}
	h.WrapFile = func(name string, f *os.File) io.WriteCloser {
		if name != p.target {
			return f
		}
		return &faultyFile{f: f, failAfter: p.failAfter, short: p.short, failSync: p.failSync, failClose: p.failClose}
	}
	return h
}

// faultyFile injects the failures a durable write path must survive: a
// write error after failAfter bytes (negative: never), short writes
// that deliver half of each buffer with a nil error, a failed fsync,
// and a failed Close (the file is still closed, but the caller must
// treat it as unusable).
type faultyFile struct {
	f                   *os.File
	failAfter           int64
	short               bool
	failSync, failClose bool
	n                   int64
}

func (w *faultyFile) Write(p []byte) (int, error) {
	if w.failAfter >= 0 {
		remaining := w.failAfter - w.n
		if remaining <= 0 {
			return 0, faults.ErrInjected
		}
		if int64(len(p)) > remaining {
			p = p[:remaining]
		}
	}
	if w.short && len(p) > 1 {
		p = p[:len(p)/2]
	}
	n, err := w.f.Write(p)
	w.n += int64(n)
	if err == nil && w.failAfter >= 0 && w.n >= w.failAfter {
		err = faults.ErrInjected
	}
	return n, err
}

func (w *faultyFile) Sync() error {
	if w.failSync {
		return faults.ErrInjected
	}
	return w.f.Sync()
}

func (w *faultyFile) Close() error {
	err := w.f.Close()
	if w.failClose {
		return faults.ErrInjected
	}
	return err
}

// TestCrashMatrix kills a Seal at every write stage — segment write
// (at several byte offsets), short writes, failed fsync, failed close,
// failed rename, and the same for the manifest swap — and proves the
// store always recovers to the previous sealed state: Seal reports the
// error, the in-memory store is unchanged, and a fresh Open of the
// directory serves the old epoch with nothing quarantined.
func TestCrashMatrix(t *testing.T) {
	seg2 := "epoch-000002.seg"
	plans := []struct {
		name string
		plan faultPlan
	}{
		{"segment-write@0", faultPlan{target: seg2, failAfter: 0}},
		{"segment-write@1", faultPlan{target: seg2, failAfter: 1}},
		{"segment-write@7", faultPlan{target: seg2, failAfter: 7}},
		{"segment-write@64", faultPlan{target: seg2, failAfter: 64}},
		{"segment-write@150", faultPlan{target: seg2, failAfter: 150}},
		{"segment-short-write", faultPlan{target: seg2, failAfter: -1, short: true}},
		{"segment-sync", faultPlan{target: seg2, failAfter: -1, failSync: true}},
		{"segment-close", faultPlan{target: seg2, failAfter: -1, failClose: true}},
		{"segment-rename", faultPlan{target: seg2, rename: true}},
		{"manifest-write@0", faultPlan{target: manifestName, failAfter: 0}},
		{"manifest-write@16", faultPlan{target: manifestName, failAfter: 16}},
		{"manifest-short-write", faultPlan{target: manifestName, failAfter: -1, short: true}},
		{"manifest-sync", faultPlan{target: manifestName, failAfter: -1, failSync: true}},
		{"manifest-close", faultPlan{target: manifestName, failAfter: -1, failClose: true}},
		{"manifest-rename", faultPlan{target: manifestName, rename: true}},
	}
	want100 := archiveBytes(t, testDB(t, 100))
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			dir := sealEpochs(t, 100)
			st, err := Open(dir, WithHooks(tc.plan.hooks()))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if _, err := st.Seal(testDB(t, 200).View(), ""); err == nil {
				t.Fatal("Seal should have failed under injection")
			}
			// The injured handle still serves the previous sealed state.
			if info, ok := st.Latest(); !ok || info.Seq != 1 {
				t.Fatalf("latest after failed seal = %+v ok=%v", info, ok)
			}
			// And so does a cold reopen of the directory.
			st2 := reopen(t, dir)
			if q := st2.Quarantined(); len(q) != 0 {
				t.Fatalf("failed seal left corruption behind: %+v", q)
			}
			db, info, err := st2.LoadLatest()
			if err != nil {
				t.Fatalf("LoadLatest after crash: %v", err)
			}
			if info.Seq != 1 || info.CloseDay != 100 {
				t.Fatalf("recovered to %+v, want epoch 1", info)
			}
			if got := archiveBytes(t, db); !bytes.Equal(got, want100) {
				t.Fatal("recovered epoch bytes differ")
			}
			// No stray temp files survive the reopen.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), tmpSuffix) {
					t.Errorf("stray temp file %s after recovery", e.Name())
				}
			}
			// The store recovers fully: the next seal (no faults) succeeds.
			if _, err := st2.Seal(testDB(t, 300).View(), ""); err != nil {
				t.Fatalf("Seal after recovery: %v", err)
			}
		})
	}
}

func TestSourceTagRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tag := `crc32c:deadbeef size:42 path:"/tmp/with space"`
	if _, err := st.Seal(testDB(t, 100).View(), tag); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	st2 := reopen(t, dir)
	info, ok := st2.Latest()
	if !ok || info.SourceTag != tag {
		t.Fatalf("source tag = %q, want %q", info.SourceTag, tag)
	}
}

// TestOldFormatSegmentRefusedOnce: a segment written before the binary
// payload — the text archive framed under the "dzdbseg 1" magic — is a
// sound file as far as the manifest can tell, so Open admits it; Load
// refuses it as corrupt, once: it is quarantined and reported, and the
// store goes on with the next-newest epoch (or none, and the caller
// rebuilds from source and reseals).
func TestOldFormatSegmentRefusedOnce(t *testing.T) {
	var old bytes.Buffer
	old.WriteString("dzdbseg 1\n")
	bw := newBlockWriter(&old)
	if err := testDB(t, 200).View().WriteArchive(bw); err != nil {
		t.Fatal(err)
	}
	if err := bw.Finish(); err != nil {
		t.Fatal(err)
	}
	// plant commits the old-format file as the newest epoch of dir.
	plant := func(t *testing.T, dir string, older []Info) {
		t.Helper()
		info := Info{Seq: 9, Name: "epoch-000009.seg", Size: int64(old.Len()),
			CRC: crc32.Checksum(old.Bytes(), castagnoli), CloseDay: 200, SourceTag: "old"}
		if err := os.WriteFile(filepath.Join(dir, info.Name), old.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var manifest bytes.Buffer
		if err := encodeManifest(&manifest, append(older, info)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// refused asserts the store admitted the file at Open, and that the
	// first load moved it aside and reported it.
	refused := func(t *testing.T, dir string, load func(*Store)) {
		t.Helper()
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if q := st.Quarantined(); len(q) != 0 {
			t.Fatalf("Open quarantined %+v: size and checksum match the manifest", q)
		}
		if latest, ok := st.Latest(); !ok || latest.Seq != 9 {
			t.Fatalf("latest = %+v, want the planted epoch", latest)
		}
		load(st)
		q := st.Quarantined()
		if len(q) != 1 || q[0].Name != "epoch-000009.seg" || q[0].Reason != "decode" || !errors.Is(q[0].Err, ErrCorrupt) {
			t.Fatalf("quarantine = %+v", q)
		}
		if _, err := os.Stat(filepath.Join(dir, quarantineDir, "epoch-000009.seg")); err != nil {
			t.Errorf("old-format segment not moved aside: %v", err)
		}
		// The refusal is durable: the next open does not meet the file again.
		if st2 := reopen(t, dir); len(st2.Quarantined()) != 0 {
			t.Errorf("second open quarantined %+v", st2.Quarantined())
		}
	}

	t.Run("only epoch", func(t *testing.T) {
		dir := t.TempDir()
		plant(t, dir, nil)
		refused(t, dir, func(st *Store) {
			if _, _, err := st.LoadLatest(); !errors.Is(err, ErrEmpty) {
				t.Fatalf("LoadLatest = %v, want ErrEmpty", err)
			}
		})
	})
	t.Run("newer than a current epoch", func(t *testing.T) {
		dir := sealEpochs(t, 100)
		plant(t, dir, reopen(t, dir).Segments())
		refused(t, dir, func(st *Store) {
			db, info, err := st.LoadLatest()
			if err != nil || info.Seq != 1 {
				t.Fatalf("LoadLatest = %+v, %v; want epoch 1", info, err)
			}
			if !bytes.Equal(archiveBytes(t, db), archiveBytes(t, testDB(t, 100))) {
				t.Error("fallback epoch bytes differ")
			}
		})
	})
	t.Run("loaded by name", func(t *testing.T) {
		dir := t.TempDir()
		plant(t, dir, nil)
		refused(t, dir, func(st *Store) {
			info, _ := st.Latest()
			if _, err := st.Load(info); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad magic") {
				t.Fatalf("Load = %v, want ErrCorrupt for the magic", err)
			}
		})
	})
}
