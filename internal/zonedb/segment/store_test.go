package segment

import (
	"bytes"
	"errors"
	"fmt"
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
// epochs (so tests can tell which epoch a load returned).
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
	st := reopen(t, dir)
	for _, day := range days {
		if _, err := st.Seal(testDB(t, day).View(), ""); err != nil {
			t.Fatalf("Seal(%s): %v", day, err)
		}
	}
	return dir
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

// loadsEpoch asserts the store's newest loadable epoch is the one sealed
// as seq with the given close day, holding testDB's facts.
func loadsEpoch(t *testing.T, st *Store, seq uint64, closeDay dates.Day) {
	t.Helper()
	db, info, err := st.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if info.Seq != seq || info.Name != epochName(seq) || info.CloseDay != closeDay {
		t.Fatalf("LoadLatest = %+v, want epoch %d closed %s", info, seq, closeDay)
	}
	if fi, err := os.Stat(filepath.Join(st.dir, info.Name)); err != nil || fi.Size() != info.Size {
		t.Fatalf("Info.Size %d for the file on disk (stat err %v)", info.Size, err)
	}
	if got, want := archiveBytes(t, db), archiveBytes(t, testDB(t, closeDay)); !bytes.Equal(got, want) {
		t.Fatal("loaded epoch differs from the sealed one")
	}
}

func TestSealAndReopen(t *testing.T) {
	dir := sealEpochs(t, 100, 200)
	loadsEpoch(t, reopen(t, dir), 2, 200)
}

func TestOpenEmptyDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not", "yet")
	st := reopen(t, dir)
	if _, _, err := st.LoadLatest(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("LoadLatest on empty store: %v", err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("Open did not make the directory: %v", err)
	}
}

func TestRetentionPrunesOldSegments(t *testing.T) {
	dir := t.TempDir()
	st := reopen(t, dir)
	for day := dates.Day(100); day <= 600; day += 100 {
		if _, err := st.Seal(testDB(t, day).View(), ""); err != nil {
			t.Fatalf("Seal: %v", err)
		}
	}
	for seq := uint64(1); seq <= 6; seq++ {
		_, err := os.Stat(filepath.Join(dir, epochName(seq)))
		if pruned := seq <= 6-keep; pruned != errors.Is(err, os.ErrNotExist) {
			t.Errorf("epoch %d: pruned %v, stat err %v", seq, pruned, err)
		}
	}
	// Sequence numbers keep growing past pruned epochs, in this handle
	// and in a reopened one.
	if info, err := st.Seal(testDB(t, 700).View(), ""); err != nil || info.Seq != 7 {
		t.Fatalf("Seal after prune: info=%+v err=%v", info, err)
	}
	st2 := reopen(t, dir)
	loadsEpoch(t, st2, 7, 700)
	if info, err := st2.Seal(testDB(t, 800).View(), ""); err != nil || info.Seq != 8 {
		t.Fatalf("Seal after reopen: info=%+v err=%v", info, err)
	}
}

// TestOpenSweepsTempAndOrphanFiles: a crashed seal's temp file is swept
// at open. A complete epoch file is a committed epoch, and files the
// store did not name (an older store's MANIFEST and quarantine/) are left
// alone.
func TestOpenSweepsTempAndOrphanFiles(t *testing.T) {
	dir := sealEpochs(t, 100)
	if err := os.WriteFile(filepath.Join(dir, "epoch-000009.seg.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("dzdbman 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		t.Fatal(err)
	}
	st := reopen(t, dir)
	if _, err := os.Stat(filepath.Join(dir, "epoch-000009.seg.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file survived the sweep: %v", err)
	}
	for _, name := range []string{"MANIFEST", "quarantine"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s was removed: %v", name, err)
		}
	}
	loadsEpoch(t, st, 1, 100)
}

// oldFormatSegment is a segment written before the binary payload: the
// text archive framed under the "dzdbseg 1" magic. Its blocks and
// trailer check out; only its magic is refused.
func oldFormatSegment(t *testing.T, db *zonedb.DB) []byte {
	t.Helper()
	var old bytes.Buffer
	old.WriteString("dzdbseg 1\n")
	bw := newBlockWriter(&old)
	if err := db.View().WriteArchive(bw); err != nil {
		t.Fatal(err)
	}
	if err := bw.Finish(); err != nil {
		t.Fatal(err)
	}
	return old.Bytes()
}

// TestOldFormatSegmentRefusedOnce plants a "dzdbseg 1" file as the
// newest epoch and asserts every reader refuses it as corrupt and leaves
// it where it is, and that it stops counting once a newer epoch is
// sealed above it.
func TestOldFormatSegmentRefusedOnce(t *testing.T) {
	old := oldFormatSegment(t, testDB(t, 200))
	// plant writes the old-format file into dir as epoch 9 and returns
	// its path.
	plant := func(t *testing.T, dir string) string {
		t.Helper()
		path := filepath.Join(dir, epochName(9))
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// untouched asserts the planted file is still there, byte for byte.
	untouched := func(t *testing.T, path string) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
			t.Fatalf("the old-format epoch was moved or changed (read err %v)", err)
		}
	}

	t.Run("only epoch", func(t *testing.T) {
		dir := t.TempDir()
		path := plant(t, dir)
		st := reopen(t, dir)
		_, _, err := st.LoadLatest()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), epochName(9)) {
			t.Fatalf("LoadLatest = %v, want ErrCorrupt naming %s", err, epochName(9))
		}
		untouched(t, path)
		// The epoch rebuilt from source seals above it, and the old file
		// is refused no more.
		if _, err := st.Seal(testDB(t, 100).View(), ""); err != nil {
			t.Fatalf("reseal: %v", err)
		}
		loadsEpoch(t, reopen(t, dir), 10, 100)
	})
	t.Run("newer than a current epoch", func(t *testing.T) {
		dir := sealEpochs(t, 100)
		path := plant(t, dir)
		loadsEpoch(t, reopen(t, dir), 1, 100)
		untouched(t, path)
	})
	t.Run("loaded by name", func(t *testing.T) {
		path := plant(t, t.TempDir())
		if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadFile = %v, want ErrCorrupt", err)
		}
		untouched(t, path)
	})
}

// TestTornSegmentMatrix corrupts the newest of two epochs at every
// framing boundary — truncations at and inside the magic, the block
// header, the block data and the trailer, bit flips in each, bytes after
// the trailer, an old-format file — and asserts LoadLatest falls back to
// the older epoch and leaves the torn file where it is, as it was.
func TestTornSegmentMatrix(t *testing.T) {
	seg2 := epochName(2)
	raw, err := os.ReadFile(filepath.Join(sealEpochs(t, 100, 200), seg2))
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
	tears := map[string][]byte{
		"append-garbage": append(append([]byte(nil), raw...), "junk"...),
	}
	for _, cut := range cuts {
		tears["truncate@"+where(cut)] = raw[:cut]
	}
	for _, at := range []int{len(segMagic) - 2, len(segMagic) + 2, len(segMagic) + 6, len(segMagic) + 20, len(raw) - 2} {
		flipped := append([]byte(nil), raw...)
		flipped[at] ^= 0x40
		tears["bitflip@"+where(at)] = flipped
	}
	for name, torn := range tears {
		t.Run(name, func(t *testing.T) {
			dir := sealEpochs(t, 100, 200)
			path := filepath.Join(dir, seg2)
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			loadsEpoch(t, reopen(t, dir), 1, 100)
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, torn) {
				t.Fatalf("the torn epoch was moved or changed (read err %v)", err)
			}
		})
	}

	// A crash that tears the only sealed epoch and leaves a seal's temp
	// file beside it: the temp file is swept, LoadLatest reports the torn
	// epoch as corrupt and keeps it, and the epoch rebuilt from source
	// seals as the next one and loads.
	t.Run("only-epoch-with-debris", func(t *testing.T) {
		dir := sealEpochs(t, 100)
		seg1 := filepath.Join(dir, epochName(1))
		raw1, err := os.ReadFile(seg1)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg1, raw1[:len(raw1)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "epoch-000002.seg.tmp"), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		st := reopen(t, dir)
		if _, err := os.Stat(filepath.Join(dir, "epoch-000002.seg.tmp")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("temp file survived the sweep: %v", err)
		}
		if _, _, err := st.LoadLatest(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("LoadLatest = %v, want ErrCorrupt", err)
		}
		if got, err := os.ReadFile(seg1); err != nil || !bytes.Equal(got, raw1[:len(raw1)/2]) {
			t.Fatalf("the torn epoch was moved or changed (read err %v)", err)
		}
		if _, err := st.Seal(testDB(t, 100).View(), ""); err != nil {
			t.Fatalf("reseal: %v", err)
		}
		loadsEpoch(t, reopen(t, dir), 2, 100)
	})

	// When no epoch loads, the error is the newest one's.
	t.Run("every-epoch-torn", func(t *testing.T) {
		dir := sealEpochs(t, 100, 200)
		for seq := uint64(1); seq <= 2; seq++ {
			if err := os.WriteFile(filepath.Join(dir, epochName(seq)), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err := reopen(t, dir).LoadLatest()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), seg2) {
			t.Fatalf("LoadLatest = %v, want ErrCorrupt naming %s", err, seg2)
		}
	})
}

// faultPlan arms one injected failure of writeFile.
type faultPlan struct {
	failAfter int64 // -1 = no write failure
	short     bool
	failSync  bool
	failClose bool
	rename    bool // fail the rename instead
}

func (p faultPlan) hooks() hooks {
	if p.rename {
		return hooks{rename: func(string, string) error { return faults.ErrInjected }}
	}
	return hooks{wrap: func(f *os.File) io.WriteCloser {
		return &faultyFile{f: f, failAfter: p.failAfter, short: p.short, failSync: p.failSync, failClose: p.failClose}
	}}
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

// TestCrashMatrix kills the write of a segment file at every step of the
// routine WriteFile, WriteAtomic and Seal share — the write (at several
// byte offsets), short writes, a failed fsync, a failed close, a failed
// rename — over a file saved before, and proves the write reports the
// error, the previous file is byte-identical and loads, no temp file is
// left, and the next write succeeds.
func TestCrashMatrix(t *testing.T) {
	plans := []struct {
		name string
		plan faultPlan
	}{
		{"segment-write@0", faultPlan{failAfter: 0}},
		{"segment-write@1", faultPlan{failAfter: 1}},
		{"segment-write@7", faultPlan{failAfter: 7}},
		{"segment-write@64", faultPlan{failAfter: 64}},
		{"segment-write@150", faultPlan{failAfter: 150}},
		{"segment-short-write", faultPlan{failAfter: -1, short: true}},
		{"segment-sync", faultPlan{failAfter: -1, failSync: true}},
		{"segment-close", faultPlan{failAfter: -1, failClose: true}},
		{"segment-rename", faultPlan{rename: true}},
	}
	want100 := archiveBytes(t, testDB(t, 100))
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "saved.dzdb")
			if err := WriteFile(path, testDB(t, 100).View()); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			next := testDB(t, 200).View()
			if err := writeFile(path, tc.plan.hooks(), func(w io.Writer) error {
				return writeSegment(w, next.WriteSegment)
			}); err == nil {
				t.Fatal("the write should have failed under injection")
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
				t.Fatalf("the failed write disturbed the previous file (read err %v)", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Errorf("directory holds %d entries, want the file alone", len(entries))
			}
			db, err := ReadFile(path)
			if err != nil {
				t.Fatalf("ReadFile after the failed write: %v", err)
			}
			if !bytes.Equal(archiveBytes(t, db), want100) {
				t.Fatal("the previous file loads other facts")
			}
			if err := WriteFile(path, next); err != nil {
				t.Fatalf("WriteFile after the failed write: %v", err)
			}
		})
	}
}
