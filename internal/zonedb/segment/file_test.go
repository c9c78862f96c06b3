package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/zonedb"
)

// wideDB is a sealed database whose payload spans several blocks.
func wideDB(t *testing.T) *zonedb.DB {
	t.Helper()
	db := zonedb.New()
	for i := 0; i < 3000; i++ {
		dom := dnsname.Name(fmt.Sprintf("d%04d.com", i))
		db.DomainAdded("com", dom, dates.Day(i%50))
		db.DelegationAdded("com", dom, dnsname.Name(fmt.Sprintf("ns%d.host%d.net", i%3, i%97)), dates.Day(i%50))
	}
	db.Close(100)
	return db
}

// TestWriteFileIsAtomic: a reader of the file WriteFile replaces sees the
// previous file or the new one and nothing in between, and a write that
// fails leaves the previous file as it was.
func TestWriteFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "saved.dzdb")
	small, wide := testDB(t, 100), wideDB(t)
	if err := WriteFile(path, small.View()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("failed write", func(t *testing.T) {
		open := zonedb.New()
		open.DomainAdded("com", "x.com", 1)
		if err := WriteFile(path, open.View()); err == nil {
			t.Fatal("an unclosed view was written")
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
			t.Errorf("the failed write disturbed the previous file (read err %v)", err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Errorf("directory holds %d entries, want the file alone", len(entries))
		}
	})

	t.Run("reader during rewrites", func(t *testing.T) {
		// The two views differ in size, so a reader sizing one file by the
		// other would fail.
		want := map[string]bool{string(archiveBytes(t, small)): true, string(archiveBytes(t, wide)): true}
		done := make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			defer close(errc)
			for {
				db, err := ReadFile(path)
				if err != nil {
					errc <- err
					return
				}
				var buf bytes.Buffer
				if err := db.View().WriteArchive(&buf); err != nil || !want[buf.String()] {
					errc <- fmt.Errorf("read a database that was never written (archive err %v)", err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
		for i := 0; i < 50; i++ {
			v := small.View()
			if i%2 == 0 {
				v = wide.View()
			}
			if err := WriteFile(path, v); err != nil {
				t.Errorf("WriteFile %d: %v", i, err)
				break
			}
		}
		close(done)
		if err := <-errc; err != nil {
			t.Fatalf("reader: %v", err)
		}
	})
}

// TestWriteAtomicFailedEncode: an encode that fails after writing part
// of its output leaves the previous file intact and no temp file behind.
func TestWriteAtomicFailedEncode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	if err := WriteAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "previous")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	errEncode := errors.New("encode failed")
	err := WriteAtomic(path, func(w io.Writer) error {
		// Past the write buffer, so part of it reaches the temp file.
		if _, err := w.Write(bytes.Repeat([]byte("x"), 1<<17)); err != nil {
			return err
		}
		return errEncode
	})
	if !errors.Is(err, errEncode) {
		t.Fatalf("WriteAtomic = %v, want the encode error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "previous" {
		t.Errorf("file after the failed write: %q (read err %v)", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want the file alone", len(entries))
	}
}

// TestReadFileRefusals: whatever is wrong with the file, ReadFile says it
// is corrupt, and never panics.
func TestReadFileRefusals(t *testing.T) {
	db := wideDB(t)
	path := filepath.Join(t.TempDir(), "good.dzdb")
	if err := WriteFile(path, db.View()); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := db.View().WriteArchive(&text); err != nil {
		t.Fatal(err)
	}
	flip := func(at int) []byte {
		out := append([]byte(nil), good...)
		out[at] ^= 0x10
		return out
	}
	cases := map[string][]byte{
		// A text archive from before the segment was the one format, and
		// the same archive in a segment's framing, as segments were
		// written before the binary payload.
		"text archive":        text.Bytes(),
		"dzdbseg 1":           oldFormatSegment(t, db),
		"empty":               {},
		"truncate@end-1":      good[:len(good)-1],
		"bitflip in block":    flip(len(segMagic) + 8 + 5),
		"bitflip in trailer":  flip(len(good) - 1),
		"bytes after trailer": append(append([]byte(nil), good...), 0),
	}
	// Truncate at every block boundary: the start of each block header,
	// the trailer's included.
	blocks := 0
	for at := len(segMagic); ; blocks++ {
		cases[fmt.Sprintf("truncate@block%d", blocks)] = good[:at]
		n := binary.BigEndian.Uint32(good[at:])
		if n == 0 {
			break
		}
		at += 8 + int(n)
	}
	if blocks < 2 {
		t.Fatalf("the payload fits %d block(s); the boundaries need several", blocks)
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "bad.dzdb")
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadFile(p); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadFile = %v, want ErrCorrupt", err)
			}
		})
	}
}
