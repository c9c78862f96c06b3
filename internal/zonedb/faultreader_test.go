package zonedb

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/faults"
)

// failingReader wraps an io.Reader and fails with faults.ErrInjected once
// failAfter bytes have been delivered — the snapshot source whose disk
// dies mid-file that the ingest robustness tests need. A failAfter of 0
// fails on the first Read.
type failingReader struct {
	r         io.Reader
	failAfter int64
	n         int64
}

func newFailingReader(r io.Reader, failAfter int64) *failingReader {
	return &failingReader{r: r, failAfter: failAfter}
}

// Read delivers bytes until the failure point, then returns the injected
// error forever.
func (r *failingReader) Read(p []byte) (int, error) {
	remaining := r.failAfter - r.n
	if remaining <= 0 {
		return 0, faults.ErrInjected
	}
	if int64(len(p)) > remaining {
		p = p[:remaining]
	}
	n, err := r.r.Read(p)
	r.n += int64(n)
	if err == io.EOF {
		return n, io.EOF // source ended before the scheduled failure
	}
	if err == nil && r.n >= r.failAfter {
		err = faults.ErrInjected
	}
	return n, err
}

func TestReaderFailsAfterN(t *testing.T) {
	r := newFailingReader(strings.NewReader(strings.Repeat("x", 100)), 10)
	buf := make([]byte, 4)
	total := 0
	var err error
	for err == nil {
		var n int
		n, err = r.Read(buf)
		total += n
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if total != 10 {
		t.Fatalf("delivered %d bytes before failing, want 10", total)
	}
}

func TestReaderEOFBeforeFailure(t *testing.T) {
	r := newFailingReader(strings.NewReader("abc"), 100)
	buf := make([]byte, 16)
	n, _ := r.Read(buf)
	if n != 3 {
		t.Fatalf("n = %d", n)
	}
	if _, err := r.Read(buf); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}
