package zonedb

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
	"time"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
)

// oneAtATime is the reference FileSource: each Next opens, wraps, parses
// and closes one file before it returns.
type oneAtATime struct {
	FS    fs.FS
	Paths []string
	Wrap  func(io.Reader) io.Reader
	next  int
}

func (s *oneAtATime) Next() (*dnszone.Snapshot, string, error) {
	if s.next >= len(s.Paths) {
		return nil, "", io.EOF
	}
	path := s.Paths[s.next]
	s.next++
	file, err := s.FS.Open(path)
	if err != nil {
		return nil, path, err
	}
	defer file.Close()
	var r io.Reader = file
	if s.Wrap != nil {
		r = s.Wrap(file)
	}
	snap, err := dnszone.Read(r)
	return snap, path, err
}

// countingFS counts the files opened through it and not yet closed, and
// remembers the most that were ever open at once.
type countingFS struct {
	fs.FS
	mu                      sync.Mutex
	opened, closed, maxOpen int
}

func (c *countingFS) Open(name string) (fs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opened++
	c.maxOpen = max(c.maxOpen, c.opened-c.closed)
	return &countedFile{File: f, fs: c}, nil
}

func (c *countingFS) counts() (opened, closed, maxOpen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opened, c.closed, c.maxOpen
}

type countedFile struct {
	fs.File
	fs *countingFS
}

func (f *countedFile) Close() error {
	f.fs.mu.Lock()
	f.fs.closed++
	f.fs.mu.Unlock()
	return f.File.Close()
}

// withProcs runs fn at GOMAXPROCS n and restores the old setting.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// comSeries is n consecutive daily .com files named com-NNN.zone.
func comSeries(t *testing.T, n int) (fstest.MapFS, []string) {
	t.Helper()
	fsys := fstest.MapFS{}
	var paths []string
	for i := range n {
		name := fmt.Sprintf("com-%03d.zone", i)
		fsys[name] = &fstest.MapFile{Data: snapBytes(t, "com", d(i),
			map[dnsname.Name][]dnsname.Name{"a.com": {"ns1.x.net"}, dnsname.Name(fmt.Sprintf("d%d.com", i)): {"ns2.x.net"}})}
		paths = append(paths, name)
	}
	return fsys, paths
}

// TestFileSourceReadAheadBound: the read-ahead never holds more than
// GOMAXPROCS files opened and not yet returned by Next, nor more than
// GOMAXPROCS open at once — and it does use the whole window.
func TestFileSourceReadAheadBound(t *testing.T) {
	mapFS, paths := comSeries(t, 40)
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			cfs := &countingFS{FS: mapFS}
			src := &FileSource{FS: cfs, Paths: paths}
			maxAhead := 0
			for returned := 0; ; returned++ {
				_, _, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				opened, _, _ := cfs.counts()
				// Next has just returned file number returned+1.
				maxAhead = max(maxAhead, opened-returned)
			}
			if maxAhead != procs {
				t.Errorf("GOMAXPROCS=%d: at most %d files opened and not yet returned, want exactly %d", procs, maxAhead, procs)
			}
			if _, _, maxOpen := cfs.counts(); maxOpen > procs {
				t.Errorf("GOMAXPROCS=%d: %d files open at once", procs, maxOpen)
			}
		})
	}
}

// gated blocks its first Read until the gate closes.
type gated struct {
	r    io.Reader
	gate chan struct{}
}

func (g *gated) Read(p []byte) (int, error) {
	<-g.gate
	return g.r.Read(p)
}

// TestFileSourceAbandoned: a strict ingest that stops at the second of
// fifty files leaves the files read ahead of it in flight; once their
// reads can finish, every opened file is closed and every read-ahead
// goroutine gone, with no Close on the source.
func TestFileSourceAbandoned(t *testing.T) {
	mapFS, paths := comSeries(t, 50)
	mapFS[paths[1]] = &fstest.MapFile{Data: []byte("$ORIGIN com.\nthis is not a record\n")}
	withProcs(8, func() {
		baseline := runtime.NumGoroutine()
		cfs := &countingFS{FS: mapFS}
		gate := make(chan struct{})
		wrapped := 0
		src := &FileSource{FS: cfs, Paths: paths, Wrap: func(r io.Reader) io.Reader {
			wrapped++
			if wrapped > 2 { // hold every file after the bad one
				return &gated{r: r, gate: gate}
			}
			return r
		}}
		if err := NewIngester().IngestAll(src); err == nil || !strings.Contains(err.Error(), paths[1]) {
			t.Fatalf("strict ingest = %v, want the error of %s", err, paths[1])
		}
		opened, closed, _ := cfs.counts()
		if opened > 1+8 || opened-closed == 0 {
			t.Fatalf("after the abort: %d opened, %d closed; want some, and at most 9, in flight", opened, closed)
		}
		close(gate)
		deadline := time.Now().Add(10 * time.Second)
		for {
			opened, closed, _ = cfs.counts()
			n := runtime.NumGoroutine()
			if opened == closed && n <= baseline {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("abandoned source: %d opened, %d closed, %d goroutines (baseline %d)", opened, closed, n, baseline)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// readStep is one Next result in comparable form.
type readStep struct{ snap, name, err string }

func drain(t *testing.T, src SnapshotSource) []readStep {
	t.Helper()
	var steps []readStep
	for {
		snap, name, err := src.Next()
		if err == io.EOF {
			return steps
		}
		st := readStep{name: name}
		if err != nil {
			st.err = err.Error()
		}
		if snap != nil {
			var buf bytes.Buffer
			if werr := snap.Write(&buf); werr != nil {
				t.Fatal(werr)
			}
			st.snap = buf.String()
		}
		steps = append(steps, st)
	}
}

// TestFileSourceOrder: at any GOMAXPROCS the read-ahead yields exactly
// the one-at-a-time sequence — open errors, parse errors and faulted
// reads at their positions — and a degraded ingest quarantines the same
// entries in the same order.
func TestFileSourceOrder(t *testing.T) {
	fsys, all, _ := corpus(t)
	// An open error (a path missing from the filesystem) and a mid-file
	// read fault on the fifth file wrapped.
	paths := slices.Insert(slices.Clone(all), 2, "missing.zone")
	newWrap := func() func(io.Reader) io.Reader {
		n := 0
		return func(r io.Reader) io.Reader {
			if n++; n == 5 {
				return newFailingReader(r, 10)
			}
			return r
		}
	}
	want := drain(t, &oneAtATime{FS: fsys, Paths: paths, Wrap: newWrap()})
	var errs int
	for _, st := range want {
		if st.err != "" {
			errs++
		}
	}
	if errs != 3 {
		t.Fatalf("reference sequence has %d errors, want 3 (missing, garbage, faulted)", errs)
	}
	quarantine := func(src SnapshotSource, workers int) []string {
		ing := NewIngester()
		ing.Degraded, ing.Workers = true, workers
		if err := ing.IngestAll(src); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ing.Quarantine().Entries {
			out = append(out, fmt.Sprintf("%s %s %s %s %v", e.Zone, e.Date, e.Source, e.Reason, e.Err))
		}
		return out
	}
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			if got := drain(t, &FileSource{FS: fsys, Paths: paths, Wrap: newWrap()}); !slices.Equal(got, want) {
				t.Errorf("GOMAXPROCS=%d: sequence differs from one-at-a-time:\ngot  %q\nwant %q", procs, got, want)
			}
			for _, workers := range []int{0, 2} {
				wantQ := quarantine(&oneAtATime{FS: fsys, Paths: paths, Wrap: newWrap()}, workers)
				gotQ := quarantine(&FileSource{FS: fsys, Paths: paths, Wrap: newWrap()}, workers)
				if len(wantQ) < 5 || !slices.Equal(gotQ, wantQ) {
					t.Errorf("GOMAXPROCS=%d workers=%d: quarantine\ngot  %q\nwant %q", procs, workers, gotQ, wantQ)
				}
			}
		})
	}
}

// BenchmarkFileSourceIngest times zone files to a closed database:
// IngestAll over a FileSource and Finish, on 300 small files (three
// zones, a hundred days, ~2000 delegations each with daily churn) in a
// temporary directory.
func BenchmarkFileSourceIngest(b *testing.B) {
	const days, domains = 100, 2000
	dir := b.TempDir()
	var paths []string
	for _, zone := range []dnsname.Name{"com", "net", "org"} {
		for day := range days {
			s := dnszone.NewSnapshot(zone, dates.Day(day))
			for i := range domains {
				// Each domain is delegated for a run of days and then
				// gone for a few, so every file differs from the last.
				if (i+day)%50 < 3 {
					continue
				}
				dom := dnsname.Name(fmt.Sprintf("d%05d.%s", i, zone))
				s.AddDelegation(dom, dnsname.Name(fmt.Sprintf("ns1.host%d.net", i%97)), dnsname.Name(fmt.Sprintf("ns2.host%d.org", (i+day/30)%89)))
			}
			s.Sort()
			var buf bytes.Buffer
			if err := s.Write(&buf); err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("%s-%03d.zone", zone, day)
			if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
				b.Fatal(err)
			}
			paths = append(paths, name)
		}
	}
	fsys := os.DirFS(dir)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		ing := NewIngester()
		if err := ing.IngestAll(&FileSource{FS: fsys, Paths: paths}); err != nil {
			b.Fatal(err)
		}
		ing.Finish()
	}
}

// SliceSource yields an in-memory snapshot slice in order: the tests'
// counterpart of FileSource.
type SliceSource struct {
	Snaps []*dnszone.Snapshot
	// Name, when set, labels snapshots for diagnostics as Name[i].
	Name string

	next int
}

// Next implements SnapshotSource.
func (s *SliceSource) Next() (*dnszone.Snapshot, string, error) {
	if s.next >= len(s.Snaps) {
		return nil, "", io.EOF
	}
	snap := s.Snaps[s.next]
	name := ""
	if s.Name != "" {
		name = fmt.Sprintf("%s[%d]", s.Name, s.next)
	}
	s.next++
	return snap, name, nil
}
