package zonedb

import (
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
)

// SnapshotSource yields snapshots in the order they should be ingested.
type SnapshotSource interface {
	// Next returns the next snapshot and a name for diagnostics (a file
	// path), or io.EOF when exhausted. A snapshot that cannot be read or
	// parsed returns a non-nil error with the name still set; the
	// iterator stays usable, so degraded ingestion can move on.
	Next() (snap *dnszone.Snapshot, name string, err error)
}

// FileSource reads master-file snapshots from a filesystem, in the given
// path order. Paths should be sorted so each zone's snapshots arrive
// chronologically — the date-stamped naming scheme (zone-YYYY-MM-DD)
// makes lexical order chronological.
//
// Next reads ahead: it keeps the next GOMAXPROCS files in flight, each
// parsed on a goroutine of its own, and hands the results back in path
// order, so the caller diffs one file while the following ones parse.
// Files are opened, and Wrap is applied to them, on the caller's
// goroutine in path order; the readers Wrap returns are then read
// concurrently with one another, so they must not share state. At most
// GOMAXPROCS files are open, and as many parsed snapshots held, ahead of
// the consumer. A source abandoned part-way needs no Close: each
// read-ahead goroutine finishes its parse, closes its file and exits.
type FileSource struct {
	FS    fs.FS
	Paths []string
	// Wrap, when set, wraps each file's reader — the hook the chaos
	// tests use to inject mid-file read failures.
	Wrap func(io.Reader) io.Reader

	next  int             // index of the path Next returns next
	ahead []chan fileRead // one slot per path in [next, next+len(ahead))
}

// fileRead is one file's parse, delivered into that file's slot.
type fileRead struct {
	snap *dnszone.Snapshot
	err  error
}

// Next implements SnapshotSource.
func (f *FileSource) Next() (*dnszone.Snapshot, string, error) {
	if f.next >= len(f.Paths) {
		return nil, "", io.EOF
	}
	window := runtime.GOMAXPROCS(0)
	for len(f.ahead) < window && f.next+len(f.ahead) < len(f.Paths) {
		f.ahead = append(f.ahead, f.start(f.Paths[f.next+len(f.ahead)]))
	}
	r := <-f.ahead[0]
	f.ahead = f.ahead[1:]
	path := f.Paths[f.next]
	f.next++
	return r.snap, path, r.err
}

// start opens path and parses it on a goroutine of its own, returning
// the slot its result arrives in.
func (f *FileSource) start(path string) chan fileRead {
	slot := make(chan fileRead, 1)
	file, err := f.FS.Open(path)
	if err != nil {
		slot <- fileRead{err: err}
		return slot
	}
	var r io.Reader = file
	if f.Wrap != nil {
		r = f.Wrap(file)
	}
	go func() {
		snap, err := dnszone.Read(r)
		file.Close()
		slot <- fileRead{snap, err}
	}()
	return slot
}

// SliceSource yields an in-memory snapshot slice in order — the test and
// benchmark counterpart of FileSource.
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

// IngestAll drains src into the ingester. In strict mode the first
// invalid snapshot aborts the ingest with its error; in degraded mode
// invalid snapshots — unreadable, unparseable, undated, out of order, or
// gapped — are quarantined and ingestion continues with the rest.
//
// With Workers > 1 the source is still drained serially (snapshot order
// is semantic), but each snapshot is handed to the worker that owns its
// zone, and the per-worker databases are merged once the source is
// exhausted. The result is identical to a serial ingest except that
// Quarantine() entries are sorted rather than in arrival order.
func (ing *Ingester) IngestAll(src SnapshotSource) error {
	if ing.Workers > 1 {
		return ing.ingestParallel(src, ing.Workers)
	}
	for {
		snap, name, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			wrapped := fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
			if rerr := ing.reject("", dates.None, name, wrapped); rerr != nil {
				return rerr
			}
			continue
		}
		if err := ing.addSnapshot(snap, name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
}

// zoneWorker maps a zone to its owning worker. All snapshots of one zone
// land on one worker, preserving per-zone ordering and gap validation.
// It is the same partition the cluster layer uses to place zones on
// shards (see ShardOf).
func zoneWorker(zone dnsname.Name, workers int) int {
	return ShardOf(zone, workers)
}

// ingestParallel shards src across a zone-affine worker pool. The parent
// ingester ends up holding the merged database, per-zone history, and
// quarantine report, exactly as if it had ingested serially. Each
// worker adds the wall time it spends inside addSnapshot (channel waits
// excluded) to its own busy slot; the round's Σbusy ÷ (wall × workers)
// becomes ParallelEfficiency.
func (ing *Ingester) ingestParallel(src SnapshotSource, workers int) error {
	type item struct {
		snap *dnszone.Snapshot
		name string
	}
	qn := int64(len(ing.quarantined))
	ing.sharedQ = &qn
	defer func() { ing.sharedQ = nil }()

	roundStart := time.Now()
	busy := make([]time.Duration, workers)

	children := make([]*Ingester, workers)
	chans := make([]chan item, workers)
	errs := make([]error, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := range children {
		c := NewIngester()
		c.Degraded = ing.Degraded
		c.MaxQuarantine = ing.MaxQuarantine
		c.Obs = ing.Obs
		c.sharedQ = &qn
		children[i] = c
		chans[i] = make(chan item, 64)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for it := range chans[i] {
				if errs[i] != nil {
					continue // drain the channel after a failure
				}
				start := time.Now()
				err := children[i].addSnapshot(it.snap, it.name)
				busy[i] += time.Since(start)
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", it.name, err)
					failed.Store(true)
				}
			}
		}(i)
	}

	var dispatchErr error
	for !failed.Load() {
		snap, name, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			wrapped := fmt.Errorf("%w: %s: %v", ErrSnapshotCorrupt, name, err)
			if rerr := ing.reject("", dates.None, name, wrapped); rerr != nil {
				dispatchErr = rerr
				break
			}
			continue
		}
		w := zoneWorker(snap.Zone, workers)
		chans[w] <- item{snap: snap, name: name}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	var total time.Duration
	for _, b := range busy {
		total += b
	}
	if wall := time.Since(roundStart); wall > 0 {
		ing.parallelEff = float64(total) / float64(wall) / float64(workers)
	}

	if dispatchErr != nil {
		return dispatchErr
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Merge the per-worker shards. Zones are disjoint across workers, so
	// everything but the byNS index (a nameserver can serve domains in
	// many zones) is a plain union.
	for _, c := range children {
		for zone, st := range c.prev {
			ing.prev[zone] = st
		}
		if c.last != dates.None && (ing.last == dates.None || c.last > ing.last) {
			ing.last = c.last
		}
		ing.quarantined = append(ing.quarantined, c.quarantined...)
		ing.db.absorb(c.db)
	}
	sort.Slice(ing.quarantined, func(i, j int) bool {
		a, b := ing.quarantined[i], ing.quarantined[j]
		if a.Zone != b.Zone {
			return a.Zone < b.Zone
		}
		if a.Date != b.Date {
			return a.Date < b.Date
		}
		return a.Source < b.Source
	})
	return nil
}
