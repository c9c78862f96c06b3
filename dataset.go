package riskybiz

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/whois"
	"repro/internal/zonedb"
	"repro/internal/zonedb/segment"
)

// A saved dataset is three files under one prefix: PREFIX.dzdb, the zone
// database as a segment file; PREFIX.whois, the WHOIS history as text;
// and PREFIX.exclude, the nameservers left out of the analyses, one a
// line (optional on load). Zone files are master files named
// <zone>-<date>.zone, so lexical order is chronological per zone.

// SaveData writes the study's data as a dataset under prefix, so
// detection can be re-run without simulating (LoadContext, riskywatchd
// -archive, zonedump -load, dzdbd -load). The segment replaces
// PREFIX.dzdb atomically: a riskywatchd tailing it never reads a
// half-written file.
func SaveData(st *Study, prefix string) error {
	if err := segment.WriteFile(prefix+".dzdb", st.DB.View()); err != nil {
		return err
	}
	write := func(suffix string, fn func(*bufio.Writer) error) error {
		f, err := os.Create(prefix + suffix)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		if err := fn(bw); err != nil {
			f.Close()
			return err
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(".whois", func(w *bufio.Writer) error {
		return st.WHOIS.WriteArchive(w)
	}); err != nil {
		return err
	}
	return write(".exclude", func(w *bufio.Writer) error {
		for _, ns := range st.Exclude {
			fmt.Fprintln(w, ns)
		}
		return nil
	})
}

// LoadContext runs detection and the analyses over a dataset SaveData
// wrote instead of a simulation — the workflow of a researcher with real
// zone-file and WHOIS archives. The zone database is read from
// PREFIX.dzdb, or is db when non-nil (IngestSnapshots builds one from
// zone files). The study's World is nil.
func LoadContext(ctx context.Context, prefix string, db *zonedb.DB) (*Study, error) {
	if db == nil {
		_, sp := trace.Start(ctx, "load.archive")
		var err error
		db, err = segment.ReadFile(prefix + ".dzdb")
		sp.SetError(err)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	_, wsp := trace.Start(ctx, "load.whois")
	who, err := readWHOIS(prefix + ".whois")
	wsp.SetError(err)
	wsp.End()
	if err != nil {
		return nil, err
	}
	exclude, err := readExclude(prefix + ".exclude")
	if err != nil {
		return nil, err
	}
	st := &Study{DB: db, WHOIS: who, Exclude: exclude}
	st.analyze(ctx, sim.StandardDirectory(), detect.Config{})
	return st, nil
}

func readWHOIS(path string) (*whois.History, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return whois.ReadFrom(bufio.NewReader(f))
}

// readExclude reads an exclusion list; a missing file is an empty list.
func readExclude(path string) ([]dnsname.Name, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var exclude []dnsname.Name
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		n, err := dnsname.Parse(line)
		if err != nil {
			return nil, fmt.Errorf("exclude list: %w", err)
		}
		exclude = append(exclude, n)
	}
	return exclude, sc.Err()
}

// SaveSnapshots writes every zone-day of a simulated study as a master
// file <zone>-<date>.zone in dir, from the world's first day to its
// last, and returns how many it wrote. A loaded study is refused: its
// database does not record the day its data began.
func SaveSnapshots(st *Study, dir string) (int, error) {
	if st.World == nil {
		return 0, errors.New("riskybiz: zone files are written from a simulated world, not loaded data")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	v := st.DB.View()
	x := v.ZoneIndex()
	cfg := st.World.Config()
	zones := v.Zones()
	n := 0
	var buf []byte
	for day := cfg.Start; day <= cfg.End; day++ {
		for _, zone := range zones {
			buf = x.SnapshotOn(zone, day).AppendTo(buf[:0])
			name := string(zone) + "-" + day.String() + ".zone"
			if err := os.WriteFile(filepath.Join(dir, name), buf, 0o666); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// osFS exposes the host filesystem to the snapshot FileSource.
type osFS struct{}

func (osFS) Open(name string) (fs.File, error) { return os.Open(name) }

// IngestSnapshots builds a zone database by feeding the zone files
// matching glob, sorted by path, through ing (whose Degraded,
// MaxQuarantine and Workers settings apply; ing.Quarantine reports what
// was skipped).
func IngestSnapshots(ctx context.Context, glob string, ing *zonedb.Ingester) (*zonedb.DB, error) {
	_, sp := trace.Start(ctx, "load.snapshots")
	defer sp.End()
	paths, err := filepath.Glob(glob)
	if err == nil && len(paths) == 0 {
		err = fmt.Errorf("no snapshots match %q", glob)
	}
	if err == nil {
		sort.Strings(paths)
		err = ing.IngestAll(&zonedb.FileSource{FS: osFS{}, Paths: paths})
	}
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	return ing.Finish(), nil
}
