package segment

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dates"
	"repro/internal/zonedb"
)

const (
	manifestName  = "MANIFEST"
	manifestMagic = "dzdbman 1"
	segSuffix     = ".seg"
	tmpSuffix     = ".tmp"
	quarantineDir = "quarantine"

	// defaultKeep is how many sealed epochs Seal retains; older segments
	// are pruned once the manifest naming the survivors is durable.
	defaultKeep = 4
)

// ErrEmpty reports a store holding no sealed epochs.
var ErrEmpty = errors.New("segment: no sealed epochs")

// Info describes one sealed segment as recorded in the manifest.
type Info struct {
	// Seq is the store-local seal sequence number; it only grows.
	Seq uint64
	// Name is the segment's file name within the store directory.
	Name string
	// Size and CRC are the file's length and whole-file CRC32C — what
	// Open verifies before an epoch is considered adoptable.
	Size int64
	CRC  uint32
	// CloseDay is the epoch's seal day (the payload's close day).
	CloseDay dates.Day
	// SourceTag is an opaque provenance tag recorded by the sealer — a
	// checksum of the source, say, so a caller can recognise an unchanged
	// source and skip the re-ingest.
	SourceTag string
}

// Quarantine records one file moved aside because verification failed.
type Quarantine struct {
	// Name is the original file name (MANIFEST or a segment).
	Name string
	// Reason is a short label: "missing", "size", "checksum", "decode",
	// or "manifest".
	Reason string
	// Err is the full verification error (nil for "missing").
	Err error
}

// Hooks intercept the store's file operations — the crash-matrix tests
// inject faults.WriteCloser wrappers and failing renames here. Zero
// value means direct OS calls.
type Hooks struct {
	// WrapFile, when set, wraps every file the store writes (segment and
	// manifest temp files), keyed by the final file name. The returned
	// writer's Close must close the underlying file.
	WrapFile func(name string, f *os.File) io.WriteCloser
	// Rename, when set, replaces os.Rename for the atomic swaps.
	Rename func(oldpath, newpath string) error
}

// Option configures a Store at Open.
type Option func(*Store)

// WithKeep sets how many sealed epochs Seal retains (minimum 1).
func WithKeep(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.keep = n
		}
	}
}

// WithHooks installs fault-injection hooks (tests only).
func WithHooks(h Hooks) Option { return func(s *Store) { s.hooks = h } }

// Store is an on-disk set of sealed epoch segments under one directory.
// All methods are safe for concurrent use.
type Store struct {
	dir   string
	keep  int
	hooks Hooks

	mu          sync.Mutex
	segs        []Info // ascending Seq, all verified at Open
	quarantined []Quarantine
}

// Open verifies the store under dir, quarantining anything corrupt, and
// returns it ready for Load and Seal. A missing or empty directory is a
// valid empty store. Leftover temp files from a crashed seal are
// removed; segment files not named by a healthy manifest were never
// committed and are removed too. If the manifest itself is corrupt it is
// quarantined along with every segment file (preserved for manual
// recovery) and the store starts empty — the caller rebuilds from
// source.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{dir: dir, keep: defaultKeep}
	for _, o := range opts {
		o(s)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, err
	}

	listed, manifestHealthy, err := s.openManifest()
	if err != nil {
		return nil, err
	}

	// Verify every listed segment before trusting it.
	dropped := false
	for _, info := range listed {
		if reason, verr := s.verifySegment(info); reason != "" {
			s.quarantine(info.Name, reason, verr)
			dropped = true
			continue
		}
		s.segs = append(s.segs, info)
	}
	sort.Slice(s.segs, func(i, j int) bool { return s.segs[i].Seq < s.segs[j].Seq })

	// Sweep the directory: temp files are crashed-seal leftovers, and a
	// .seg not named by a healthy manifest was never committed. When the
	// manifest itself was quarantined, preserve the orphans instead —
	// they are the only copies left.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	named := make(map[string]bool, len(listed))
	for _, info := range listed {
		named[info.Name] = true
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasSuffix(name, tmpSuffix):
			os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, segSuffix) && !named[name]:
			if manifestHealthy {
				os.Remove(filepath.Join(dir, name))
			} else {
				s.quarantine(name, "orphan", nil)
			}
		}
	}

	// A repaired view of the world must be durable before anyone trusts
	// Open's result: rewrite the manifest when anything was dropped.
	if dropped || !manifestHealthy {
		if err := s.writeManifestLocked(s.segs); err != nil {
			return nil, fmt.Errorf("segment: rewriting manifest after recovery: %w", err)
		}
	}
	return s, nil
}

// openManifest reads and verifies the manifest, quarantining it when
// corrupt. It returns the listed segments and whether the manifest was
// healthy (a missing manifest counts as healthy-and-empty).
func (s *Store) openManifest() ([]Info, bool, error) {
	path := filepath.Join(s.dir, manifestName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, true, nil
	}
	if err != nil {
		return nil, false, err
	}
	listed, perr := parseManifest(data)
	if perr != nil {
		s.quarantine(manifestName, "manifest", perr)
		return nil, false, nil
	}
	return listed, true, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Segments returns the verified sealed segments, oldest first.
func (s *Store) Segments() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, len(s.segs))
	copy(out, s.segs)
	return out
}

// Latest returns the newest sealed segment, if any.
func (s *Store) Latest() (Info, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) == 0 {
		return Info{}, false
	}
	return s.segs[len(s.segs)-1], true
}

// Quarantined returns every file this store handle has moved aside.
func (s *Store) Quarantined() []Quarantine {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Quarantine, len(s.quarantined))
	copy(out, s.quarantined)
	return out
}

// Load decodes one sealed segment into a fresh, closed database. If the
// segment fails verification despite having passed at Open (bit-rot
// since, or a Load of a stale Info), it is quarantined and the error
// wraps ErrCorrupt.
func (s *Store) Load(info Info) (*zonedb.DB, error) {
	db, err := s.load(info)
	if err != nil {
		err = fmt.Errorf("%s: %w", info.Name, err)
		s.dropSegment(info, "decode", err)
		return nil, err
	}
	return db, nil
}

// load decodes one segment under the size its manifest entry recorded.
func (s *Store) load(info Info) (*zonedb.DB, error) {
	f, err := os.Open(filepath.Join(s.dir, info.Name))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	defer f.Close()
	return readSegment(f, info.Size)
}

// LoadLatest loads the newest sealed epoch, falling back to older ones
// when the newest is corrupt (each failure is quarantined). ErrEmpty
// means no epoch survived.
func (s *Store) LoadLatest() (*zonedb.DB, Info, error) {
	for {
		info, ok := s.Latest()
		if !ok {
			return nil, Info{}, ErrEmpty
		}
		db, err := s.Load(info)
		if err == nil {
			return db, info, nil
		}
	}
}

// Seal encodes the sealed view as a new segment and commits it with a
// manifest swap. The view must be closed (WriteSegment requires it).
// sourceTag is recorded verbatim for provenance checks. On any error the
// store's sealed state is unchanged — the previous manifest still names
// exactly the previous segments.
func (s *Store) Seal(v *zonedb.View, sourceTag string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var seq uint64 = 1
	if n := len(s.segs); n > 0 {
		seq = s.segs[n-1].Seq + 1
	}
	name := fmt.Sprintf("epoch-%06d%s", seq, segSuffix)
	size, crc, err := writeFile(filepath.Join(s.dir, name), s.hooks, func(w io.Writer) error {
		return writeSegment(w, v.WriteSegment)
	})
	if err != nil {
		return Info{}, fmt.Errorf("segment: sealing %s: %w", name, err)
	}
	info := Info{Seq: seq, Name: name, Size: size, CRC: crc, CloseDay: v.CloseDay(), SourceTag: sourceTag}

	next := append(append([]Info(nil), s.segs...), info)
	var pruned []Info
	if s.keep > 0 && len(next) > s.keep {
		pruned = next[:len(next)-s.keep]
		next = next[len(next)-s.keep:]
	}
	if err := s.writeManifestLocked(next); err != nil {
		// The new segment was never committed; remove the garbage.
		os.Remove(filepath.Join(s.dir, name))
		return Info{}, fmt.Errorf("segment: committing %s: %w", name, err)
	}
	s.segs = next
	for _, p := range pruned {
		os.Remove(filepath.Join(s.dir, p.Name))
	}
	return info, nil
}

// verifySegment checks one manifest-listed segment's presence, length,
// and whole-file CRC32C. It returns a non-empty reason on failure.
func (s *Store) verifySegment(info Info) (string, error) {
	if filepath.Base(info.Name) != info.Name || !strings.HasSuffix(info.Name, segSuffix) {
		return "manifest", fmt.Errorf("%w: illegal segment name %q", ErrCorrupt, info.Name)
	}
	path := filepath.Join(s.dir, info.Name)
	fi, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return "missing", err
	}
	if err != nil {
		return "missing", err
	}
	if fi.Size() != info.Size {
		return "size", fmt.Errorf("%w: %s is %d bytes, manifest says %d", ErrCorrupt, info.Name, fi.Size(), info.Size)
	}
	f, err := os.Open(path)
	if err != nil {
		return "missing", err
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	if _, err := io.Copy(h, f); err != nil {
		return "checksum", err
	}
	if h.Sum32() != info.CRC {
		return "checksum", fmt.Errorf("%w: %s checksum %08x, manifest says %08x", ErrCorrupt, info.Name, h.Sum32(), info.CRC)
	}
	return "", nil
}

// quarantine moves a file into the quarantine/ subdirectory (when it
// exists on disk) and records the event. It takes s.mu itself to append
// the record, so callers must not hold it; the move is idempotent.
func (s *Store) quarantine(name, reason string, err error) {
	src := filepath.Join(s.dir, name)
	if _, statErr := os.Stat(src); statErr == nil {
		os.Rename(src, filepath.Join(s.dir, quarantineDir, name))
	}
	s.mu.Lock()
	s.quarantined = append(s.quarantined, Quarantine{Name: name, Reason: reason, Err: err})
	s.mu.Unlock()
}

// dropSegment quarantines a segment discovered corrupt after Open and
// durably rewrites the manifest without it.
func (s *Store) dropSegment(info Info, reason string, err error) {
	s.quarantine(info.Name, reason, err)
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.segs[:0:0]
	for _, sg := range s.segs {
		if sg.Seq != info.Seq {
			kept = append(kept, sg)
		}
	}
	if len(kept) == len(s.segs) {
		return // wasn't listed (stale Info); nothing to rewrite
	}
	// Drop it from memory even if the durable rewrite fails — the file
	// is already in quarantine, so retrying it is pointless (and
	// LoadLatest's fallback loop must make progress).
	s.segs = kept
	s.writeManifestLocked(kept)
}

// writeFile durably writes the file at path: temp file, encode, flush,
// fsync, close, rename into place, fsync the directory. It returns the
// final file's length and whole-file CRC32C. On error nothing at path
// was disturbed and the temp file is removed. hooks intercept the file
// and the rename; the zero value means direct OS calls.
func writeFile(path string, hooks Hooks, encode func(io.Writer) error) (int64, uint32, error) {
	tmp := path + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return 0, 0, err
	}
	var w io.WriteCloser = f
	if hooks.WrapFile != nil {
		w = hooks.WrapFile(filepath.Base(path), f)
	}
	rename := os.Rename
	if hooks.Rename != nil {
		rename = hooks.Rename
	}
	cw := &crcWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	fail := func(err error) (int64, uint32, error) {
		w.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := encode(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := syncWriter(w); err != nil {
		return fail(fmt.Errorf("fsync: %w", err))
	}
	if err := w.Close(); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return 0, 0, err
	}
	return cw.n, cw.crc, nil
}

// writeManifestLocked durably replaces the manifest to name exactly segs.
func (s *Store) writeManifestLocked(segs []Info) error {
	_, _, err := writeFile(filepath.Join(s.dir, manifestName), s.hooks, func(w io.Writer) error {
		return encodeManifest(w, segs)
	})
	return err
}

// syncWriter fsyncs through an injected wrapper when it supports Sync.
func syncWriter(w io.Writer) error {
	if sy, ok := w.(interface{ Sync() error }); ok {
		return sy.Sync()
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Filesystems that cannot sync directories make this a no-op.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// crcWriter tees writes into a running CRC32C and byte count, hashing
// only the bytes the underlying writer actually accepted.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if n > 0 {
		c.crc = crc32.Update(c.crc, castagnoli, p[:n])
		c.n += int64(n)
	}
	return n, err
}

// encodeManifest writes the manifest: a magic line, one line per sealed
// segment, and a trailing sum line holding the CRC32C of every
// preceding byte.
func encodeManifest(w io.Writer, segs []Info) error {
	var body bytes.Buffer
	fmt.Fprintf(&body, "%s\n", manifestMagic)
	for _, sg := range segs {
		fmt.Fprintf(&body, "segment %s %d %08x %s %d %s\n",
			sg.Name, sg.Size, sg.CRC, sg.CloseDay, sg.Seq, strconv.Quote(sg.SourceTag))
	}
	sum := crc32.Checksum(body.Bytes(), castagnoli)
	fmt.Fprintf(&body, "sum %08x\n", sum)
	return writeFull(w, body.Bytes())
}

// parseManifest verifies the manifest's trailing checksum and decodes
// its segment lines. Any defect wraps ErrCorrupt.
func parseManifest(data []byte) ([]Info, error) {
	if !bytes.HasPrefix(data, []byte(manifestMagic+"\n")) {
		return nil, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
	}
	segs := []Info{}
	var crc uint32
	sawSum := false
	rest := data
	first := true
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("%w: manifest truncated mid-line", ErrCorrupt)
		}
		line := string(rest[:nl])
		raw := rest[:nl+1]
		rest = rest[nl+1:]
		if sawSum {
			return nil, fmt.Errorf("%w: manifest data after sum line", ErrCorrupt)
		}
		if strings.HasPrefix(line, "sum ") {
			want, err := strconv.ParseUint(strings.TrimPrefix(line, "sum "), 16, 32)
			if err != nil {
				return nil, fmt.Errorf("%w: malformed sum line %q", ErrCorrupt, line)
			}
			if uint32(want) != crc {
				return nil, fmt.Errorf("%w: manifest checksum %08x, sum line says %08x", ErrCorrupt, crc, uint32(want))
			}
			sawSum = true
			continue
		}
		crc = crc32.Update(crc, castagnoli, raw)
		switch {
		case first:
			// The verified magic line.
		case strings.HasPrefix(line, "segment "):
			info, err := parseSegmentLine(line)
			if err != nil {
				return nil, err
			}
			segs = append(segs, info)
		default:
			return nil, fmt.Errorf("%w: unknown manifest line %q", ErrCorrupt, line)
		}
		first = false
	}
	if !sawSum {
		return nil, fmt.Errorf("%w: manifest missing sum line (truncated)", ErrCorrupt)
	}
	return segs, nil
}

// parseSegmentLine decodes one "segment ..." manifest line.
func parseSegmentLine(line string) (Info, error) {
	parts := strings.SplitN(line, " ", 7)
	if len(parts) != 7 {
		return Info{}, fmt.Errorf("%w: malformed segment line %q", ErrCorrupt, line)
	}
	size, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return Info{}, fmt.Errorf("%w: bad size in %q", ErrCorrupt, line)
	}
	crc, err := strconv.ParseUint(parts[3], 16, 32)
	if err != nil {
		return Info{}, fmt.Errorf("%w: bad checksum in %q", ErrCorrupt, line)
	}
	day, err := dates.Parse(parts[4])
	if err != nil {
		return Info{}, fmt.Errorf("%w: bad close day in %q", ErrCorrupt, line)
	}
	seq, err := strconv.ParseUint(parts[5], 10, 64)
	if err != nil {
		return Info{}, fmt.Errorf("%w: bad sequence in %q", ErrCorrupt, line)
	}
	tag, err := strconv.Unquote(parts[6])
	if err != nil {
		return Info{}, fmt.Errorf("%w: bad source tag in %q", ErrCorrupt, line)
	}
	return Info{Seq: seq, Name: parts[1], Size: size, CRC: uint32(crc), CloseDay: day, SourceTag: tag}, nil
}
