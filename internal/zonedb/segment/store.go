package segment

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dates"
	"repro/internal/zonedb"
)

const (
	segSuffix = ".seg"
	keep      = 4 // how many sealed epochs Seal retains
)

// ErrEmpty reports a store holding no sealed epochs.
var ErrEmpty = errors.New("segment: no sealed epochs")

// Info describes one sealed segment.
type Info struct {
	Seq      uint64    // the seal sequence number in the file's name; it only grows
	Name     string    // the file's name within the store directory
	Size     int64     // the file's length in bytes
	CloseDay dates.Day // the epoch's close day
}

// Store is a directory of sealed epochs, one segment file each, named
// epoch-NNNNNN.seg by seal sequence. A segment file is renamed into place
// only once it is complete and durable, and it checks itself, so every
// such file is a committed epoch and needs no manifest to say so. All
// methods are safe for concurrent use.
type Store struct {
	dir  string
	mu   sync.Mutex
	seqs []uint64 // the sealed epochs on disk, ascending
}

// Open returns the store under dir, creating the directory if it is
// missing. It removes the temp files a crashed seal left behind and
// lists the sealed epochs; it reads none of them.
func Open(dir string) (*Store, error) {
	d, err := os.Open(dir)
	if errors.Is(err, os.ErrNotExist) {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			d, err = os.Open(dir)
		}
	}
	if err != nil {
		return nil, err
	}
	names, err := d.Readdirnames(-1)
	d.Close()
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir}
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, name)) // litter; the next Open tries again
		} else if seq, ok := parseEpochName(name); ok {
			s.seqs = append(s.seqs, seq)
		}
	}
	slices.Sort(s.seqs)
	return s, nil
}

// epochName is the file name of the epoch sealed as seq: epoch-NNNNNN.seg,
// the number zero-padded to six digits.
func epochName(seq uint64) string {
	digits := strconv.FormatUint(seq, 10)
	return "epoch-" + "000000"[min(len(digits), 6):] + digits + segSuffix
}

// parseEpochName returns the sequence number of a name epochName writes:
// at least six digits, and no leading zero past six.
func parseEpochName(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, "epoch-")
	digits, ok2 := strings.CutSuffix(digits, segSuffix)
	seq, err := strconv.ParseUint(digits, 10, 64)
	return seq, ok && ok2 && err == nil && len(digits) >= 6 && (len(digits) == 6 || digits[0] != '0')
}

// Seal writes the closed view v as the store's next epoch, in the bytes
// WriteFile writes and by the same routine: temp file, fsync, rename,
// directory fsync. The rename commits the epoch; a seal that fails
// leaves the store as it was. Seal then removes all but the newest keep
// epochs. tag is unused; nothing records or reads it.
func (s *Store) Seal(v *zonedb.View, tag string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var seq uint64 = 1
	if n := len(s.seqs); n > 0 {
		seq = s.seqs[n-1] + 1
	}
	name := epochName(seq)
	path := filepath.Join(s.dir, name)
	err := writeFile(path, hooks{}, func(w io.Writer) error {
		return writeSegment(w, v.WriteSegment)
	})
	if err != nil {
		return Info{}, fmt.Errorf("segment: sealing %s: %w", name, err)
	}
	s.seqs = append(s.seqs, seq)
	if n := len(s.seqs) - keep; n > 0 {
		for _, old := range s.seqs[:n] {
			_ = os.Remove(filepath.Join(s.dir, epochName(old))) // one left behind is only an older epoch
		}
		s.seqs = s.seqs[n:]
	}
	fi, err := os.Stat(path)
	if err != nil {
		return Info{}, err
	}
	return Info{Seq: seq, Name: name, Size: fi.Size(), CloseDay: v.CloseDay()}, nil
}

// LoadLatest reads the newest sealed epoch with ReadFile into a fresh,
// closed database. An epoch ReadFile refuses as corrupt stays where it
// is, and the next older one is tried; when every epoch is corrupt, the
// newest one's error is returned. A store with no epochs returns
// ErrEmpty.
func (s *Store) LoadLatest() (*zonedb.DB, Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := ErrEmpty
	for i := len(s.seqs) - 1; i >= 0; i-- {
		name := epochName(s.seqs[i])
		db, size, rerr := readFile(filepath.Join(s.dir, name))
		switch {
		case rerr == nil:
			return db, Info{Seq: s.seqs[i], Name: name, Size: size, CloseDay: db.View().CloseDay()}, nil
		case !errors.Is(rerr, ErrCorrupt):
			return nil, Info{}, rerr
		case err == ErrEmpty:
			err = rerr
		}
	}
	return nil, Info{}, err
}
