// Package segment is the zone database's on-disk format: one
// self-checking file per sealed database, and a store that keeps a
// directory of them, one per sealed epoch.
//
// A segment file is the canonical binary encoding of one sealed epoch
// (zonedb's View.WriteSegment: a sorted name table, then fixed-width key
// and span records, so the same facts are the same bytes), framed into
// length-prefixed blocks that each carry a CRC32C, with a trailer block
// checksumming the whole payload. Torn writes, truncation, and bit-rot
// are therefore detectable at any byte: a block either decodes exactly
// as written or the segment is rejected. Loading one is de-framing into
// a single buffer and zonedb.ReadSegment's decode out of it: every check
// first, on the caller, then the tables filled on two goroutines.
//
// There is one format, and it is what saved data is: WriteFile and
// ReadFile are the single-file form (riskybiz -save-data writes it, and
// riskybiz -data, riskywatchd and dzdbd -load read it). A file under any
// other magic — an older segment, or the text archive View.WriteArchive
// prints for people and diffs — is refused as corrupt.
//
// Every file the package writes goes through one routine (WriteAtomic):
// temp file, fsync, rename, directory fsync. The rename is the commit
// point, so a reader sees the previous file or the new one, never a
// torn one. A Store's epochs are such files (epoch-NNNNNN.seg): Seal
// writes the next one, and LoadLatest reads the newest, falling back to
// an older one when the newest is corrupt.
//
// No command opens a store: the benchmark's ingest and cold-start
// workloads seal and load through it. Every production reader calls
// ReadFile.
package segment

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/zonedb"
)

// segMagic begins every segment file.
const segMagic = "dzdbseg 2\n"

// blockSize is the writer's framing granularity. Readers accept any
// block length up to maxBlockLen.
const blockSize = 64 * 1024

// maxBlockLen bounds the length field a reader will honour, so a
// corrupt length prefix cannot demand an absurd allocation.
const maxBlockLen = 1 << 24

// castagnoli is the CRC32C table used for every checksum in a segment.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a segment whose bytes fail structural or checksum
// verification. Match with errors.Is.
var ErrCorrupt = fmt.Errorf("segment: corrupt")

// blockWriter frames a payload stream into checksummed blocks. Writes
// accumulate into a fixed buffer; each full buffer is emitted as one
// block. Finish flushes the partial block and writes the trailer.
type blockWriter struct {
	w     io.Writer
	buf   []byte
	n     int
	whole hash.Hash32
	head  [8]byte
}

func newBlockWriter(w io.Writer) *blockWriter {
	return &blockWriter{w: w, buf: make([]byte, blockSize), whole: crc32.New(castagnoli)}
}

func (b *blockWriter) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		c := copy(b.buf[b.n:], p)
		b.n += c
		total += c
		p = p[c:]
		if b.n == len(b.buf) {
			if err := b.flush(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// flush emits the buffered bytes as one block.
func (b *blockWriter) flush() error {
	if b.n == 0 {
		return nil
	}
	data := b.buf[:b.n]
	binary.BigEndian.PutUint32(b.head[0:4], uint32(len(data)))
	binary.BigEndian.PutUint32(b.head[4:8], crc32.Checksum(data, castagnoli))
	if err := writeFull(b.w, b.head[:]); err != nil {
		return err
	}
	if err := writeFull(b.w, data); err != nil {
		return err
	}
	b.whole.Write(data)
	b.n = 0
	return nil
}

// Finish flushes the last partial block and writes the trailer: a
// zero-length block whose checksum field holds the CRC32C of the entire
// payload. A segment without its trailer is torn by definition.
func (b *blockWriter) Finish() error {
	if err := b.flush(); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(b.head[0:4], 0)
	binary.BigEndian.PutUint32(b.head[4:8], b.whole.Sum32())
	return writeFull(b.w, b.head[:])
}

// writeFull writes p completely, turning a short write with a nil error
// (an injected fault or a broken writer) into io.ErrShortWrite instead
// of silently dropping bytes.
func writeFull(w io.Writer, p []byte) error {
	n, err := w.Write(p)
	if err != nil {
		return err
	}
	if n < len(p) {
		return io.ErrShortWrite
	}
	return nil
}

// writeSegment writes a complete segment file — magic, blocks, trailer —
// whose payload is produced by encode writing into the framing writer.
func writeSegment(w io.Writer, encode func(io.Writer) error) error {
	if err := writeFull(w, []byte(segMagic)); err != nil {
		return err
	}
	bw := newBlockWriter(w)
	if err := encode(bw); err != nil {
		return err
	}
	return bw.Finish()
}

// WriteFile durably writes the closed view v to path as one segment
// file, replacing path atomically: a reader sees the previous file or the
// new one, never a torn one, and a write that fails leaves the previous
// file as it was.
func WriteFile(path string, v *zonedb.View) error {
	return WriteAtomic(path, func(w io.Writer) error {
		return writeSegment(w, v.WriteSegment)
	})
}

// WriteAtomic durably replaces the file at path with what encode writes:
// temp file, fsync, rename, directory fsync. A crash leaves the previous
// file or the new one, and an encode that fails leaves the previous file
// as it was and no temp file behind.
func WriteAtomic(path string, encode func(io.Writer) error) error {
	return writeFile(path, hooks{}, encode)
}

// tmpSuffix ends the name of the temp file writeFile renames into place.
const tmpSuffix = ".tmp"

// hooks intercept writeFile's file and rename, so the crash-matrix tests
// can fail each step; the zero value means direct OS calls.
type hooks struct {
	// wrap, when set, wraps the temp file. The returned writer's Close
	// must close the file.
	wrap func(f *os.File) io.WriteCloser
	// rename, when set, replaces os.Rename.
	rename func(oldpath, newpath string) error
}

// writeFile is WriteAtomic with the file operations routed through h:
// temp file, encode, flush, fsync, close, rename into place, fsync the
// directory. On error nothing at path was disturbed and the temp file is
// removed.
func writeFile(path string, h hooks, encode func(io.Writer) error) error {
	tmp := path + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	var w io.WriteCloser = f
	if h.wrap != nil {
		w = h.wrap(f)
	}
	rename := os.Rename
	if h.rename != nil {
		rename = h.rename
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	fail := func(err error) error {
		w.Close()
		os.Remove(tmp)
		return err
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
		return err
	}
	if err := rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
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

// ReadFile loads the segment file at path, as WriteFile wrote it, into a
// fresh, closed database. Any defect in the file's bytes — a file in
// another format included — yields an error wrapping ErrCorrupt, and the
// file's own size bounds what the decoder allocates.
func ReadFile(path string) (*zonedb.DB, error) {
	db, _, err := readFile(path)
	return db, err
}

// readFile is ReadFile, also returning the size of the file it read.
func readFile(path string) (*zonedb.DB, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	// The size of the file this handle holds, not of whatever a concurrent
	// WriteFile renames over path meanwhile.
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	payload, err := decodeSegment(bufio.NewReaderSize(f, 1<<16), fi.Size())
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	db, err := zonedb.ReadSegment(payload)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w: %v", path, ErrCorrupt, err)
	}
	return db, fi.Size(), nil
}

// decodeSegment reads and verifies a segment stream of at most size
// bytes — the file's own length, for ReadFile — returning the payload
// bytes. Every defect — bad magic, truncated header or data, per-block
// checksum mismatch, oversized length, more payload than a file of that
// size can frame, missing or wrong trailer, trailing garbage — yields an
// error wrapping ErrCorrupt. Blocks are read straight into one buffer
// allocated up front from size, so the input cannot make it allocate
// more; it never panics, whatever the input (FuzzDecodeSegment holds it
// to both).
func decodeSegment(r io.Reader, size int64) ([]byte, error) {
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("%w: short magic: %v", ErrCorrupt, err)
	}
	if string(magic) != segMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	var head [8]byte
	// room is what size leaves for blocks once the magic and the trailer
	// are paid for; each block spends its header and its data from it, so
	// the payload can never outgrow the buffer.
	room := size - int64(len(segMagic)+len(head))
	if room < 0 {
		return nil, fmt.Errorf("%w: %d bytes cannot hold a trailer", ErrCorrupt, size)
	}
	payload := make([]byte, 0, room)
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated block header: %v", ErrCorrupt, err)
		}
		length := binary.BigEndian.Uint32(head[0:4])
		sum := binary.BigEndian.Uint32(head[4:8])
		if length == 0 {
			// Trailer: sum covers the whole payload; nothing may follow.
			if got := crc32.Checksum(payload, castagnoli); got != sum {
				return nil, fmt.Errorf("%w: payload checksum %08x, trailer says %08x", ErrCorrupt, got, sum)
			}
			var one [1]byte
			if _, err := r.Read(one[:]); err != io.EOF {
				return nil, fmt.Errorf("%w: data after trailer", ErrCorrupt)
			}
			return payload, nil
		}
		if length > maxBlockLen {
			return nil, fmt.Errorf("%w: block length %d exceeds limit", ErrCorrupt, length)
		}
		if room -= int64(len(head)) + int64(length); room < 0 {
			return nil, fmt.Errorf("%w: blocks exceed what a %d-byte segment can hold", ErrCorrupt, size)
		}
		data := payload[len(payload) : len(payload)+int(length)]
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("%w: truncated block: %v", ErrCorrupt, err)
		}
		if got := crc32.Checksum(data, castagnoli); got != sum {
			return nil, fmt.Errorf("%w: block checksum %08x, header says %08x", ErrCorrupt, got, sum)
		}
		payload = payload[:len(payload)+int(length)]
	}
}
