// Package segment is the zone database's on-disk format and durability
// layer: one self-checking file per sealed database, and a store of them
// — immutable, per-epoch segment files plus an atomically replaced
// MANIFEST naming the sealed set.
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
// riskybiz -data, riskywatchd, zonedump and dzdbd -load read it), Seal and
// Load the store's. A file under any other magic — an older segment, or
// the text archive View.WriteArchive prints for people and diffs — is
// refused as corrupt; in a store it is quarantined and reported, and the
// caller rebuilds that epoch from source and reseals it.
//
// The MANIFEST is the commit point. It lists every sealed segment with
// its size and whole-file checksum, carries its own trailing checksum,
// and is only ever replaced via temp-file + fsync + rename — a crash at
// any byte leaves either the old manifest or the new one, never a torn
// one. A segment file not named by the manifest was never committed.
//
// On Open the store verifies every manifest-listed segment's length and
// checksum; a segment that fails is quarantined (moved into the
// quarantine/ subdirectory and reported to the caller by Quarantined)
// and the store continues with the surviving epochs — graceful
// degradation, mirroring the ingester's snapshot quarantine. The caller
// rebuilds only the affected epochs from source archives.
//
// No command opens a store today: the benchmark's ingest and cold-start
// workloads seal and load through it, and it is the durable writer an
// ingest spool will use. Every production reader calls ReadFile.
package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"

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

// castagnoli is the CRC32C table used for every checksum in the store.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a segment or manifest whose bytes fail structural
// or checksum verification. Match with errors.Is.
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
// file. The file checks itself, so it needs no manifest. It replaces
// path atomically, as Seal does a store's files: a reader sees the
// previous file or the new one, never a torn one, and a write that fails
// leaves the previous file as it was.
func WriteFile(path string, v *zonedb.View) error {
	return WriteAtomic(path, func(w io.Writer) error {
		return writeSegment(w, v.WriteSegment)
	})
}

// WriteAtomic durably replaces the file at path with what encode writes,
// by the routine the store writes its own files with: temp file, fsync,
// rename, directory fsync. A crash leaves the previous file or the new
// one, and an encode that fails leaves the previous file as it was and
// no temp file behind.
func WriteAtomic(path string, encode func(io.Writer) error) error {
	_, _, err := writeFile(path, Hooks{}, encode)
	return err
}

// ReadFile loads the segment file at path, as WriteFile wrote it, into a
// fresh, closed database. Any defect in the file's bytes — a file in
// another format included — yields an error wrapping ErrCorrupt, and the
// file's own size bounds what the decoder allocates.
func ReadFile(path string) (*zonedb.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The size of the file this handle holds, not of whatever a concurrent
	// WriteFile renames over path meanwhile.
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	db, err := readSegment(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return db, nil
}

// readSegment de-frames a segment of at most size bytes and decodes its
// payload into a fresh, closed database. Every defect wraps ErrCorrupt.
func readSegment(r io.Reader, size int64) (*zonedb.DB, error) {
	payload, err := decodeSegment(bufio.NewReaderSize(r, 1<<16), size)
	if err != nil {
		return nil, err
	}
	db, err := zonedb.ReadSegment(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return db, nil
}

// decodeSegment reads and verifies a segment stream of at most size
// bytes — the file length the manifest recorded, or the file's own for
// ReadFile — returning the payload
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
