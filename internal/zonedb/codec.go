package zonedb

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dates"
	"repro/internal/dnsname"
)

// A sealed view has two encodings. The archive below is the interchange
// format: text a person can grep and diff, what -save-data writes and
// -load, zonedump and riskydetect read, and what equality between
// databases is checked by. It costs a parse to read — a name validated
// and two dates decoded per line, a set grown span by span — which is
// the wrong price for the segment store, whose files are loaded on every
// warm boot and catch-up and looked at by nobody; the store's payload is
// the binary encoding in segcodec.go, which carries exactly the facts
// the archive does, in the same canonical order, and loads as a
// bounds-checked copy. Neither reads the other; a database read from
// either archives to the same bytes.
//
// The archive format is line-oriented text, one fact-span per line:
//
//	dzdb 2
//	close 2021-09-30
//	Z com
//	D foo.com 2011-04-01 2016-07-13
//	E foo.com ns1.x.net 2011-04-01 2016-07-13
//	G ns1.x.net 2011-04-01 2016-07-13
//	sum 1c291ca3 96
//
// It is trivially greppable and diffable, round-trips exactly, and
// compresses well if the caller wraps the writer. Output is canonical:
// records are sorted, so two DBs holding the same facts archive to
// identical bytes regardless of ingestion order.
//
// The final sum line is an integrity trailer: the CRC32C and byte count
// of everything before it (the magic line included). A "dzdb 2" archive
// missing its trailer was truncated; a mismatching trailer means bit-rot
// or a torn write. No other version is read: the trailer-less "dzdb 1"
// could only be loaded unverified.

// archiveMagic marks archives that end with a checksummed trailer.
const archiveMagic = "dzdb 2"

// archiveCRCTable is the CRC32C polynomial used by the trailer (shared
// with the segment store's framing).
var archiveCRCTable = crc32.MakeTable(crc32.Castagnoli)

// sumWriter tees archive bytes into a running CRC32C and byte count so
// the trailer can be emitted without buffering the whole archive.
type sumWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (s *sumWriter) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	if n > 0 {
		s.crc = crc32.Update(s.crc, archiveCRCTable, p[:n])
		s.n += int64(n)
	}
	return n, err
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// WriteArchive archives the database's published view. The DB must be
// closed first so every span is materialized.
func (db *DB) WriteArchive(w io.Writer) error { return db.View().WriteArchive(w) }

// WriteArchive archives the view. The view's generation must have been
// sealed by Close so every span is materialized.
func (v *View) WriteArchive(w io.Writer) error {
	return v.tables.writeArchive(w)
}

func (t *tables) writeArchive(w io.Writer) error {
	if !t.closed {
		return fmt.Errorf("zonedb: archive requires a closed database")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	sw := &sumWriter{w: bw}
	fmt.Fprintf(sw, "%s\nclose %s\n", archiveMagic, t.closeDay)
	for _, z := range t.Zones() {
		fmt.Fprintf(sw, "Z %s\n", z)
	}
	for _, d := range sortedKeys(t.domains) {
		for _, r := range t.domains[d].Spans() {
			fmt.Fprintf(sw, "D %s %s %s\n", d, r.First, r.Last)
		}
	}
	for _, h := range sortedKeys(t.glue) {
		for _, r := range t.glue[h].Spans() {
			fmt.Fprintf(sw, "G %s %s %s\n", h, r.First, r.Last)
		}
	}
	edges := make([]Edge, 0, len(t.edges))
	for e := range t.edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Domain != edges[j].Domain {
			return edges[i].Domain < edges[j].Domain
		}
		return edges[i].NS < edges[j].NS
	})
	for _, e := range edges {
		for _, r := range t.edges[e].Spans() {
			fmt.Fprintf(sw, "E %s %s %s %s\n", e.Domain, e.NS, r.First, r.Last)
		}
	}
	// The trailer checksums everything above it; it is written past the
	// sumWriter so it does not checksum itself.
	fmt.Fprintf(bw, "sum %08x %d\n", sw.crc, sw.n)
	return bw.Flush()
}

// ReadFrom loads an archive produced by WriteArchive into a fresh, closed DB.
func ReadFrom(r io.Reader) (*DB, error) {
	db := New()
	db.mu.Lock()
	defer db.mu.Unlock()
	g := db.writable()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	lineNo := 0
	closeDay := dates.None
	if !sc.Scan() {
		return nil, fmt.Errorf("zonedb: empty archive")
	}
	lineNo++
	magic := sc.Text()
	if magic != archiveMagic {
		return nil, fmt.Errorf("zonedb: unsupported archive version %q (want %q)", magic, archiveMagic)
	}
	// Reconstruct the byte stream the writer checksummed (each line plus
	// its newline) so the trailer can be verified without a second pass.
	var crc uint32
	var count int64
	addLine := func(line string) {
		crc = crc32.Update(crc, archiveCRCTable, []byte(line))
		crc = crc32.Update(crc, archiveCRCTable, []byte{'\n'})
		count += int64(len(line)) + 1
	}
	addLine(magic)
	sawSum := false
	parseSpan := func(a, b string) (dates.Range, error) {
		first, err := dates.Parse(a)
		if err != nil {
			return dates.Range{}, err
		}
		last, err := dates.Parse(b)
		if err != nil {
			return dates.Range{}, err
		}
		// Add would drop an inverted span silently, after the caller had
		// already created its key and index entries.
		if last < first {
			return dates.Range{}, errors.New("empty span")
		}
		return dates.NewRange(first, last), nil
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		fail := func(msg string) error {
			return fmt.Errorf("zonedb: line %d: %s: %q", lineNo, msg, line)
		}
		if sawSum {
			return nil, fail("data after integrity trailer")
		}
		if strings.HasPrefix(line, "sum ") {
			f := strings.Fields(line)
			if len(f) != 3 {
				return nil, fail("malformed integrity trailer")
			}
			wantCRC, err := strconv.ParseUint(f[1], 16, 32)
			if err != nil {
				return nil, fail("malformed trailer checksum")
			}
			wantLen, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return nil, fail("malformed trailer length")
			}
			if count != wantLen {
				return nil, fmt.Errorf("zonedb: archive corrupt: %d payload bytes, trailer says %d (truncated or torn)", count, wantLen)
			}
			if crc != uint32(wantCRC) {
				return nil, fmt.Errorf("zonedb: archive corrupt: payload checksum %08x, trailer says %08x", crc, uint32(wantCRC))
			}
			sawSum = true
			continue
		}
		addLine(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "close":
			if len(fields) != 2 {
				return nil, fail("malformed close")
			}
			d, err := dates.Parse(fields[1])
			if err != nil {
				return nil, fail(err.Error())
			}
			closeDay = d
		case "Z":
			if len(fields) != 2 {
				return nil, fail("malformed zone")
			}
			z, err := dnsname.Parse(fields[1])
			if err != nil {
				return nil, fail(err.Error())
			}
			g.zones[z] = true
		case "D", "G":
			if len(fields) != 4 {
				return nil, fail("malformed span")
			}
			name, err := dnsname.Parse(fields[1])
			if err != nil {
				return nil, fail(err.Error())
			}
			span, err := parseSpan(fields[2], fields[3])
			if err != nil {
				return nil, fail(err.Error())
			}
			if fields[0] == "D" {
				mutableSet(g, g.domains, name).Add(span)
			} else {
				mutableSet(g, g.glue, name).Add(span)
			}
		case "E":
			if len(fields) != 5 {
				return nil, fail("malformed edge span")
			}
			domain, err := dnsname.Parse(fields[1])
			if err != nil {
				return nil, fail(err.Error())
			}
			ns, err := dnsname.Parse(fields[2])
			if err != nil {
				return nil, fail(err.Error())
			}
			span, err := parseSpan(fields[3], fields[4])
			if err != nil {
				return nil, fail(err.Error())
			}
			e := Edge{Domain: domain, NS: ns}
			if g.edges[e] == nil {
				g.byNS[ns] = append(g.byNS[ns], e)
				g.byDomain[domain] = append(g.byDomain[domain], e)
			}
			mutableSet(g, g.edges, e).Add(span)
		default:
			return nil, fail("unknown record kind")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawSum {
		return nil, fmt.Errorf("zonedb: archive corrupt: missing integrity trailer (truncated)")
	}
	if closeDay == dates.None {
		return nil, fmt.Errorf("zonedb: archive missing close record")
	}
	g.closed = true
	g.closeDay = closeDay
	g.horizon = unknownDay
	db.publishLocked(nil)
	return db, nil
}
