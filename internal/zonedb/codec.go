package zonedb

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/dnsname"
)

// A sealed view is stored in one format, the binary segment payload of
// segcodec.go: what -save-data writes, what every reader of saved data
// loads, and what the segment store seals. The archive below is the
// view's canonical text form, and it is written only: a person can grep
// and diff it, and equality between databases is checked by comparing
// (or hashing) its bytes. Nothing reads it. A database loaded from a
// segment archives to the same bytes as the view that was saved.
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
// It is trivially greppable and diffable, and compresses well if the
// caller wraps the writer. Output is canonical:
// records are sorted, so two DBs holding the same facts archive to
// identical bytes regardless of ingestion order.
//
// The final sum line is an integrity trailer: the CRC32C and byte count
// of everything before it (the magic line included), so a copy of an
// archive can be checked against itself.

// archiveMagic begins every archive.
const archiveMagic = "dzdb 2"

// archiveCRCTable is the CRC32C polynomial used by the trailer (the
// segment framing's).
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

// sortedFacts returns the keys and facts the walk each yields, sorted by
// key.
func sortedFacts[K comparable](each func(func(K, fact) bool), cmp func(a, b K) int) []keyed[K] {
	var out []keyed[K]
	each(func(k K, f fact) bool {
		out = append(out, keyed[K]{k, f})
		return true
	})
	slices.SortFunc(out, func(a, b keyed[K]) int { return cmp(a.k, b.k) })
	return out
}

// WriteArchive archives the view, which must have been sealed by Close or
// CloseZones: an open fact is written with the span its zone's seal shows.
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
	a := slab{facts: t.NumDomains()}
	for _, d := range sortedFacts(t.eachDomainFact, dnsname.Compare) {
		for _, r := range t.spansOf(d.f, d.k).set(&a).Spans() {
			fmt.Fprintf(sw, "D %s %s %s\n", d.k, r.First, r.Last)
		}
	}
	a = slab{facts: t.numGlue()}
	for _, h := range sortedFacts(t.eachGlueFact, dnsname.Compare) {
		for _, r := range t.spansOf(h.f, h.k).set(&a).Spans() {
			fmt.Fprintf(sw, "G %s %s %s\n", h.k, r.First, r.Last)
		}
	}
	a = slab{facts: t.numEdges()}
	for _, e := range sortedFacts(t.eachEdgeFact, CompareEdges) {
		for _, r := range t.spansOf(e.f, e.k.Domain).set(&a).Spans() {
			fmt.Fprintf(sw, "E %s %s %s %s\n", e.k.Domain, e.k.NS, r.First, r.Last)
		}
	}
	// The trailer checksums everything above it; it is written past the
	// sumWriter so it does not checksum itself.
	fmt.Fprintf(bw, "sum %08x %d\n", sw.crc, sw.n)
	return bw.Flush()
}
