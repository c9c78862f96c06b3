package zonedb

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
)

// TestArchiveRoundTrip: what a saved database — its segment payload —
// loads back as answers every query as the source does.
func TestArchiveRoundTrip(t *testing.T) {
	db := New()
	db.DomainAdded("com", "foo.com", d(10))
	db.DelegationAdded("com", "foo.com", "ns1.foo.com", d(10))
	db.GlueAdded("com", "ns1.foo.com", d(10))
	db.DelegationAdded("net", "bar.net", "ns1.foo.com", d(20))
	db.DelegationRemoved("net", "bar.net", "ns1.foo.com", d(30))
	db.DelegationAdded("net", "bar.net", "dropthishost-z.biz", d(30))
	db.DomainAdded("net", "bar.net", d(20))
	db.Close(d(100))

	loaded, err := ReadSegment(segmentBytes(t, db.View()))
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	src, back := db.View(), loaded.View()
	if back.NumDomains() != src.NumDomains() || back.NumNameservers() != src.NumNameservers() {
		t.Fatalf("counts differ: %d/%d vs %d/%d",
			back.NumDomains(), back.NumNameservers(), src.NumDomains(), src.NumNameservers())
	}
	for _, pair := range [][2]string{
		{"foo.com", "ns1.foo.com"},
		{"bar.net", "ns1.foo.com"},
		{"bar.net", "dropthishost-z.biz"},
	} {
		a := src.EdgeSpans(dn(pair[0]), dn(pair[1]))
		b := back.EdgeSpans(dn(pair[0]), dn(pair[1]))
		if a.String() != b.String() {
			t.Errorf("edge %v spans differ: %s vs %s", pair, a.String(), b.String())
		}
	}
	if src.GlueSpans("ns1.foo.com").String() != back.GlueSpans("ns1.foo.com").String() {
		t.Error("glue spans differ")
	}
	if src.DomainSpans("foo.com").String() != back.DomainSpans("foo.com").String() {
		t.Error("domain spans differ")
	}
	if len(back.Zones()) != 2 {
		t.Errorf("zones = %v", back.Zones())
	}
	if back.NSFirstSeen("dropthishost-z.biz") != d(30) {
		t.Error("first-seen lost in round trip")
	}
}

func TestArchiveRequiresClosedDB(t *testing.T) {
	db := New()
	db.DomainAdded("com", "x.com", d(1))
	var buf bytes.Buffer
	if err := db.View().WriteArchive(&buf); err == nil {
		t.Fatal("unclosed DB should refuse to archive")
	}
}

func dn(s string) dnsname.Name { return dnsname.Name(s) }

func TestArchiveTrailerWritten(t *testing.T) {
	db := New()
	db.DomainAdded("com", "foo.com", d(10))
	db.DelegationAdded("com", "foo.com", "ns1.foo.com", d(10))
	db.GlueAdded("com", "ns1.foo.com", d(10))
	db.Close(d(100))
	arch := archiveView(t, db.View())
	if !strings.HasPrefix(arch, archiveMagic+"\n") {
		t.Fatalf("archive starts %q, want %q", arch[:8], archiveMagic)
	}
	cut := strings.LastIndex(strings.TrimSuffix(arch, "\n"), "\n") + 1
	body := arch[:cut]
	want := fmt.Sprintf("sum %08x %d\n", crc32.Checksum([]byte(body), archiveCRCTable), len(body))
	if got := arch[cut:]; got != want {
		t.Fatalf("last line %q, want the integrity trailer %q", got, want)
	}
}

// readArchive parses an archive WriteArchive wrote into a fresh, closed
// DB by the plainest route — line by line, each span Added to its key's
// set and each new edge appended to both indexes — and is the reference
// the segment decoder's tables are held to. Its input only ever comes
// from WriteArchive, so it checks no more than it must to parse.
func readArchive(archive string) (*DB, error) {
	lines := strings.Split(strings.TrimSuffix(archive, "\n"), "\n")
	if len(lines) < 3 || lines[0] != archiveMagic || !strings.HasPrefix(lines[len(lines)-1], "sum ") {
		return nil, errors.New("not a whole archive")
	}
	db := New()
	db.mu.Lock()
	defer db.mu.Unlock()
	g := db.writable()
	span := func(a, b string) (dates.Range, error) {
		first, err := dates.Parse(a)
		if err != nil {
			return dates.Range{}, err
		}
		last, err := dates.Parse(b)
		return dates.NewRange(first, last), err
	}
	for _, line := range lines[1 : len(lines)-1] {
		f := strings.Fields(line)
		var err error
		switch {
		case len(f) == 2 && f[0] == "close":
			g.closeDay, err = dates.Parse(f[1])
		case len(f) == 2 && f[0] == "Z":
			g.zones[dnsname.Name(f[1])] = true
		case len(f) == 4 && (f[0] == "D" || f[0] == "G"):
			var r dates.Range
			if r, err = span(f[2], f[3]); f[0] == "D" {
				addEnded(g, g.domains, dnsname.Name(f[1]), r)
			} else {
				addEnded(g, g.glue, dnsname.Name(f[1]), r)
			}
		case len(f) == 5 && f[0] == "E":
			e := Edge{Domain: dnsname.Name(f[1]), NS: dnsname.Name(f[2])}
			if _, seen := g.edges[e]; !seen {
				g.byNS[e.NS] = append(g.byNS[e.NS], e)
				g.byDomain[e.Domain] = append(g.byDomain[e.Domain], e)
			}
			var r dates.Range
			r, err = span(f[3], f[4])
			addEnded(g, g.edges, e, r)
		default:
			err = errors.New("unknown record")
		}
		if err != nil {
			return nil, fmt.Errorf("archive line %q: %v", line, err)
		}
	}
	g.closed = true
	g.horizon = unknownDay
	db.publishLocked(nil)
	return db, nil
}

// addEnded adds r to the ended spans of m[k].
func addEnded[K comparable](g *generation, m map[K]fact, k K, r dates.Range) {
	f := m[k]
	f.spans = g.own(f.spans, r)
	m[k] = f
}
