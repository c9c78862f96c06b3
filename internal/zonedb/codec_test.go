package zonedb

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/dnsname"
)

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

	var buf bytes.Buffer
	if err := db.WriteArchive(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	loaded, err := ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
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
	if err := db.WriteArchive(&buf); err == nil {
		t.Fatal("unclosed DB should refuse to archive")
	}
}

// trailed appends the integrity trailer WriteArchive would, so a
// hand-written archive fails for the defect in its records and not for
// a missing trailer.
func trailed(body string) string {
	return fmt.Sprintf("%ssum %08x %d\n", body, crc32.Checksum([]byte(body), archiveCRCTable), len(body))
}

func TestArchiveErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "empty archive"},
		{"wrong magic\n", "unsupported archive version"},
		{trailed("dzdb 2\n"), "missing close record"},
		{trailed("dzdb 2\nclose not-a-date\n"), "line 2"},
		{trailed("dzdb 2\nclose 2020-01-01\nD onlytwo 2020-01-01\n"), "malformed span"},
		{trailed("dzdb 2\nclose 2020-01-01\nE a.com ns.b.com 2020-01-01\n"), "malformed edge span"},
		{trailed("dzdb 2\nclose 2020-01-01\nQ what 2020-01-01 2020-01-02\n"), "unknown record kind"},
		{trailed("dzdb 2\nclose 2020-01-01\nD -bad-.com 2020-01-01 2020-01-02\n"), "line 3"},
		// An inverted span names a key with no days: Add would drop the span
		// and leave the key (and an edge's index entries) behind.
		{trailed("dzdb 2\nclose 2020-01-01\nD foo.com 2016-01-02 2016-01-01\n"), "line 3: empty span"},
		{trailed("dzdb 2\nclose 2020-01-01\nG ns1.foo.com 2016-01-02 2016-01-01\n"), "line 3: empty span"},
		{trailed("dzdb 2\nclose 2020-01-01\nD foo.com 2016-01-01 2016-01-02\nE foo.com ns1.x.net 2016-01-02 2016-01-01\n"), "line 4: empty span"},
	}
	for _, tc := range cases {
		if _, err := ReadFrom(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadFrom(%q) = %v, want an error mentioning %q", tc.in, err, tc.want)
		}
	}
}

func dn(s string) dnsname.Name { return dnsname.Name(s) }

// archived returns the canonical v2 archive of a small sealed DB.
func archived(t *testing.T) string {
	t.Helper()
	db := New()
	db.DomainAdded("com", "foo.com", d(10))
	db.DelegationAdded("com", "foo.com", "ns1.foo.com", d(10))
	db.GlueAdded("com", "ns1.foo.com", d(10))
	db.Close(d(100))
	var buf bytes.Buffer
	if err := db.WriteArchive(&buf); err != nil {
		t.Fatalf("WriteArchive: %v", err)
	}
	return buf.String()
}

func TestArchiveTrailerWritten(t *testing.T) {
	arch := archived(t)
	if !strings.HasPrefix(arch, archiveMagic+"\n") {
		t.Fatalf("archive starts %q, want %q", arch[:8], archiveMagic)
	}
	lines := strings.Split(strings.TrimSuffix(arch, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "sum ") {
		t.Fatalf("last line %q is not an integrity trailer", last)
	}
	if _, err := ReadFrom(strings.NewReader(arch)); err != nil {
		t.Fatalf("round trip with trailer: %v", err)
	}
}

func TestArchiveTrailerDetectsTruncation(t *testing.T) {
	arch := archived(t)
	// Every prefix that loses the trailer (or part of a line) must be
	// rejected — a truncated v2 archive is never mistaken for a whole one.
	// (Losing only the final newline keeps the trailer intact and still
	// verifies, so stop one byte short of that.)
	for cut := 8; cut < len(arch)-1; cut += 7 {
		if _, err := ReadFrom(strings.NewReader(arch[:cut])); err == nil {
			t.Errorf("truncation at byte %d went undetected", cut)
		}
	}
}

func TestArchiveTrailerDetectsBitFlip(t *testing.T) {
	arch := archived(t)
	// Flip a date digit inside a record: still parseable, wrong facts —
	// only the checksum can catch it.
	flipAt := strings.Index(arch, "2000-")
	if flipAt < 0 {
		t.Fatal("no date found in archive")
	}
	mutated := arch[:flipAt] + "2001-" + arch[flipAt+5:]
	_, err := ReadFrom(strings.NewReader(mutated))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit flip not caught by checksum: %v", err)
	}
}

func TestArchiveLegacyV1Refused(t *testing.T) {
	// A v1 archive has no trailer, so it could only load unverified: it
	// is refused by version, with or without a trailer of its own.
	legacy := "dzdb 1\nclose 2020-01-01\nZ com\nD foo.com 2019-01-01 2019-06-01\n"
	for _, in := range []string{legacy, trailed(legacy)} {
		_, err := ReadFrom(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), `unsupported archive version "dzdb 1"`) {
			t.Errorf("ReadFrom(%q) = %v, want an unsupported-version error", in, err)
		}
	}
}

func TestArchiveTrailerRejectsTrailingData(t *testing.T) {
	arch := archived(t)
	for _, extra := range []string{"Z org\n", "sum 00000000 0\n"} {
		if _, err := ReadFrom(strings.NewReader(arch + extra)); err == nil {
			t.Errorf("data after trailer (%q) accepted", extra)
		}
	}
}
