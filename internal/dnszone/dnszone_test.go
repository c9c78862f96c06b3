package dnszone

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
)

func sampleSnapshot() *Snapshot {
	s := NewSnapshot("com", dates.FromYMD(2016, 7, 15))
	s.AddDelegation("example.com", "ns1.example.com", "ns2.example.com")
	s.AddDelegation("other.com", "dropthishost-abc.biz")
	s.AddGlue("ns1.example.com", netip.MustParseAddr("192.0.2.1"))
	s.AddGlue("ns2.example.com", netip.MustParseAddr("2001:db8::2"))
	s.Sort()
	return s
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	var sb strings.Builder
	if err := s.Write(&sb); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	back.Sort()
	if back.Zone != s.Zone || back.Date != s.Date {
		t.Fatalf("metadata mismatch: %s %s", back.Zone, back.Date)
	}
	if !reflect.DeepEqual(back.Delegations, s.Delegations) {
		t.Fatalf("delegations mismatch:\n got %+v\nwant %+v", back.Delegations, s.Delegations)
	}
	if !reflect.DeepEqual(back.Glue, s.Glue) {
		t.Fatalf("glue mismatch:\n got %+v\nwant %+v", back.Glue, s.Glue)
	}
}

func TestWriteFormat(t *testing.T) {
	var sb strings.Builder
	if err := sampleSnapshot().Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$ORIGIN com.",
		"example 86400 IN NS ns1.example.com.",
		"other 86400 IN NS dropthishost-abc.biz.",
		"ns1.example 86400 IN A 192.0.2.1",
		"ns2.example 86400 IN AAAA 2001:db8::2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"$ORIGIN com. extra\n",
		"$ORIGIN com.\nfoo 86400 IN NS\n",                  // 4 fields
		"$ORIGIN com.\nfoo 86400 CH NS ns1.example.com.\n", // class
		"$ORIGIN com.\nfoo 86400 IN MX mail.example.com.\n",
		"$ORIGIN com.\nfoo 86400 IN A not-an-ip\n",
		"foo 86400 IN NS ns1.example.com.\n", // relative owner before $ORIGIN
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) should fail", in)
		}
	}
	var pe *ParseError
	_, err := Read(strings.NewReader("$ORIGIN com.\nbad line here x\n"))
	if err == nil {
		t.Fatal("expected parse error")
	}
	if ok := errorsAs(err, &pe); !ok || pe.Line != 2 {
		t.Errorf("ParseError line = %+v", err)
	}
}

func errorsAs(err error, target **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*target = pe
	}
	return ok
}

func TestReadCoalescesNS(t *testing.T) {
	in := "$ORIGIN com.\nfoo 86400 IN NS ns1.x.net.\nfoo 86400 IN NS ns2.x.net.\n"
	s, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Delegations) != 1 || len(s.Delegations[0].Nameservers) != 2 {
		t.Fatalf("coalescing failed: %+v", s.Delegations)
	}
}

func TestAtOwner(t *testing.T) {
	in := "$ORIGIN com.\n@ 86400 IN NS ns1.x.net.\n"
	s, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Delegations[0].Domain != "com" {
		t.Fatalf("@ owner = %s", s.Delegations[0].Domain)
	}
}

func TestReadWithoutHeaderUsesOrigin(t *testing.T) {
	in := "$ORIGIN net.\nfoo 86400 IN NS ns1.x.com.\n"
	s, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Zone != "net" || s.Date != dates.None {
		t.Fatalf("zone=%s date=%s", s.Zone, s.Date)
	}
}

// readReference is Read as it stood before it tokenised bytes: one string
// per line, strings.Fields, dnsname.Parse on a concatenated owner. It is
// the oracle FuzzRead and the tests below hold Read to.
func readReference(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	snap := &Snapshot{Date: dates.None}
	var origin dnsname.Name
	lineNo := 0
	abs := func(owner string) (dnsname.Name, error) {
		if owner == "@" {
			return origin, nil
		}
		if strings.HasSuffix(owner, ".") {
			return dnsname.Parse(owner)
		}
		if origin == "" {
			return "", fmt.Errorf("relative owner %q before $ORIGIN", owner)
		}
		return dnsname.Parse(owner + "." + string(origin))
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			// Header comment: "; zone <name> snapshot <date>".
			fields := strings.Fields(strings.TrimPrefix(line, ";"))
			if len(fields) == 4 && fields[0] == "zone" && fields[2] == "snapshot" {
				z, err := dnsname.Parse(fields[1])
				if err == nil {
					snap.Zone = z
				}
				if d, err := dates.Parse(fields[3]); err == nil {
					snap.Date = d
				}
			}
			continue
		}
		if strings.HasPrefix(line, "$ORIGIN") {
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, &ParseError{lineNo, "malformed $ORIGIN"}
			}
			z, err := dnsname.Parse(fields[1])
			if err != nil {
				return nil, &ParseError{lineNo, fmt.Sprintf("bad origin: %v", err)}
			}
			origin = z
			if snap.Zone == "" {
				snap.Zone = z
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 5 {
			return nil, &ParseError{lineNo, fmt.Sprintf("expected 5 fields, got %d", len(fields))}
		}
		owner, err := abs(fields[0])
		if err != nil {
			return nil, &ParseError{lineNo, fmt.Sprintf("bad owner: %v", err)}
		}
		if fields[2] != "IN" {
			return nil, &ParseError{lineNo, fmt.Sprintf("unsupported class %q", fields[2])}
		}
		switch fields[3] {
		case "NS":
			target, err := dnsname.Parse(fields[4])
			if err != nil {
				return nil, &ParseError{lineNo, fmt.Sprintf("bad NS target: %v", err)}
			}
			// Coalesce consecutive NS records for the same owner.
			if n := len(snap.Delegations); n > 0 && snap.Delegations[n-1].Domain == owner {
				snap.Delegations[n-1].Nameservers = append(snap.Delegations[n-1].Nameservers, target)
			} else {
				snap.AddDelegation(owner, target)
			}
		case "A", "AAAA":
			addr, err := netip.ParseAddr(fields[4])
			if err != nil {
				return nil, &ParseError{lineNo, fmt.Sprintf("bad address: %v", err)}
			}
			snap.AddGlue(owner, addr)
		default:
			return nil, &ParseError{lineNo, fmt.Sprintf("unsupported type %q", fields[3])}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

// sameAsReference fails the test unless Read's result on in is
// readReference's: both accept with equal snapshots, or both reject with
// the same error.
func sameAsReference(t *testing.T, in []byte, got *Snapshot, gotErr error) {
	t.Helper()
	want, wantErr := readReference(bytes.NewReader(in))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Read error %v, reference error %v\ninput %q", gotErr, wantErr, clip(in))
	}
	if gotErr == nil {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Read\n %+v\nreference\n %+v\ninput %q", got, want, clip(in))
		}
		return
	}
	var gpe, wpe *ParseError
	switch errors.As(gotErr, &gpe); {
	case errors.As(wantErr, &wpe) != (gpe != nil):
		t.Fatalf("Read error %v, reference error %v\ninput %q", gotErr, wantErr, clip(in))
	case gpe != nil && *gpe != *wpe:
		t.Fatalf("Read %+v, reference %+v\ninput %q", *gpe, *wpe, clip(in))
	case gpe == nil && !errors.Is(gotErr, wantErr):
		t.Fatalf("Read error %v, reference error %v", gotErr, wantErr)
	}
}

func clip(b []byte) []byte {
	if len(b) > 400 {
		return b[:400]
	}
	return b
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// readAllocBound is what one Read may allocate: the scanner's buffer and
// the first chunks of the arenas, plus a multiple of the input.
func readAllocBound(in []byte) uint64 { return 1<<20 + 16*uint64(len(in)) }

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// readSeeds are FuzzRead's corpus and TestReadMatchesReference's table:
// an input, and the line of the ParseError it must end in (0: accepted).
var readSeeds = []struct {
	in      string
	errLine int
}{
	{"$ORIGIN com.\n@ 86400 IN NS ns1.x.net.\n", 0},
	{"$ORIGIN com.\nfoo.com. 1 IN NS NS1.X.NET\nbar.net. 1 IN NS ns1.x.net.\nns.foo.com. 1 IN AAAA 2001:db8::1\n", 0},
	{"; zone com snapshot 2016-07-15\r\n$ORIGIN com.\r\nfoo 86400 IN NS ns1.x.net.\r\nfoo 86400 IN NS ns2.x.net.\r\n", 0},
	{"$ORIGIN\tcom.\n \tFoo\t86400\tIN\tNS\tns1.X.net.\t\n\x0bbar\x0c1 IN A 192.0.2.1\n", 0},
	{"\n\n; a comment\n ; zone com snapshot 2016-07-15\n;zone net snapshot never\n$ORIGIN com.\n\nfoo 1 IN NS a.b.\n; trailing\n", 0},
	{"$ORIGIN com.\nfoo 1 IN NS a.b.\nns 1 IN A 192.0.2.1\nfoo 1 IN NS c.d.\n$ORIGIN net.\nfoo 1 IN NS a.b.\n", 0},
	{"@ 1 IN NS a.b.\nfoo.com. 1 IN NS a.b.\n", 0},
	{"$ORIGINAL com.\n-x 1 IN NS a.b.\n", 2},
	{"$ORIGIN com.\nfoo..bar 1 IN NS a.b.\n", 2},
	{"$ORIGIN com.\nfoo 1 IN NS a.b..\n", 2},
	{"$ORIGIN com.\nfoo 1 IN NS .\n", 2},
	{"$ORIGIN com.\n" + strings.Repeat("a", 64) + " 1 IN NS a.b.\n", 2},
	{"$ORIGIN " + strings.Repeat("abcdefgh.", 27) + "com.\n" + strings.Repeat("a", 10) + " 1 IN NS a.b.\n", 2},
	{"@ 1 IN NS a.b.\nfoo 1 IN NS a.b.\n", 2},
	{"$ORIGIN com.\nfoo 1 IN A 192.0.2.1 extra\n", 2},
}

// FuzzRead holds Read to four properties on arbitrary bytes: it never
// panics; on all-ASCII input it accepts, rejects and parses exactly as
// readReference does, down to the ParseError; what it accepts survives
// Write -> Read unchanged once sorted; and it allocates in proportion to
// its input.
func FuzzRead(f *testing.F) {
	var sb strings.Builder
	if err := sampleSnapshot().Write(&sb); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(sb.String()))
	for _, s := range readSeeds {
		f.Add([]byte(s.in))
	}
	f.Add([]byte("$ORIGIN com.\nfoo\u00a01 IN NS a.b.\n"))
	f.Add(bytes.Repeat([]byte("a"), maxLineBytes+1))
	f.Fuzz(func(t *testing.T, in []byte) {
		before := totalAlloc()
		snap, err := Read(bytes.NewReader(in))
		if got, bound := totalAlloc()-before, readAllocBound(in); got > bound {
			t.Fatalf("Read allocated %d bytes for %d of input, bound %d", got, len(in), bound)
		}
		if isASCII(in) {
			sameAsReference(t, in, snap, err)
		}
		if err == nil {
			checkFixedPoint(t, snap)
		}
	})
}

// checkFixedPoint writes an accepted snapshot and reads it back: the facts
// survive, and from the second trip on (the first coalesces a domain's
// scattered delegations) the sorted snapshot does not change at all. A
// snapshot with an empty zone or owner — records before any $ORIGIN — has
// no master-file form and is skipped.
func checkFixedPoint(t *testing.T, snap *Snapshot) {
	t.Helper()
	if snap.Zone == "" {
		return
	}
	for _, d := range snap.Delegations {
		if d.Domain == "" {
			return
		}
	}
	for _, g := range snap.Glue {
		if g.Host == "" {
			return
		}
	}
	trip := func(s *Snapshot) *Snapshot {
		s.Sort()
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("reading back what Write wrote: %v", err)
		}
		back.Sort()
		return back
	}
	once := trip(snap)
	if once.Zone != snap.Zone || once.Date != snap.Date ||
		!reflect.DeepEqual(edgeSet(once), edgeSet(snap)) || !reflect.DeepEqual(once.Glue, snap.Glue) {
		t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", once, snap)
	}
	if twice := trip(once); !reflect.DeepEqual(twice, once) {
		t.Fatalf("not a fixed point:\n got %+v\nwant %+v", twice, once)
	}
}

func edgeSet(s *Snapshot) map[[2]dnsname.Name]bool {
	out := make(map[[2]dnsname.Name]bool)
	for _, d := range s.Delegations {
		for _, ns := range d.Nameservers {
			out[[2]dnsname.Name{d.Domain, ns}] = true
		}
	}
	return out
}

// TestReadMatchesReference runs the fuzz seeds' differential check as a
// plain test, and pins which of them are errors and where.
func TestReadMatchesReference(t *testing.T) {
	for _, seed := range readSeeds {
		in := []byte(seed.in)
		snap, err := Read(bytes.NewReader(in))
		sameAsReference(t, in, snap, err)
		var pe *ParseError
		switch {
		case seed.errLine != 0 && (!errors.As(err, &pe) || pe.Line != seed.errLine):
			t.Errorf("Read(%q) = %v, want a ParseError on line %d", seed.in, err, seed.errLine)
		case seed.errLine == 0 && err != nil:
			t.Errorf("Read(%q) = %v", seed.in, err)
		case seed.errLine == 0:
			checkFixedPoint(t, snap)
		}
	}
	long := bytes.Repeat([]byte("a"), maxLineBytes+1)
	snap, err := Read(bytes.NewReader(long))
	sameAsReference(t, long, snap, err)
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("a line over the bound: %v, want bufio.ErrTooLong", err)
	}
}

// TestReadSeparatorsAreASCII states the one place Read parts from
// readReference: fields are separated by ASCII whitespace only, so a
// $ORIGIN or record line with a byte >= 0x80 is a ParseError, where the
// old parser also split on Unicode spaces such as U+00A0 (and, through
// strings.ToLower, folded U+212A KELVIN SIGN to "k"). Nothing in the tree
// writes either. Comments may hold anything.
func TestReadSeparatorsAreASCII(t *testing.T) {
	for _, in := range []string{
		"$ORIGIN com.\nfoo\u00a086400 IN NS ns1.x.net.\n",
		"$ORIGIN com.\nfoo 86400 IN NS Ns1.\u212aoo.net.\n",
		"$ORIGIN com.\n\u00a0foo 86400 IN NS ns1.x.net.\n",
	} {
		if _, err := readReference(strings.NewReader(in)); err != nil {
			t.Errorf("reference rejects %q: %v", in, err)
		}
		var pe *ParseError
		if _, err := Read(strings.NewReader(in)); !errors.As(err, &pe) || pe.Line != 2 {
			t.Errorf("Read(%q) = %v, want a ParseError on line 2", in, err)
		}
	}
	if _, err := Read(strings.NewReader("$ORIGIN\u00a0com.\n")); err == nil {
		t.Error("a $ORIGIN line split by U+00A0 should be malformed")
	}
	snap, err := Read(strings.NewReader("; r\u00e9sum\u00e9 \u00a0\n; zone com snapshot 2016-07-15\n$ORIGIN com.\n"))
	if err != nil || snap.Zone != "com" || snap.Date != dates.FromYMD(2016, 7, 15) {
		t.Errorf("non-ASCII comment: %+v, %v", snap, err)
	}
}

// TestReadCarvedSlicesDoNotAlias guards the shared chunk nameserver lists
// are carved from: growing one delegation's list must not write into the
// next one's.
func TestReadCarvedSlicesDoNotAlias(t *testing.T) {
	in := "$ORIGIN com.\na 1 IN NS ns1.x.net.\na 1 IN NS ns2.x.net.\nb 1 IN NS ns3.x.net.\nc 1 IN NS ns4.x.net.\n"
	s, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Delegations {
		if ns := s.Delegations[i].Nameservers; len(ns) != cap(ns) {
			t.Errorf("delegation %d: len %d, cap %d", i, len(ns), cap(ns))
		}
		s.Delegations[i].Nameservers = append(s.Delegations[i].Nameservers, "evil.example")
	}
	want := []Delegation{
		{"a.com", []dnsname.Name{"ns1.x.net", "ns2.x.net", "evil.example"}},
		{"b.com", []dnsname.Name{"ns3.x.net", "evil.example"}},
		{"c.com", []dnsname.Name{"ns4.x.net", "evil.example"}},
	}
	if !reflect.DeepEqual(s.Delegations, want) {
		t.Fatalf("got %+v", s.Delegations)
	}
}

// TestReadMidFileError keeps the streaming contract: a reader that fails
// part-way surfaces its error instead of a truncated snapshot.
func TestReadMidFileError(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader("$ORIGIN com.\nfoo 1 IN NS a.b.\n"), errReader{boom})
	if _, err := Read(r); !errors.Is(err, boom) {
		t.Fatalf("Read = %v, want %v", err, boom)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// zoneText is a sorted zone file of n domains, two nameservers each from a
// pool of 300, and a glue record for every tenth domain.
func zoneText(n int) []byte {
	s := NewSnapshot("com", dates.FromYMD(2016, 7, 15))
	for i := 0; i < n; i++ {
		dom := dnsname.Name(fmt.Sprintf("domain-%06d.com", i))
		a := dnsname.Name(fmt.Sprintf("ns1.provider-%03d.net", i%300))
		b := dnsname.Name(fmt.Sprintf("ns2.provider-%03d.net", (i*7)%300))
		s.AddDelegation(dom, a, b)
		if i%10 == 0 {
			s.AddGlue(dnsname.Join("ns1", dom), netip.AddrFrom4([4]byte{198, 51, byte(i >> 8), byte(i)}))
		}
	}
	s.Sort()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestReadAllocationFollowsInput checks the fuzz target's allocation bound
// where it binds: a large well-formed file, and a file whose every line
// names a new owner and a new target in as few bytes as the grammar allows.
func TestReadAllocationFollowsInput(t *testing.T) {
	var dense bytes.Buffer
	dense.WriteString("$ORIGIN c.\n")
	for i := 0; i < 60000; i++ {
		fmt.Fprintf(&dense, "%x 1 IN NS %x.\n", i, i)
	}
	for name, in := range map[string][]byte{"zone file": zoneText(20000), "dense": dense.Bytes()} {
		before := totalAlloc()
		if _, err := Read(bytes.NewReader(in)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := totalAlloc() - before
		t.Logf("%s: %d bytes in, %d allocated (%.1fx)", name, len(in), got, float64(got)/float64(len(in)))
		if bound := readAllocBound(in); got > bound {
			t.Errorf("%s: allocated %d bytes for %d of input, bound %d", name, got, len(in), bound)
		}
	}
}

var benchSnap *Snapshot

// BenchmarkRead parses one ~0.8 MB sorted zone file: the go-test twin of
// the benchmark's dnszone.read_mb_per_s and dnszone.read_alloc_mb.
func BenchmarkRead(b *testing.B) {
	in := zoneText(9000)
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Read(bytes.NewReader(in))
		if err != nil {
			b.Fatal(err)
		}
		benchSnap = s
	}
}
