package zonedb

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
)

// segmentBytes encodes v as a segment payload.
func segmentBytes(tb testing.TB, v *View) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := v.WriteSegment(&buf); err != nil {
		tb.Fatalf("WriteSegment: %v", err)
	}
	return buf.Bytes()
}

// richDB is a sealed database with every shape the payload has to carry:
// several zones, keys with one span and with several, a nameserver
// shared across zones, glue, an edge whose domain was never registered,
// and keys that end up with no spans at all (same-day add and remove),
// which neither encoding writes.
func richDB() *DB {
	db := New()
	db.DomainAdded("com", "foo.com", d(10))
	db.DelegationAdded("com", "foo.com", "ns1.foo.com", d(10))
	db.DelegationAdded("com", "foo.com", "ns2.x.net", d(10))
	db.GlueAdded("com", "ns1.foo.com", d(10))
	db.DomainAdded("net", "bar.net", d(20))
	db.DelegationAdded("net", "bar.net", "ns1.foo.com", d(20))
	db.DelegationRemoved("net", "bar.net", "ns1.foo.com", d(30))
	db.DelegationAdded("net", "bar.net", "dropthishost-z.biz", d(30))
	db.DelegationAdded("net", "bar.net", "ns1.foo.com", d(50))
	db.DomainRemoved("com", "foo.com", d(60))
	db.DomainAdded("com", "foo.com", d(70))
	db.GlueRemoved("com", "ns1.foo.com", d(40))
	db.GlueAdded("com", "ns1.foo.com", d(45))
	db.DelegationAdded("org", "unregistered.org", "ns2.x.net", d(33))
	db.DomainAdded("com", "blink.com", d(80))
	db.DomainRemoved("com", "blink.com", d(80))
	db.DelegationAdded("com", "blink.com", "ns.blink.com", d(80))
	db.DelegationRemoved("com", "blink.com", "ns.blink.com", d(80))
	db.GlueAdded("com", "ns.blink.com", d(80))
	db.GlueRemoved("com", "ns.blink.com", d(80))
	db.markZone("info")
	db.Close(d(100))
	return db
}

func emptyClosedDB() *DB {
	db := New()
	db.Close(d(100))
	return db
}

// TestSegmentMatchesArchive: the segment carries the archive's facts, so
// the database decoded from it is the one the reference text parser
// makes of the archive — every table, and the order of every index
// slice — and it archives to the source view's own bytes. Encoding is
// canonical: event order does not show.
func TestSegmentMatchesArchive(t *testing.T) {
	for name, db := range map[string]*DB{"rich": richDB(), "empty": emptyClosedDB(), "seed": seedDB()} {
		t.Run(name, func(t *testing.T) {
			v := db.View()
			payload := segmentBytes(t, v)
			fromSeg, err := ReadSegment(payload)
			if err != nil {
				t.Fatalf("ReadSegment: %v", err)
			}
			fromText, err := readArchive(archiveView(t, v))
			if err != nil {
				t.Fatalf("readArchive: %v", err)
			}
			if got, want := archiveView(t, fromSeg.View()), archiveView(t, v); got != want {
				t.Errorf("loaded segment archives to\n%s\nwant\n%s", got, want)
			}
			// The text reader records events, so its tables are maps: the
			// loaded tables are compared as the first write would unpack
			// them, and the loaded shape is held to the maps by
			// TestReadSegmentWalksInKeyOrder and TestReadSegmentAnswersLikeLive.
			seg := fromSeg.View().tables
			seg.unpack()
			if !reflect.DeepEqual(seg, fromText.View().tables) {
				t.Errorf("tables differ:\nsegment %+v\ntext    %+v", seg, fromText.View().tables)
			}
			if fromSeg.View().Epoch() != fromText.View().Epoch() {
				t.Errorf("epoch %d from a segment, %d from text", fromSeg.View().Epoch(), fromText.View().Epoch())
			}
			if again := segmentBytes(t, fromSeg.View()); !bytes.Equal(again, payload) {
				t.Error("re-encoding the loaded database changed the bytes")
			}
		})
	}

	// The same facts recorded in another order are the same bytes.
	a, b := New(), New()
	a.DomainAdded("com", "a.com", d(1))
	a.DomainAdded("org", "b.org", d(2))
	a.DelegationAdded("org", "b.org", "ns.a.com", d(2))
	a.DelegationAdded("com", "a.com", "ns.a.com", d(1))
	b.DelegationAdded("com", "a.com", "ns.a.com", d(1))
	b.DelegationAdded("org", "b.org", "ns.a.com", d(2))
	b.DomainAdded("org", "b.org", d(2))
	b.DomainAdded("com", "a.com", d(1))
	a.Close(d(9))
	b.Close(d(9))
	if !bytes.Equal(segmentBytes(t, a.View()), segmentBytes(t, b.View())) {
		t.Error("event order changed the payload")
	}
}

func TestWriteSegmentRefusesWhatReadSegmentWould(t *testing.T) {
	open := New()
	open.DomainAdded("com", "x.com", d(1))
	if err := open.View().WriteSegment(&bytes.Buffer{}); err == nil {
		t.Error("unclosed view encoded")
	}
	for name, build := range map[string]func(db *DB){
		"upper-case name": func(db *DB) { db.DomainAdded("com", "Foo.com", d(1)) },
		"over-long name":  func(db *DB) { db.GlueAdded("com", dnsname.Name(strings.Repeat("a.", 150)+"com"), d(1)) },
		"empty ns":        func(db *DB) { db.DelegationAdded("com", "foo.com", "", d(1)) },
		"year -1":         func(db *DB) { db.DomainAdded("com", "foo.com", minSegDay-1) },
	} {
		db := New()
		build(db)
		db.Close(d(100))
		err := db.View().WriteSegment(&bytes.Buffer{})
		if err == nil {
			t.Errorf("%s: encoded a payload ReadSegment refuses", name)
		}
	}
}

// rawSegment is a payload spelled out field by field, so a test can write
// one no encoder would. Sections are domains, glue, edges.
type rawSegment struct {
	closeDay dates.Day
	names    []string
	zones    []uint32
	keys     [3][][]uint32 // per key: the name id(s), then nSpans
	spans    [3][][2]dates.Day
	// header, when set, edits the ten header words computed from the rest;
	// patch the finished bytes.
	header func(words []uint32)
	patch  func(raw []byte)
	tail   []byte
}

func (r rawSegment) bytes() []byte {
	nameBytes := 0
	for _, n := range r.names {
		nameBytes += len(n)
	}
	words := []uint32{uint32(r.closeDay), uint32(len(r.names)), uint32(nameBytes), uint32(len(r.zones))}
	for i := range r.keys {
		words = append(words, uint32(len(r.keys[i])), uint32(len(r.spans[i])))
	}
	if r.header != nil {
		r.header(words)
	}
	var out []byte
	put := func(ws ...uint32) {
		for _, w := range ws {
			out = binary.BigEndian.AppendUint32(out, w)
		}
	}
	put(words...)
	for _, n := range r.names {
		out = append(out, byte(len(n)))
	}
	for _, n := range r.names {
		out = append(out, n...)
	}
	put(r.zones...)
	for i := range r.keys {
		for _, k := range r.keys[i] {
			put(k...)
		}
		for _, s := range r.spans[i] {
			put(uint32(s[0]), uint32(s[1]))
		}
	}
	out = append(out, r.tail...)
	if r.patch != nil {
		r.patch(out)
	}
	return out
}

// soundSegment is a small payload ReadSegment accepts; each refusal
// below breaks it in one place.
func soundSegment() rawSegment {
	return rawSegment{
		closeDay: d(100),
		names:    []string{"com", "foo.com", "ns1.foo.com", "ns2.foo.com"},
		zones:    []uint32{0},
		keys: [3][][]uint32{
			{{1, 2}},
			{{2, 1}, {3, 1}},
			{{1, 2, 1}, {1, 3, 2}},
		},
		spans: [3][][2]dates.Day{
			{{10, 20}, {30, 100}},
			{{10, 100}, {15, 100}},
			{{10, 100}, {10, 20}, {40, 100}},
		},
	}
}

func TestReadSegmentAcceptsHandBuiltPayload(t *testing.T) {
	// The hand-written layout is the encoder's: the same facts through the
	// recorder encode to the same bytes.
	db := New()
	db.DomainAdded("com", "foo.com", d(10))
	db.DomainRemoved("com", "foo.com", d(21))
	db.DomainAdded("com", "foo.com", d(30))
	db.GlueAdded("com", "ns1.foo.com", d(10))
	db.GlueAdded("com", "ns2.foo.com", d(15))
	db.DelegationAdded("com", "foo.com", "ns1.foo.com", d(10))
	db.DelegationAdded("com", "foo.com", "ns2.foo.com", d(10))
	db.DelegationRemoved("com", "foo.com", "ns2.foo.com", d(21))
	db.DelegationAdded("com", "foo.com", "ns2.foo.com", d(40))
	db.Close(d(100))
	hand := soundSegment().bytes()
	if enc := segmentBytes(t, db.View()); !bytes.Equal(enc, hand) {
		t.Fatalf("encoder wrote\n%x\nhand-built payload is\n%x", enc, hand)
	}
	loaded, err := ReadSegment(hand)
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	if got, want := archiveView(t, loaded.View()), archiveView(t, db.View()); got != want {
		t.Errorf("archive\n%s\nwant\n%s", got, want)
	}
}

// TestReadSegmentRefusals breaks a sound payload one way at a time: each
// is refused with its own error, by the checks that run before any
// goroutine starts.
func TestReadSegmentRefusals(t *testing.T) {
	cases := []struct {
		name   string
		want   string
		mutate func(r *rawSegment)
	}{
		{"count overrun", "header counts", func(r *rawSegment) { r.header = func(w []uint32) { w[1]++ } }},
		{"count underrun", "header counts", func(r *rawSegment) { r.header = func(w []uint32) { w[9]-- } }},
		{"count beyond any payload", "header counts", func(r *rawSegment) { r.header = func(w []uint32) { w[8] = 1<<32 - 1 } }},
		{"trailing bytes", "header counts", func(r *rawSegment) { r.tail = []byte{0} }},
		{"missing close day", "missing close day", func(r *rawSegment) { r.closeDay = dates.None }},
		{"close day out of range", "close day", func(r *rawSegment) { r.closeDay = maxSegDay + 1 }},

		{"upper-case name", "not canonical", func(r *rawSegment) { r.names[1] = "Foo.com" }},
		{"trailing-dot name", "not canonical", func(r *rawSegment) { r.names[0] = "com." }},
		{"bad label", "not canonical", func(r *rawSegment) { r.names[1] = "-oo.com" }},
		{"empty name", "not canonical", func(r *rawSegment) { r.names[0] = "" }},
		{"descending names", "does not sort after", func(r *rawSegment) { r.names[2], r.names[3] = r.names[3], r.names[2] }},
		{"duplicate name", "does not sort after", func(r *rawSegment) { r.names[3] = r.names[2] }},
		// The last name's length byte, one too many and one too few.
		{"name lengths overrun the name bytes", "runs past the name bytes", func(r *rawSegment) {
			r.patch = func(raw []byte) { raw[segHeaderLen+3]++ }
		}},
		{"name bytes left over", "belong to no name", func(r *rawSegment) {
			r.patch = func(raw []byte) { raw[segHeaderLen+3]-- }
		}},
		{"name nothing refers to", "referred to by nothing", func(r *rawSegment) {
			r.names = append(r.names, "zzz.com")
		}},

		{"zone id out of range", "zone: name id 4 out of range", func(r *rawSegment) { r.zones[0] = 4 }},
		{"zones descending", "out of order", func(r *rawSegment) { r.zones = []uint32{1, 0} }},
		{"zone twice", "out of order", func(r *rawSegment) { r.zones = []uint32{0, 0} }},
		{"domain id out of range", "domains: key 0: name id 9 out of range", func(r *rawSegment) { r.keys[0][0][0] = 9 }},
		{"edge ns id out of range", "edges: key 1: name id 4 out of range", func(r *rawSegment) { r.keys[2][1][1] = 4 }},

		{"duplicate key", "glue: key 1 (ns1.foo.com) repeats", func(r *rawSegment) { r.keys[1][1][0] = 2 }},
		{"descending keys", "glue: key 1 (ns1.foo.com) repeats or sorts before", func(r *rawSegment) {
			r.keys[1][0][0], r.keys[1][1][0] = 3, 2
		}},
		{"duplicate edge", "edges: key 1 (foo.com) repeats", func(r *rawSegment) { r.keys[2][1][1] = 2 }},
		{"zero-span key", "has no spans", func(r *rawSegment) {
			r.keys[1][0][1], r.keys[1][1][1] = 0, 2
		}},
		{"key claims more spans than remain", "claims 3 spans, 2 remain", func(r *rawSegment) { r.keys[2][1][2] = 3 }},
		{"spans left over", "1 spans belong to no key", func(r *rawSegment) { r.keys[2][1][2] = 1 }},

		{"adjacent spans", "overlaps, touches or precedes", func(r *rawSegment) { r.spans[0][1][0] = 21 }},
		{"overlapping spans", "overlaps, touches or precedes", func(r *rawSegment) { r.spans[0][1][0] = 20 }},
		{"descending spans", "overlaps, touches or precedes", func(r *rawSegment) { r.spans[0][0], r.spans[0][1] = r.spans[0][1], r.spans[0][0] }},
		{"inverted span", "is empty", func(r *rawSegment) { r.spans[1][0] = [2]dates.Day{100, 10} }},
		{"span day out of range", "out of range", func(r *rawSegment) { r.spans[1][0][0] = minSegDay - 1 }},
		{"span with no date", "out of range", func(r *rawSegment) { r.spans[1][0][0] = dates.None }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := soundSegment()
			tc.mutate(&r)
			base := runtime.NumGoroutine()
			db, err := ReadSegment(r.bytes())
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("refusing started goroutines: %d, %d before", n, base)
			}
			if err == nil {
				t.Fatalf("accepted; archives as\n%s", archiveView(t, db.View()))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}

	for cut := 0; cut < segHeaderLen; cut += 13 {
		if _, err := ReadSegment(soundSegment().bytes()[:cut]); err == nil || !strings.Contains(err.Error(), "shorter than the header") {
			t.Errorf("%d-byte payload: err = %v", cut, err)
		}
	}
}

// TestReadSegmentChecksCountsBeforeAllocating: a header is forty bytes
// anyone can write; the counts in it buy no memory until the payload is
// long enough to back them.
func TestReadSegmentChecksCountsBeforeAllocating(t *testing.T) {
	r := rawSegment{closeDay: d(1), header: func(w []uint32) {
		for i := 1; i < len(w); i++ {
			w[i] = 1<<32 - 1
		}
	}}
	payload := r.bytes()
	allocated := allocatedBy(func() {
		if _, err := ReadSegment(payload); err == nil {
			t.Error("accepted")
		}
	})
	if allocated > 1<<16 {
		t.Errorf("refusing a %d-byte payload allocated %d bytes", len(payload), allocated)
	}
}

// allocatedBy returns the bytes fn allocated (and whatever ran beside it).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadSegment holds the decoder to its contract on arbitrary bytes:
// it never panics, it allocates in proportion to the payload it was
// given, and whatever it accepts is canonical — the loaded database
// re-encodes to the very same bytes, directly and by way of the text
// archive — walks its facts as its maps hold them, in key order, by name
// and by id alike, and answers every read as the text archive's database
// of the same facts does.
func FuzzReadSegment(f *testing.F) {
	f.Add([]byte{})
	f.Add(soundSegment().bytes())
	for _, db := range []*DB{richDB(), emptyClosedDB(), seedDB()} {
		payload := segmentBytes(f, db.View())
		f.Add(payload)
		for _, cut := range []int{segHeaderLen - 1, segHeaderLen, len(payload) / 2, len(payload) - 1} {
			if cut >= 0 && cut < len(payload) {
				f.Add(payload[:cut])
			}
		}
		for at := 0; at < len(payload); at += 7 {
			mutated := append([]byte(nil), payload...)
			mutated[at] ^= 1 << (at % 8)
			f.Add(mutated)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var db *DB
		var err error
		allocated := allocatedBy(func() { db, err = ReadSegment(data) })
		// Loading costs tens of bytes per payload byte (a 12-byte edge key
		// becomes a map entry, a set and two index slots); the slack covers
		// the empty tables and the runtime's own business.
		if limit := uint64(1<<20 + 256*len(data)); allocated > limit {
			t.Fatalf("%d-byte payload allocated %d bytes (limit %d)", len(data), allocated, limit)
		}
		if err != nil {
			return
		}
		if err := WalksInKeyOrder(db.View()); err != nil {
			t.Fatal(err)
		}
		if err := IDsName(db.View()); err != nil {
			t.Fatal(err)
		}
		if again := segmentBytes(t, db.View()); !bytes.Equal(again, data) {
			t.Fatalf("accepted payload is not canonical:\n in %x\nout %x", data, again)
		}
		viaText, err := readArchive(archiveView(t, db.View()))
		if err != nil {
			t.Fatalf("the loaded database's archive does not parse: %v", err)
		}
		if again := segmentBytes(t, viaText.View()); !bytes.Equal(again, data) {
			t.Fatalf("payload changed on its way through the text archive:\n in %x\nout %x", data, again)
		}
		names := AnswerNames(viaText.View())
		if got, want := Answers(db.View(), names, true), Answers(viaText.View(), names, true); got != want {
			t.Fatalf("the loaded view answers\n%s\nthe map path\n%s", got, want)
		}
	})
}

// TestLoadedViewImmutableUnderWrites: the sets, spans and index slices
// of a loaded database are carved out of shared slabs, and must behave
// as individually allocated ones do — a view pinned before further
// writes reads the same afterwards, its walks still in key order, and a
// write to one key moves no neighbour's spans.
func TestLoadedViewImmutableUnderWrites(t *testing.T) {
	load := func() *DB {
		db, err := ReadSegment(segmentBytes(t, richDB().View()))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	// The reference text parser allocates every set and index slice on its
	// own: what it does under the same writes is what the slabs must do.
	loadText := func() *DB {
		db, err := readArchive(archiveView(t, richDB().View()))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	// mutate touches every slab: it extends existing domain, glue and edge
	// sets, and appends to existing byDomain and byNS index slices.
	mutate := func(db *DB) {
		db.DomainAdded("com", "foo.com", d(120))
		db.GlueAdded("com", "ns1.foo.com", d(120))
		db.DelegationAdded("com", "foo.com", "ns1.foo.com", d(120))
		db.DelegationAdded("com", "foo.com", "ns3.new.net", d(120))
		db.DelegationAdded("com", "new.com", "ns1.foo.com", d(120))
		db.DelegationAdded("net", "bar.net", "ns2.x.net", d(120))
		db.Close(d(130))
	}
	// snapshot renders everything a view can say, index order included,
	// through the reads every form of the tables answers: the edges of
	// each nameserver and of each domain, in their index's order.
	snapshot := func(v *View) string {
		var sb strings.Builder
		sb.WriteString(archiveView(t, v))
		var nameservers []dnsname.Name
		v.Nameservers(func(ns dnsname.Name) bool {
			nameservers = append(nameservers, ns)
			return true
		})
		slices.Sort(nameservers)
		for _, ns := range nameservers {
			sb.WriteString("byNS " + string(ns))
			for _, e := range v.EdgesOf(ns) {
				sb.WriteString(" " + string(e.Domain))
			}
			v.EachDomainOf(ns, func(dom dnsname.Name, spans *interval.Set) bool {
				sb.WriteString(" " + string(dom) + " " + spans.String())
				return true
			})
			sb.WriteString("\n")
		}
		domains := map[dnsname.Name]bool{}
		v.EachEdgeSpans(func(e Edge, _ *interval.Set) bool {
			domains[e.Domain] = true
			return true
		})
		for _, dom := range sortedKeys(domains) {
			sb.WriteString("byDomain " + string(dom))
			v.EachNSOf(dom, func(ns dnsname.Name, spans *interval.Set) bool {
				sb.WriteString(" " + string(ns) + " " + spans.String())
				return true
			})
			sb.WriteString("\n")
		}
		return sb.String()
	}

	t.Run("writes after load", func(t *testing.T) {
		db := load()
		pinned := db.View()
		before := snapshot(pinned)
		if !strings.Contains(before, "byNS ") || !strings.Contains(before, "byDomain ") {
			t.Fatalf("the loaded view renders no index:\n%s", before)
		}
		mutate(db)
		if got := snapshot(pinned); got != before {
			t.Errorf("pinned view changed:\n%s\nwas\n%s", got, before)
		}
		if err := WalksInKeyOrder(pinned); err != nil {
			t.Errorf("pinned view's walks: %v", err)
		}
		want := loadText()
		mutate(want)
		if got, want := snapshot(db.View()), snapshot(want.View()); got != want {
			t.Errorf("loaded-then-written database reads\n%s\nwant\n%s", got, want)
		}
	})

	// absorb claims the loaded sets as its own and then mutates them in
	// place: the one path where a slab-carved span slice is appended to.
	t.Run("writes after absorb", func(t *testing.T) {
		merged, want := New(), New()
		merged.absorb(load())
		want.absorb(loadText())
		mutate(merged)
		mutate(want)
		if got, want := snapshot(merged.View()), snapshot(want.View()); got != want {
			t.Errorf("absorbed-then-written database reads\n%s\nwant\n%s", got, want)
		}
	})
}
