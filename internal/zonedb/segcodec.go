package zonedb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
)

// The segment payload is the binary twin of the text archive: the same
// sealed facts, canonically ordered, laid out so that loading them is a
// bounds-checked copy instead of a parse. Every integer is a big-endian
// 32-bit word (the segment framing's byte order); days are int32 days
// since 2000-01-01, as dates.Day holds them.
//
//	header   closeDay | nNames | nameBytes | nZones
//	         | domainKeys | domainSpans | glueKeys | glueSpans
//	         | edgeKeys | edgeSpans                      10 words
//	names    nNames length bytes, then nameBytes of name text: every
//	         name any record refers to, once, strictly ascending
//	zones    nZones name ids, strictly ascending
//	domains  domainKeys × (nameID, nSpans), nameID strictly ascending,
//	         then domainSpans × (first, last)
//	glue     as domains
//	edges    edgeKeys × (domainID, nsID, nSpans), strictly ascending by
//	         (domainID, nsID), then edgeSpans × (first, last)
//
// A key's spans are the next nSpans entries of its section's span array,
// in normal form (non-empty, ascending, neither overlapping nor
// adjacent). A key with no spans is not written, as the text archive
// writes no line for it, and a name nothing refers to is not in the
// table: the same facts encode to the same bytes, and any payload
// ReadSegment accepts re-encodes to itself.

// segHeaderLen is the fixed header: ten 32-bit words.
const segHeaderLen = 40

// minSegDay and maxSegDay bound every day in a payload to what the text
// archive can print (a four-digit year), so a database loaded from a
// segment always archives; dates.None lies outside them.
var (
	minSegDay = dates.FromYMD(0, 1, 1)
	maxSegDay = dates.FromYMD(9999, 12, 31)
)

func segDayOK(d dates.Day) bool { return d >= minSegDay && d <= maxSegDay }

// segSpansOK reports whether a normal-form set lies within the bounds:
// its spans ascend, so its ends speak for all of them.
func segSpansOK(s *interval.Set) bool { return segDayOK(s.First()) && segDayOK(s.Last()) }

// segNameOK reports whether s is a name in the form the rest of the
// pipeline compares byte-wise: what dnsname.Parse would return for it.
func segNameOK(s string) bool {
	n, err := dnsname.Parse(s)
	return err == nil && string(n) == s
}

// segEdges is the edge section's position among the three (domains,
// glue, edges): the one whose keys carry two name ids.
const segEdges = 2

// segEntry is one key of a section on its way out: its names, their ids
// packed for sorting (domainID<<32 | nsID for an edge), and its spans.
type segEntry struct {
	name, ns dnsname.Name
	key      uint64
	set      *interval.Set
}

// WriteSegment writes the view in the segment payload encoding. Like
// WriteArchive it needs a closed view. It refuses what ReadSegment would
// refuse — a name that is not canonical, a day no archive can print —
// so a sealed epoch is one that loads.
func (v *View) WriteSegment(w io.Writer) error { return v.tables.writeSegment(w) }

func (t *tables) writeSegment(w io.Writer) error {
	if !t.closed {
		return fmt.Errorf("zonedb: segment requires a closed database")
	}
	if !segDayOK(t.closeDay) {
		return fmt.Errorf("zonedb: segment: close day %s out of range", t.closeDay)
	}

	// Pass one: the keys that have spans, and the names they mention.
	ids := make(map[dnsname.Name]uint32, len(t.zones)+t.NumDomains()+t.NumNameservers())
	names := make([]dnsname.Name, 0, len(t.zones)+t.NumDomains()+t.NumNameservers())
	nameBytes := 0
	note := func(n dnsname.Name) {
		if _, seen := ids[n]; !seen {
			ids[n] = 0
			names = append(names, n)
			nameBytes += len(n)
		}
	}
	for z := range t.zones {
		note(z)
	}
	collect := func(n int, each func(func(dnsname.Name, fact) bool)) []segEntry {
		out := make([]segEntry, 0, n)
		a := slab{facts: n}
		each(func(n dnsname.Name, f fact) bool {
			if s := t.spansOf(f, n).set(&a); !s.Empty() {
				note(n)
				out = append(out, segEntry{name: n, set: s})
			}
			return true
		})
		return out
	}
	domains, glue := collect(t.NumDomains(), t.eachDomainFact), collect(t.numGlue(), t.eachGlueFact)
	edges := make([]segEntry, 0, t.numEdges())
	a := slab{facts: t.numEdges()}
	t.eachEdgeFact(func(e Edge, f fact) bool {
		if s := t.spansOf(f, e.Domain).set(&a); !s.Empty() {
			note(e.Domain)
			note(e.NS)
			edges = append(edges, segEntry{name: e.Domain, ns: e.NS, set: s})
		}
		return true
	})

	// Pass two: ids are ranks in the sorted name table, so sorting keys by
	// id is the text archive's sort by name.
	slices.Sort(names)
	for i, n := range names {
		if !segNameOK(string(n)) {
			return fmt.Errorf("zonedb: segment: name %q is not canonical", n)
		}
		ids[n] = uint32(i)
	}
	zones := make([]uint32, 0, len(t.zones))
	for z := range t.zones {
		zones = append(zones, ids[z])
	}
	slices.Sort(zones)
	sections := [3][]segEntry{domains, glue, edges}
	nSpans := [3]int{}
	for i, sec := range sections {
		for j := range sec {
			e := &sec[j]
			if !segSpansOK(e.set) {
				return fmt.Errorf("zonedb: segment: spans %s of %s out of range", e.set, e.name)
			}
			e.key = uint64(ids[e.name])
			if i == segEdges {
				e.key = e.key<<32 | uint64(ids[e.ns])
			}
			nSpans[i] += e.set.Len()
		}
		slices.SortFunc(sec, func(a, b segEntry) int { return cmp.Compare(a.key, b.key) })
	}

	size := segHeaderLen + len(names) + nameBytes + 4*len(zones) +
		8*(len(domains)+nSpans[0]+len(glue)+nSpans[1]+nSpans[2]) + 12*len(edges)
	buf := make([]byte, 0, size)
	u32 := func(v int) { buf = binary.BigEndian.AppendUint32(buf, uint32(v)) }
	u32(int(t.closeDay))
	u32(len(names))
	u32(nameBytes)
	u32(len(zones))
	for i, sec := range sections {
		u32(len(sec))
		u32(nSpans[i])
	}
	for _, n := range names {
		buf = append(buf, byte(len(n))) // Parse capped it at 253
	}
	for _, n := range names {
		buf = append(buf, n...)
	}
	for _, z := range zones {
		u32(int(z))
	}
	for i, sec := range sections {
		for _, e := range sec {
			if i == segEdges {
				u32(int(e.key >> 32))
			}
			u32(int(uint32(e.key)))
			u32(e.set.Len())
		}
		for _, e := range sec {
			for _, r := range e.set.Spans() {
				u32(int(r.First))
				u32(int(r.Last))
			}
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadSegment decodes a payload written by WriteSegment into a fresh,
// closed DB. The payload is untrusted: the header's counts must account
// for its length exactly before anything is allocated, every name is
// validated, every id bounds-checked, keys must ascend strictly and
// spans be in normal form. It keeps no reference to p.
//
// Every check runs first, on the caller, in payload order, so a refused
// payload starts no goroutine. An accepted one is kept in the payload's
// own shape (segFacts): each table's keys in key order with their sets,
// the edge keys' positions sorted by nameserver, and, per role a name
// plays, an index from the name to where its facts lie in those — the
// host index built on a goroutine of its own while the caller builds the
// domain index, joined before the DB is published. Every read of the
// loaded view answers from that shape, and the first write after the
// load builds the fact maps from it (thaw).
//
// The loaded DB's facts are built from a handful of allocations: one
// string that every name is a substring of, the name table and its
// zones' ids, one slab for the spans, a key slice and a set slice per
// table, the edges' nameserver ids and order, and the two indexes. The
// name table stays with the loaded view (View.Names), so a reader can
// number its names as the payload does, and finds a name's id through
// the two indexes. Each set's spans are capped at their length, so an
// Add on an absorbed set reallocates rather than growing into its
// neighbour.
func ReadSegment(p []byte) (*DB, error) {
	fail := func(format string, args ...any) (*DB, error) {
		return nil, fmt.Errorf("zonedb: segment payload: "+format, args...)
	}
	if len(p) < segHeaderLen {
		return fail("%d bytes is shorter than the header", len(p))
	}
	var hdr [segHeaderLen / 4]uint64
	for i := range hdr {
		hdr[i] = uint64(binary.BigEndian.Uint32(p[4*i:]))
	}
	nNames, nameBytes, nZones := hdr[1], hdr[2], hdr[3]
	keys, spans := [3]uint64{hdr[4], hdr[6], hdr[8]}, [3]uint64{hdr[5], hdr[7], hdr[9]}
	want := segHeaderLen + nNames + nameBytes + 4*nZones +
		8*(keys[0]+spans[0]+keys[1]+spans[1]+spans[2]) + 12*keys[2]
	if want != uint64(len(p)) {
		return fail("header counts describe %d bytes, payload has %d", want, len(p))
	}
	closeDay := dates.Day(int32(hdr[0]))
	if closeDay == dates.None {
		return fail("missing close day")
	}
	if !segDayOK(closeDay) {
		return fail("close day %d out of range", closeDay)
	}

	// From here every count is bounded by len(p), and reads cannot overrun.
	d := &segDecoder{rest: p[segHeaderLen:]}
	if err := d.readNames(int(nNames), int(nameBytes)); err != nil {
		return fail("%v", err)
	}
	t := tables{
		zones:    make(map[dnsname.Name]bool, nZones),
		closed:   true,
		closeDay: closeDay,
		sealAll:  dates.None,
	}
	d.table.zones = make([]int32, nZones)
	prev := -1
	for i := range d.table.zones {
		id, err := d.nameID()
		if err != nil {
			return fail("zone: %v", err)
		}
		if int(id) <= prev {
			return fail("zone %q out of order", d.names[id])
		}
		prev = int(id)
		t.zones[d.names[id]] = true
		d.table.zones[i] = int32(id)
	}

	d.spans = make([]dates.Range, spans[0]+spans[1]+spans[2])
	// Where each name id's facts lie, per role, filled in as the sections
	// are read: as a domain, and as a host.
	roles := [2][]segKey{make([]segKey, len(d.names)), make([]segKey, len(d.names))}
	for _, role := range roles {
		for id := range role {
			role[id].set = ^int32(id)
		}
	}
	s := &segFacts{}
	for i, table := range [2]*segNameTable{&s.domains, &s.glue} {
		table.ids = make([]int32, keys[i])
		table.sets = make([]interval.Set, keys[i])
		err := d.section(int(keys[i]), int(spans[i]), false, func(k int, id, _ uint32) *interval.Set {
			table.ids[k] = int32(id)
			roles[i][id].set = int32(k)
			return &table.sets[k]
		})
		if err != nil {
			return fail("%s: %v", [2]string{"domains", "glue"}[i], err)
		}
	}
	if err := d.readEdges(&s.edges, roles, int(keys[segEdges]), int(spans[segEdges])); err != nil {
		return fail("edges: %v", err)
	}
	for id, used := range d.used {
		if !used {
			return fail("name %q is referred to by nothing", d.names[id])
		}
	}

	// The payload is accepted. The host index fills beside the domain
	// index; the two share nothing but the names they read.
	s.edges.sortByNS(roles[1])
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.asHost = roleIndex(d.table, roles[1])
	}()
	s.asDomain = roleIndex(d.table, roles[0])
	<-done
	s.names, d.table.facts = d.table, s
	t.seg = s

	// Published as a fresh DB's second epoch (its first is the empty one),
	// with no horizon: nothing says how far its facts were sealed.
	db := New()
	db.mu.Lock()
	db.gen = &generation{tables: t, horizon: unknownDay}
	db.publishLocked(nil)
	db.mu.Unlock()
	return db, nil
}

// segDecoder walks a payload whose total length ReadSegment has already
// reconciled with the header, handing out the span slab as it goes.
type segDecoder struct {
	rest  []byte
	table *Names
	names []dnsname.Name // table's names, for the decode
	used  []bool         // per name id: some record refers to it

	spans []dates.Range // unclaimed tail of the span slab
}

func (d *segDecoder) take(n int) []byte {
	b := d.rest[:n]
	d.rest = d.rest[n:]
	return b
}

func (d *segDecoder) u32() uint32 { return binary.BigEndian.Uint32(d.take(4)) }

// nameID reads one name id, bounds-checks it and marks the name used.
func (d *segDecoder) nameID() (uint32, error) {
	id := d.u32()
	if uint64(id) >= uint64(len(d.names)) {
		return 0, fmt.Errorf("name id %d out of range (%d names)", id, len(d.names))
	}
	d.used[id] = true
	return id, nil
}

// readNames decodes the name table. The text is copied once, into the
// string every name of the loaded DB is a substring of.
func (d *segDecoder) readNames(nNames, nameBytes int) error {
	lens := d.take(nNames)
	text := string(d.take(nameBytes))
	d.table = &Names{text: text, ends: make([]uint32, nNames)}
	d.names = make([]dnsname.Name, nNames)
	d.used = make([]bool, nNames)
	off := 0
	for i, l := range lens {
		end := off + int(l)
		if end > len(text) {
			return fmt.Errorf("name %d runs past the name bytes", i)
		}
		s := text[off:end]
		if !segNameOK(s) {
			return fmt.Errorf("name %d %q is not canonical", i, s)
		}
		if i > 0 && string(d.names[i-1]) >= s {
			return fmt.Errorf("name %d %q does not sort after %q", i, s, d.names[i-1])
		}
		d.names[i], d.table.ends[i], off = dnsname.Name(s), uint32(end), end
	}
	if off != len(text) {
		return fmt.Errorf("%d name bytes belong to no name", len(text)-off)
	}
	return nil
}

// readEdges decodes and checks the edge section into e: its keys, sets
// and nameserver ids, each domain's run of them in roles[0], and in
// roles[1] the number of edges each name is the nameserver of, for
// sortByNS.
func (d *segDecoder) readEdges(e *segEdgeTable, roles [2][]segKey, nEdges, nSpans int) error {
	e.keys = make([]Edge, nEdges)
	e.sets = make([]interval.Set, nEdges)
	e.byNS = make([]int32, nEdges)
	e.nsIDs = make([]int32, nEdges)
	domains, hosts := roles[0], roles[1]
	return d.section(nEdges, nSpans, true, func(k int, dom, ns uint32) *interval.Set {
		e.keys[k], e.nsIDs[k] = Edge{Domain: d.names[dom], NS: d.names[ns]}, int32(ns)
		if r := &domains[dom].run; r[1] == 0 {
			e.nDomains++
			r[0], r[1] = int32(k), int32(k+1)
		} else {
			r[1]++
		}
		if hosts[ns].run[1] == 0 {
			e.nNS++
		}
		hosts[ns].run[1]++
		return &e.sets[k]
	})
}

// section decodes one key table and the span array behind it, calling
// place with each key's position and ids, and verifies each key's set
// where place says it goes. An edge key has two name ids, the others one
// (ns is then zero).
func (d *segDecoder) section(nKeys, nSpans int, edge bool, place func(k int, id, ns uint32) *interval.Set) error {
	keyLen := 8
	if edge {
		keyLen = 12
	}
	// The key table gets a cursor of its own; d moves on to the spans.
	keys := segDecoder{rest: d.take(keyLen * nKeys), names: d.names, used: d.used}
	raw := d.take(8 * nSpans)
	spans := d.spans[:nSpans]
	d.spans = d.spans[nSpans:]
	for i := range spans {
		spans[i] = dates.Range{
			First: dates.Day(int32(binary.BigEndian.Uint32(raw[8*i:]))),
			Last:  dates.Day(int32(binary.BigEndian.Uint32(raw[8*i+4:]))),
		}
	}
	var prev uint64
	for k := 0; k < nKeys; k++ {
		id, err := keys.nameID()
		if err != nil {
			return fmt.Errorf("key %d: %v", k, err)
		}
		key, ns := uint64(id), uint32(0)
		if edge {
			if ns, err = keys.nameID(); err != nil {
				return fmt.Errorf("key %d: %v", k, err)
			}
			key = key<<32 | uint64(ns)
		}
		if k > 0 && key <= prev {
			return fmt.Errorf("key %d (%s) repeats or sorts before its predecessor", k, d.names[id])
		}
		prev = key
		claimed := keys.u32()
		if claimed == 0 {
			return fmt.Errorf("key %d (%s) has no spans", k, d.names[id])
		}
		if uint64(claimed) > uint64(len(spans)) {
			return fmt.Errorf("key %d (%s) claims %d spans, %d remain", k, d.names[id], claimed, len(spans))
		}
		n := int(claimed)
		set := place(k, id, ns)
		if *set, err = interval.FromNormalized(spans[:n:n]); err != nil {
			return fmt.Errorf("key %d (%s): %v", k, d.names[id], err)
		}
		if !segSpansOK(set) {
			return fmt.Errorf("key %d (%s): spans %s out of range", k, d.names[id], set)
		}
		spans = spans[n:]
	}
	if len(spans) != 0 {
		return fmt.Errorf("%d spans belong to no key", len(spans))
	}
	return nil
}
