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
	ids := make(map[dnsname.Name]uint32, len(t.zones)+len(t.domains)+len(t.byNS))
	names := make([]dnsname.Name, 0, len(t.zones)+len(t.domains)+len(t.byNS))
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
	collect := func(m map[dnsname.Name]fact) []segEntry {
		out := make([]segEntry, 0, len(m))
		a := slab{facts: len(m)}
		for n, f := range m {
			if s := t.spansOf(f, n).set(&a); !s.Empty() {
				note(n)
				out = append(out, segEntry{name: n, set: s})
			}
		}
		return out
	}
	domains, glue := collect(t.domains), collect(t.glue)
	edges := make([]segEntry, 0, len(t.edges))
	a := slab{facts: len(t.edges)}
	for e, f := range t.edges {
		if s := t.spansOf(f, e.Domain).set(&a); !s.Empty() {
			note(e.Domain)
			note(e.NS)
			edges = append(edges, segEntry{name: e.Domain, ns: e.NS, set: s})
		}
	}

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
// payload starts no goroutine. Only an accepted one fills the tables:
// the edge map on a goroutine of its own while the caller fills the
// other maps and both traversal indexes, joined before the DB is
// published.
//
// The loaded DB's facts are built from a handful of allocations: one
// string that every name is a substring of, and one slab each for the
// interval sets, their spans and the byNS/byDomain index slices. Each
// carved slice is capped at its length, so a later append (a writer
// extending an index after thaw, an Add on an absorbed set) reallocates
// rather than growing into its neighbour. The tables also keep the
// payload's key order for the Each*Spans walks, at the cost of one name
// slice each for domains and glue: the edge keys are byDomain's slab and
// the sets the set slab.
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
	prev := -1
	for range nZones {
		id, err := d.nameID()
		if err != nil {
			return fail("zone: %v", err)
		}
		if int(id) <= prev {
			return fail("zone %q out of order", d.names[id])
		}
		prev = int(id)
		t.zones[d.names[id]] = true
	}

	d.sets = make([]interval.Set, keys[0]+keys[1]+keys[2])
	d.spans = make([]dates.Range, spans[0]+spans[1]+spans[2])
	var named [2]ordered[dnsname.Name]
	for i, name := range [2]string{"domains", "glue"} {
		keyed := make([]dnsname.Name, keys[i])
		sets, err := d.section(int(keys[i]), int(spans[i]), false, func(k int, id, _ uint32) { keyed[k] = d.names[id] })
		if err != nil {
			return fail("%s: %v", name, err)
		}
		named[i] = ordered[dnsname.Name]{keys: keyed, sets: sets}
	}
	edges, err := d.readEdges(int(keys[segEdges]), int(spans[segEdges]))
	if err != nil {
		return fail("edges: %v", err)
	}
	for id, used := range d.used {
		if !used {
			return fail("name %q is referred to by nothing", d.names[id])
		}
	}

	// The payload is accepted. The edge map, the largest, fills beside
	// the rest; no two writers share a table. The tables keep the
	// payload's key order for the walks.
	t.order = &keyOrder{edges: ordered[Edge]{keys: edges.keyed, sets: edges.sets}, domains: named[0], glue: named[1]}
	done := make(chan struct{})
	go func() {
		defer close(done)
		t.edges = t.order.edges.facts()
	}()
	t.domains, t.glue = named[0].facts(), named[1].facts()
	t.byDomain, t.byNS = edges.index(d.names)
	<-done

	// Published as a fresh DB's second epoch (its first is the empty one),
	// with no horizon: nothing says how far its facts were sealed.
	db := New()
	db.mu.Lock()
	db.gen = &generation{tables: t, horizon: unknownDay}
	db.publishLocked(nil)
	db.mu.Unlock()
	return db, nil
}

// keyOrder is a loaded generation's facts in the order its segment
// stored them: every key of each table, ascending, with its set.
type keyOrder struct {
	edges         ordered[Edge]
	domains, glue ordered[dnsname.Name]
}

// ordered is one decoded section: key k's set is sets[k], a slice of
// the load's set slab, and the fact the table holds for it is closed.
type ordered[K comparable] struct {
	keys []K
	sets []interval.Set
}

// fact returns what the table holds for key k.
func (o ordered[K]) fact(k int) fact { return fact{spans: &o.sets[k]} }

// facts returns the section's table.
func (o ordered[K]) facts() map[K]fact {
	m := make(map[K]fact, len(o.keys))
	for k, key := range o.keys {
		m[key] = o.fact(k)
	}
	return m
}

// each is the Each*Spans walk of the section: the sets the table holds,
// in key order.
func (o ordered[K]) each(fn func(K, *interval.Set) bool) {
	for k, key := range o.keys {
		if !fn(key, &o.sets[k]) {
			return
		}
	}
}

// segEdgeKeys is the decoded edge section, in payload order — sorted by
// (domain, ns) — with what indexing it needs: each key's edge, set and
// ns id, the number of edges per ns id, and the number of domains.
type segEdgeKeys struct {
	keyed    []Edge // each key's edge: byDomain's slab and the key order
	sorted   []Edge // byNS's slab, filled by index
	sets     []interval.Set
	nsOf     []uint32
	perNS    []uint32
	nDomains int
}

// segDecoder walks a payload whose total length ReadSegment has already
// reconciled with the header, handing out the slabs as it goes.
type segDecoder struct {
	rest  []byte
	names []dnsname.Name
	used  []bool // per name id: some record refers to it

	sets  []interval.Set // unclaimed tail of the set slab
	spans []dates.Range  // unclaimed tail of the span slab
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
		d.names[i], off = dnsname.Name(s), end
	}
	if off != len(text) {
		return fmt.Errorf("%d name bytes belong to no name", len(text)-off)
	}
	return nil
}

// readEdges decodes and checks the edge section, and records what facts
// and index need; it fills no table.
func (d *segDecoder) readEdges(nEdges, nSpans int) (segEdgeKeys, error) {
	slab := make([]Edge, 2*nEdges)
	k := segEdgeKeys{
		keyed:  slab[:nEdges:nEdges],
		sorted: slab[nEdges:],
		nsOf:   make([]uint32, nEdges),
		perNS:  make([]uint32, len(d.names)),
	}
	lastDomain := -1
	var err error
	k.sets, err = d.section(nEdges, nSpans, true, func(i int, dom, ns uint32) {
		k.keyed[i], k.nsOf[i] = Edge{Domain: d.names[dom], NS: d.names[ns]}, ns
		k.perNS[ns]++
		if int(dom) != lastDomain {
			k.nDomains, lastDomain = k.nDomains+1, int(dom)
		}
	})
	return k, err
}

// index builds both traversal indexes. Edges arrive sorted by (domain,
// ns), so byDomain's slices are runs of the key table and byNS's a
// stable counting sort of it by ns: both in the order appending each
// edge, in archive order, to its two index slices produces. It writes
// only the byNS half of the slab and perNS, so it may run beside facts.
func (k segEdgeKeys) index(names []dnsname.Name) (byDomain, byNS map[dnsname.Name][]Edge) {
	keyed, sorted := k.keyed, k.sorted
	nEdges := len(keyed)
	byDomain = make(map[dnsname.Name][]Edge, k.nDomains)
	for i := 0; i < nEdges; {
		j := i + 1
		for j < nEdges && keyed[j].Domain == keyed[i].Domain {
			j++
		}
		byDomain[keyed[i].Domain] = keyed[i:j:j]
		i = j
	}

	nsEnd := k.perNS // per ns id: edge count, then end offset in sorted
	nNS, end := 0, uint32(0)
	for id, n := range nsEnd {
		if n > 0 {
			nNS++
		}
		end += n
		nsEnd[id] = end - n // start offset; the fill below advances it to the end
	}
	for i, ns := range k.nsOf {
		sorted[nsEnd[ns]] = keyed[i]
		nsEnd[ns]++
	}
	byNS = make(map[dnsname.Name][]Edge, nNS)
	start := uint32(0)
	for id, end := range nsEnd {
		if end > start {
			byNS[names[id]] = sorted[start:end:end]
		}
		start = end
	}
	return byDomain, byNS
}

// section decodes one key table and the span array behind it, calling
// place with each key's position and ids, and returns the keys' verified
// sets, key k's at k. An edge key has two name ids, the others one (ns
// is then zero).
func (d *segDecoder) section(nKeys, nSpans int, edge bool, place func(k int, id, ns uint32)) ([]interval.Set, error) {
	keyLen := 8
	if edge {
		keyLen = 12
	}
	// The key table gets a cursor of its own; d moves on to the spans.
	keys := segDecoder{rest: d.take(keyLen * nKeys), names: d.names, used: d.used}
	raw := d.take(8 * nSpans)
	sets := d.sets[:nKeys:nKeys]
	d.sets = d.sets[nKeys:]
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
			return nil, fmt.Errorf("key %d: %v", k, err)
		}
		key, ns := uint64(id), uint32(0)
		if edge {
			if ns, err = keys.nameID(); err != nil {
				return nil, fmt.Errorf("key %d: %v", k, err)
			}
			key = key<<32 | uint64(ns)
		}
		if k > 0 && key <= prev {
			return nil, fmt.Errorf("key %d (%s) repeats or sorts before its predecessor", k, d.names[id])
		}
		prev = key
		claimed := keys.u32()
		if claimed == 0 {
			return nil, fmt.Errorf("key %d (%s) has no spans", k, d.names[id])
		}
		if uint64(claimed) > uint64(len(spans)) {
			return nil, fmt.Errorf("key %d (%s) claims %d spans, %d remain", k, d.names[id], claimed, len(spans))
		}
		n := int(claimed)
		set := &sets[k]
		if *set, err = interval.FromNormalized(spans[:n:n]); err != nil {
			return nil, fmt.Errorf("key %d (%s): %v", k, d.names[id], err)
		}
		if !segSpansOK(set) {
			return nil, fmt.Errorf("key %d (%s): spans %s out of range", k, d.names[id], set)
		}
		place(k, id, ns)
		spans = spans[n:]
	}
	if len(spans) != 0 {
		return nil, fmt.Errorf("%d spans belong to no key", len(spans))
	}
	return sets, nil
}
