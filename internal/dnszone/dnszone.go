// Package dnszone models TLD zone-file snapshots: for each zone, the set
// of delegations (owner name -> NS records) and glue addresses published
// on a given day. It also reads and writes a master-file-style text format
// so snapshots can be inspected, diffed, and archived like the zone files
// the study was built on.
package dnszone

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"repro/internal/dates"
	"repro/internal/dnsname"
)

// Delegation is one domain's NS record set within a zone snapshot.
type Delegation struct {
	Domain      dnsname.Name
	Nameservers []dnsname.Name
}

// Glue is an in-zone address record for a nameserver host.
type Glue struct {
	Host dnsname.Name
	Addr netip.Addr
}

// Snapshot is the published contents of one zone on one day.
type Snapshot struct {
	Zone        dnsname.Name
	Date        dates.Day
	Delegations []Delegation
	Glue        []Glue
}

// NewSnapshot returns an empty snapshot for zone on date.
func NewSnapshot(zone dnsname.Name, date dates.Day) *Snapshot {
	return &Snapshot{Zone: zone, Date: date}
}

// AddDelegation appends a delegation. Nameserver order is preserved.
func (s *Snapshot) AddDelegation(domain dnsname.Name, nameservers ...dnsname.Name) {
	s.Delegations = append(s.Delegations, Delegation{Domain: domain, Nameservers: nameservers})
}

// AddGlue appends a glue address record.
func (s *Snapshot) AddGlue(host dnsname.Name, addr netip.Addr) {
	s.Glue = append(s.Glue, Glue{Host: host, Addr: addr})
}

// Sort orders delegations by domain and glue by host for stable output.
func (s *Snapshot) Sort() {
	sort.Slice(s.Delegations, func(i, j int) bool {
		return s.Delegations[i].Domain < s.Delegations[j].Domain
	})
	for i := range s.Delegations {
		ns := s.Delegations[i].Nameservers
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
	}
	sort.Slice(s.Glue, func(i, j int) bool {
		if s.Glue[i].Host != s.Glue[j].Host {
			return s.Glue[i].Host < s.Glue[j].Host
		}
		return s.Glue[i].Addr.Less(s.Glue[j].Addr)
	})
}

// ttlIN is the TTL and class written for all records; zone snapshots
// carry no per-record TTL information relevant to the study.
const ttlIN = " 86400 IN "

// Write emits the snapshot in master-file style:
//
//	; zone com snapshot 2015-06-01
//	$ORIGIN com.
//	example 86400 IN NS ns1.example.com.
//	ns1.example 86400 IN A 192.0.2.1
//
// Owner names inside the zone are written relative to the origin.
func (s *Snapshot) Write(w io.Writer) error {
	_, err := w.Write(s.AppendTo(nil))
	return err
}

// AppendTo appends the bytes Write emits to b and returns the result.
func (s *Snapshot) AppendTo(b []byte) []byte {
	b = slices.Grow(b, s.sizeHint())
	b = append(b, "; zone "...)
	b = append(b, s.Zone...)
	b = append(b, " snapshot "...)
	b = s.Date.AppendTo(b)
	b = append(b, "\n$ORIGIN "...)
	b = append(b, s.Zone...)
	b = append(b, ".\n"...)
	for _, d := range s.Delegations {
		for _, ns := range d.Nameservers {
			b = s.appendOwner(b, d.Domain)
			b = append(b, ttlIN+"NS "...)
			b = append(b, ns...)
			b = append(b, ".\n"...)
		}
	}
	for _, g := range s.Glue {
		b = s.appendOwner(b, g.Host)
		if g.Addr.Is6() {
			b = append(b, ttlIN+"AAAA "...)
		} else {
			b = append(b, ttlIN+"A "...)
		}
		b = append(g.Addr.AppendTo(b), '\n')
	}
	return b
}

// appendOwner appends n as an owner name relative to the zone: "@" for
// the zone itself, the labels above it for a name inside it, and the
// absolute name otherwise.
func (s *Snapshot) appendOwner(b []byte, n dnsname.Name) []byte {
	switch {
	case n == s.Zone:
		return append(b, '@')
	case n.IsSubdomainOf(s.Zone):
		return append(b, n[:len(n)-len(s.Zone)-1]...)
	default:
		return append(append(b, n...), '.')
	}
}

// sizeHint bounds from above the bytes AppendTo writes for s.
func (s *Snapshot) sizeHint() int {
	n := 64 + 2*len(s.Zone)
	for _, d := range s.Delegations {
		for _, ns := range d.Nameservers {
			n += len(d.Domain) + len(ns) + 16
		}
	}
	for _, g := range s.Glue {
		n += len(g.Host) + 64
	}
	return n
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("dnszone: line %d: %s", e.Line, e.Msg)
}

// Read parses a snapshot previously produced by Write. The zone and date
// are recovered from the header comment when present; otherwise the caller
// must fill them in (Read then uses the $ORIGIN for the zone and leaves
// Date as dates.None).
//
// Fields are separated by ASCII whitespace, and a $ORIGIN or record line
// holding a byte >= 0x80 is a ParseError. Record lines are tokenised in
// the scanner's buffer: every absolute name is validated under
// dnsname.Parse's rules and written once into an arena that lives as long
// as the snapshot, an owner token repeated from the line before reuses
// that line's name, and NS targets are interned per file. A caller that
// keeps a name beyond the snapshot should strings.Clone it, or it keeps
// the arena chunk the name sits in.
func Read(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 16*1024), maxLineBytes)
	p := parser{snap: &Snapshot{Date: dates.None}}
	for sc.Scan() {
		p.line++
		if err := p.parseLine(sc.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	p.snap.Delegations, p.snap.Glue = p.dels.join(), p.glue.join()
	return p.snap, nil
}

const (
	// maxLineBytes bounds one line of a zone file.
	maxLineBytes = 1024 * 1024
	// internSlots sizes the NS-target intern table: 16 KiB a file, which
	// holds the few hundred nameservers that most delegations point at.
	internSlots = 1024
)

// parser is the state of one Read.
type parser struct {
	snap   *Snapshot
	origin dnsname.Name
	line   int

	// arena holds the bytes of every name the snapshot carries; a full
	// chunk is left to the names carved from it and a larger one started.
	arena     strings.Builder
	arenaSize int
	// scratch is where a name is canonicalised before it is validated.
	scratch []byte
	// ownerTok is the previous record's owner token (empty when there is
	// none under the current origin) and owner the name it resolved to.
	ownerTok []byte
	owner    dnsname.Name
	// targets interns NS targets: a direct-mapped table of the names
	// last parsed, indexed by a hash of their bytes.
	targets *[internSlots]dnsname.Name
	dels    chunkList[Delegation]
	glue    chunkList[Glue]
	// ns is the chunk nameserver lists are carved from; the last
	// delegation's list starts at nsStart and ends at len(ns).
	ns      []dnsname.Name
	nsStart int
}

// isSpace reports whether c is one of the six ASCII bytes strings.Fields
// splits on: tab, newline, vertical tab, form feed, carriage return, space.
func isSpace(c byte) bool { return c == ' ' || c-'\t' < 5 }

// tokens are the fields of one line, as offsets into it: storing five
// slice headers a line costs five write-barrier checks, five ints none.
type tokens struct {
	line []byte
	span [5][2]int
}

func (t *tokens) at(k int) []byte { return t.line[t.span[k][0]:t.span[k][1]] }

// split splits line on ASCII whitespace, returning how many fields it has
// (only the first five are kept) and whether every byte of them is ASCII.
func (t *tokens) split(line []byte) (n int, ascii bool) {
	t.line = line
	var or byte
	for i := 0; i < len(line); {
		if c := line[i]; c <= ' ' && isSpace(c) {
			i++
			continue
		}
		start := i
		for i < len(line) {
			c := line[i]
			if c <= ' ' && isSpace(c) {
				break
			}
			or |= c
			i++
		}
		if n < len(t.span) {
			t.span[n] = [2]int{start, i}
		}
		n++
	}
	return n, or < 0x80
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{p.line, fmt.Sprintf(format, args...)}
}

func (p *parser) parseLine(line []byte) error {
	var f tokens
	for len(line) > 0 && isSpace(line[0]) {
		line = line[1:]
	}
	if len(line) == 0 {
		return nil
	}
	if line[0] == ';' {
		// Header comment: "; zone <name> snapshot <date>".
		if n, _ := f.split(line[1:]); n == 4 && string(f.at(0)) == "zone" && string(f.at(2)) == "snapshot" {
			if z, err := dnsname.Parse(string(f.at(1))); err == nil {
				p.snap.Zone = z
			}
			if d, err := dates.Parse(string(f.at(3))); err == nil {
				p.snap.Date = d
			}
		}
		return nil
	}
	n, ascii := f.split(line)
	if !ascii {
		return p.errorf("non-ASCII byte")
	}
	if bytes.HasPrefix(f.at(0), []byte("$ORIGIN")) {
		if n != 2 {
			return p.errorf("malformed $ORIGIN")
		}
		z, err := dnsname.Parse(string(f.at(1)))
		if err != nil {
			return p.errorf("bad origin: %v", err)
		}
		p.origin = z
		p.ownerTok = p.ownerTok[:0]
		if p.snap.Zone == "" {
			p.snap.Zone = z
		}
		return nil
	}
	if n != 5 {
		return p.errorf("expected 5 fields, got %d", n)
	}
	owner, err := p.parseOwner(f.at(0))
	if err != nil {
		return p.errorf("bad owner: %v", err)
	}
	if string(f.at(2)) != "IN" {
		return p.errorf("unsupported class %q", f.at(2))
	}
	switch string(f.at(3)) {
	case "NS":
		target, err := p.parseTarget(f.at(4))
		if err != nil {
			return p.errorf("bad NS target: %v", err)
		}
		p.addNS(owner, target)
	case "A", "AAAA":
		addr, err := netip.ParseAddr(string(f.at(4)))
		if err != nil {
			return p.errorf("bad address: %v", err)
		}
		p.glue.push(Glue{Host: owner, Addr: addr})
	default:
		return p.errorf("unsupported type %q", f.at(3))
	}
	return nil
}

// parseOwner resolves a record's owner token against the origin.
func (p *parser) parseOwner(tok []byte) (dnsname.Name, error) {
	if bytes.Equal(tok, p.ownerTok) {
		return p.owner, nil
	}
	var name dnsname.Name
	var err error
	switch {
	case len(tok) == 1 && tok[0] == '@':
		name = p.origin
	case tok[len(tok)-1] == '.':
		name, err = p.parseName(tok, "")
	case p.origin == "":
		err = fmt.Errorf("relative owner %q before $ORIGIN", tok)
	default:
		name, err = p.parseName(tok, p.origin)
	}
	if err != nil {
		return "", err
	}
	p.ownerTok, p.owner = append(p.ownerTok[:0], tok...), name
	return name, nil
}

// parseTarget resolves an NS target, which is absolute with or without
// its trailing dot. A target already in canonical form is looked up in
// the intern table first; a miss, or a token that needs lower-casing,
// costs a parse and another copy in the arena, never a wrong answer.
func (p *parser) parseTarget(tok []byte) (dnsname.Name, error) {
	key := tok
	if len(key) > 0 && key[len(key)-1] == '.' {
		key = key[:len(key)-1]
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	if p.targets == nil {
		p.targets = new([internSlots]dnsname.Name)
	}
	slot := &p.targets[h%internSlots]
	if len(key) > 0 && string(*slot) == string(key) { // an unused slot is ""
		return *slot, nil
	}
	name, err := p.parseName(tok, "")
	if err != nil {
		return "", err
	}
	*slot = name
	return name, nil
}

// parseName is dnsname.Parse(tok) — or, with an origin, of tok + "." +
// origin — on bytes: the same canonical form, the same checks in the same
// order, the same errors. The name is written into the arena.
func (p *parser) parseName(tok []byte, origin dnsname.Name) (dnsname.Name, error) {
	s := tok
	if origin == "" && len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	b := append(p.scratch[:0], s...)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	if origin != "" {
		b = append(b, '.')
		b = append(b, origin...)
	}
	p.scratch = b
	if len(b) == 0 {
		return "", dnsname.ErrEmpty
	}
	if len(b) > dnsname.MaxNameLength {
		return "", dnsname.ErrTooLong
	}
	// quoted is the argument dnsname.Parse would have been given.
	quoted := func() string {
		if origin == "" {
			return string(tok)
		}
		return fmt.Sprintf("%s.%s", tok, origin)
	}
	for rest := b; len(rest) > 0; {
		label := rest
		if i := bytes.IndexByte(rest, '.'); i >= 0 {
			label, rest = rest[:i], rest[i+1:]
			if len(rest) == 0 {
				return "", fmt.Errorf("%w: empty trailing label in %q", dnsname.ErrBadLabel, quoted())
			}
		} else {
			rest = nil
		}
		if err := checkLabel(label); err != nil {
			return "", fmt.Errorf("%w in %q", err, quoted())
		}
	}
	if p.arena.Cap()-p.arena.Len() < len(b) {
		p.arenaSize = min(max(2*p.arenaSize, 4*1024), 64*1024)
		p.arena.Reset()
		p.arena.Grow(p.arenaSize)
	}
	start := p.arena.Len()
	p.arena.Write(b)
	return dnsname.Name(p.arena.String()[start:]), nil
}

// checkLabel is dnsname's label rule on a lower-cased label.
func checkLabel(label []byte) error {
	if len(label) == 0 {
		return fmt.Errorf("%w: empty label", dnsname.ErrBadLabel)
	}
	if len(label) > dnsname.MaxLabelLength {
		return dnsname.ErrLabelTooLong
	}
	if label[0] == '-' || label[len(label)-1] == '-' {
		return fmt.Errorf("%w: label %q begins or ends with hyphen", dnsname.ErrBadLabel, label)
	}
	for _, c := range label {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return fmt.Errorf("%w: byte %q in label %q", dnsname.ErrBadLabel, c, label)
		}
	}
	return nil
}

// addNS records owner's NS target, coalescing it into the last delegation
// when that has the same owner. Every list is carved from a shared chunk
// with its capacity clipped, so appending to one never writes into the
// next.
func (p *parser) addNS(owner, target dnsname.Name) {
	last := p.dels.last()
	if last == nil || last.Domain != owner {
		p.dels.push(Delegation{Domain: owner})
		last = p.dels.last()
		p.nsStart = len(p.ns)
	}
	if len(p.ns) == cap(p.ns) {
		open := p.ns[p.nsStart:]
		p.ns = make([]dnsname.Name, 0, min(max(2*cap(p.ns), 64), 1024)+len(open))
		p.ns = append(p.ns, open...)
		p.nsStart = 0
	}
	p.ns = append(p.ns, target)
	last.Nameservers = p.ns[p.nsStart:len(p.ns):len(p.ns)]
}

// chunkList is an append-only list that grows by starting a new chunk
// rather than re-copying what it holds: n pushes allocate about 2n
// elements in all, join's copy included, where append's own growth
// allocates about 5n.
type chunkList[T any] struct {
	full [][]T
	cur  []T
}

func (c *chunkList[T]) push(v T) {
	if len(c.cur) == cap(c.cur) {
		if c.cur != nil {
			c.full = append(c.full, c.cur)
		}
		c.cur = make([]T, 0, min(max(2*cap(c.cur), 16), 1024))
	}
	c.cur = append(c.cur, v)
}

// last returns the most recently pushed element, nil when there is none.
func (c *chunkList[T]) last() *T {
	if len(c.cur) == 0 {
		return nil
	}
	return &c.cur[len(c.cur)-1]
}

// join returns the elements as one slice with no spare capacity.
func (c *chunkList[T]) join() []T {
	if len(c.full) == 0 {
		return c.cur[:len(c.cur):len(c.cur)]
	}
	n := len(c.cur)
	for _, chunk := range c.full {
		n += len(chunk)
	}
	out := make([]T, 0, n)
	for _, chunk := range c.full {
		out = append(out, chunk...)
	}
	return append(out, c.cur...)
}
