// Package dnswire implements the subset of the RFC 1035 wire format needed
// by the controlled-experiment tooling: message header, question section,
// and resource records of type A, AAAA, NS, CNAME, SOA, and TXT, with name
// compression on both encode and decode.
//
// The codec is allocation-conscious but favors clarity: the experiment
// serves a handful of names, not production traffic.
package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"strings"

	"repro/internal/dnsname"
)

// Type is a DNS RR type code.
type Type uint16

// Supported RR types.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	// TypeOPT is the EDNS0 pseudo-record (RFC 6891): its CLASS field
	// carries the sender's UDP payload size.
	TypeOPT Type = 41
)

// String returns the mnemonic for t.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS class code. Only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes used by the authoritative server.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String returns the mnemonic for rc.
func (rc RCode) String() string {
	switch rc {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(rc))
	}
}

// Header is the fixed 12-octet DNS message header.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is a single entry of the question section.
type Question struct {
	Name  dnsname.Name
	Type  Type
	Class Class
}

// SOAData is the RDATA of an SOA record.
type SOAData struct {
	MName   dnsname.Name
	RName   dnsname.Name
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// Record is a resource record. Exactly one of the typed RDATA fields is
// meaningful, selected by Type: Target for NS/CNAME, Addr for A/AAAA,
// SOA for SOA, Text for TXT.
type Record struct {
	Name  dnsname.Name
	Type  Type
	Class Class
	TTL   uint32

	Target dnsname.Name // NS, CNAME
	Addr   netip.Addr   // A, AAAA
	SOA    SOAData      // SOA
	Text   []string     // TXT
}

// String renders r in zone-file style for logs.
func (r Record) String() string {
	switch r.Type {
	case TypeNS, TypeCNAME:
		return fmt.Sprintf("%s %d IN %s %s.", r.Name, r.TTL, r.Type, r.Target)
	case TypeA, TypeAAAA:
		return fmt.Sprintf("%s %d IN %s %s", r.Name, r.TTL, r.Type, r.Addr)
	case TypeSOA:
		return fmt.Sprintf("%s %d IN SOA %s. %s. %d %d %d %d %d", r.Name, r.TTL,
			r.SOA.MName, r.SOA.RName, r.SOA.Serial, r.SOA.Refresh, r.SOA.Retry, r.SOA.Expire, r.SOA.Minimum)
	case TypeTXT:
		return fmt.Sprintf("%s %d IN TXT %q", r.Name, r.TTL, strings.Join(r.Text, " "))
	default:
		return fmt.Sprintf("%s %d IN %s <opaque>", r.Name, r.TTL, r.Type)
	}
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []Record
	Authority  []Record
	Additional []Record
}

// UDPSize returns the EDNS0-advertised UDP payload size from an OPT
// record in the additional section, clamped to [512, 4096]; 512 when no
// OPT record is present (classic DNS).
func (m *Message) UDPSize() int {
	for _, r := range m.Additional {
		if r.Type == TypeOPT {
			size := int(r.Class)
			if size < maxUDPPayload {
				return maxUDPPayload
			}
			if size > 4096 {
				return 4096
			}
			return size
		}
	}
	return maxUDPPayload
}

// AddOPT appends an EDNS0 OPT record advertising the given UDP payload
// size (RFC 6891 §6.1.1: owner is the root name).
func (m *Message) AddOPT(udpSize uint16) {
	m.Additional = append(m.Additional, Record{
		Name: "", Type: TypeOPT, Class: Class(udpSize),
	})
}

// Codec errors.
var (
	ErrTruncated       = errors.New("dnswire: message truncated")
	ErrBadPointer      = errors.New("dnswire: bad compression pointer")
	ErrNameTooLong     = errors.New("dnswire: encoded name too long")
	ErrDotInLabel      = errors.New("dnswire: label contains a dot")
	ErrTooManyRecords  = errors.New("dnswire: section count exceeds message size")
	ErrUnsupportedType = errors.New("dnswire: unsupported RR type")
)

// maxUDPPayload is the classic 512-octet DNS/UDP limit; the server sets TC
// when a response would exceed it.
const maxUDPPayload = 512

// encoder appends wire data to buf, remembering name offsets for
// compression.
type encoder struct {
	buf     []byte
	offsets map[dnsname.Name]int
}

func newEncoder() *encoder {
	return &encoder{buf: make([]byte, 0, 512), offsets: make(map[dnsname.Name]int)}
}

func (e *encoder) u16(v uint16) { e.buf = append(e.buf, byte(v>>8), byte(v)) }
func (e *encoder) u32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// name encodes n with RFC 1035 §4.1.4 compression: each suffix already
// emitted is replaced by a two-octet pointer.
func (e *encoder) name(n dnsname.Name) error {
	for n != "" {
		if off, ok := e.offsets[n]; ok && off < 0x3FFF {
			e.u16(0xC000 | uint16(off))
			return nil
		}
		if len(e.buf) < 0x3FFF {
			e.offsets[n] = len(e.buf)
		}
		label := n.FirstLabel()
		if len(label) > dnsname.MaxLabelLength {
			return fmt.Errorf("%w: label %q", ErrNameTooLong, label)
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
		n = n.Parent()
	}
	e.buf = append(e.buf, 0)
	return nil
}

func (e *encoder) record(r Record) error {
	if err := e.name(r.Name); err != nil {
		return err
	}
	e.u16(uint16(r.Type))
	e.u16(uint16(r.Class))
	e.u32(r.TTL)
	lenAt := len(e.buf)
	e.u16(0) // RDLENGTH placeholder
	start := len(e.buf)
	switch r.Type {
	case TypeNS, TypeCNAME:
		if err := e.name(r.Target); err != nil {
			return err
		}
	case TypeA:
		a := r.Addr.As4()
		e.buf = append(e.buf, a[:]...)
	case TypeAAAA:
		a := r.Addr.As16()
		e.buf = append(e.buf, a[:]...)
	case TypeSOA:
		if err := e.name(r.SOA.MName); err != nil {
			return err
		}
		if err := e.name(r.SOA.RName); err != nil {
			return err
		}
		e.u32(r.SOA.Serial)
		e.u32(r.SOA.Refresh)
		e.u32(r.SOA.Retry)
		e.u32(r.SOA.Expire)
		e.u32(r.SOA.Minimum)
	case TypeTXT:
		for _, s := range r.Text {
			if len(s) > 255 {
				return fmt.Errorf("dnswire: TXT string exceeds 255 octets")
			}
			e.buf = append(e.buf, byte(len(s)))
			e.buf = append(e.buf, s...)
		}
	case TypeOPT:
		// EDNS0 pseudo-record: empty RDATA (no options carried).
	default:
		return fmt.Errorf("%w: %v", ErrUnsupportedType, r.Type)
	}
	rdlen := len(e.buf) - start
	e.buf[lenAt] = byte(rdlen >> 8)
	e.buf[lenAt+1] = byte(rdlen)
	return nil
}

// Encode serializes m to wire format.
func Encode(m *Message) ([]byte, error) {
	e := newEncoder()
	h := m.Header
	e.u16(h.ID)
	var flags uint16
	if h.Response {
		flags |= 1 << 15
	}
	flags |= uint16(h.Opcode&0xF) << 11
	if h.Authoritative {
		flags |= 1 << 10
	}
	if h.Truncated {
		flags |= 1 << 9
	}
	if h.RecursionDesired {
		flags |= 1 << 8
	}
	if h.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(h.RCode & 0xF)
	e.u16(flags)
	e.u16(uint16(len(m.Questions)))
	e.u16(uint16(len(m.Answers)))
	e.u16(uint16(len(m.Authority)))
	e.u16(uint16(len(m.Additional)))
	for _, q := range m.Questions {
		if err := e.name(q.Name); err != nil {
			return nil, err
		}
		e.u16(uint16(q.Type))
		e.u16(uint16(q.Class))
	}
	for _, sec := range [][]Record{m.Answers, m.Authority, m.Additional} {
		for _, r := range sec {
			if err := e.record(r); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

// EncodeUDPSize serializes m for a UDP payload of at most max octets
// (the EDNS0-negotiated size), setting the TC bit and trimming the
// record sections when the message exceeds it. OPT records in the
// additional section survive truncation, as RFC 6891 requires.
func EncodeUDPSize(m *Message, max int) ([]byte, error) {
	if max < maxUDPPayload {
		max = maxUDPPayload
	}
	buf, err := Encode(m)
	if err != nil {
		return nil, err
	}
	if len(buf) <= max {
		return buf, nil
	}
	truncated := *m
	truncated.Header.Truncated = true
	truncated.Answers = nil
	truncated.Authority = nil
	truncated.Additional = nil
	for _, r := range m.Additional {
		if r.Type == TypeOPT {
			truncated.Additional = append(truncated.Additional, r)
		}
	}
	return Encode(&truncated)
}

// decoder reads wire data with bounds checking and pointer-loop defense.
type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) u8() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, ErrTruncated
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.pos+2 > len(d.buf) {
		return 0, ErrTruncated
	}
	v := uint16(d.buf[d.pos])<<8 | uint16(d.buf[d.pos+1])
	d.pos += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, ErrTruncated
	}
	v := uint32(d.buf[d.pos])<<24 | uint32(d.buf[d.pos+1])<<16 |
		uint32(d.buf[d.pos+2])<<8 | uint32(d.buf[d.pos+3])
	d.pos += 4
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.pos+n > len(d.buf) {
		return nil, ErrTruncated
	}
	v := d.buf[d.pos : d.pos+n]
	d.pos += n
	return v, nil
}

// name decodes a possibly-compressed name starting at the current offset.
func (d *decoder) name() (dnsname.Name, error) {
	var sb strings.Builder
	pos := d.pos
	jumped := false
	jumps := 0
	for {
		if pos >= len(d.buf) {
			return "", ErrTruncated
		}
		b := d.buf[pos]
		switch {
		case b == 0:
			if !jumped {
				d.pos = pos + 1
			}
			return dnsname.Canonical(sb.String()), nil
		case b&0xC0 == 0xC0:
			if pos+1 >= len(d.buf) {
				return "", ErrTruncated
			}
			target := int(b&0x3F)<<8 | int(d.buf[pos+1])
			if !jumped {
				d.pos = pos + 2
			}
			if target >= pos {
				return "", fmt.Errorf("%w: forward pointer to %d from %d", ErrBadPointer, target, pos)
			}
			jumps++
			if jumps > 32 {
				return "", fmt.Errorf("%w: pointer loop", ErrBadPointer)
			}
			pos = target
			jumped = true
		case b&0xC0 != 0:
			return "", fmt.Errorf("%w: reserved label type %#x", ErrBadPointer, b)
		default:
			n := int(b)
			if pos+1+n > len(d.buf) {
				return "", ErrTruncated
			}
			label := d.buf[pos+1 : pos+1+n]
			// A name is its labels joined by dots, so a dot inside a
			// label would make it a different name.
			if bytes.IndexByte(label, '.') >= 0 {
				return "", ErrDotInLabel
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(label)
			pos += 1 + n
			if sb.Len() > dnsname.MaxNameLength {
				return "", ErrNameTooLong
			}
		}
	}
}

func (d *decoder) record() (Record, error) {
	var r Record
	name, err := d.name()
	if err != nil {
		return r, err
	}
	r.Name = name
	t, err := d.u16()
	if err != nil {
		return r, err
	}
	r.Type = Type(t)
	c, err := d.u16()
	if err != nil {
		return r, err
	}
	r.Class = Class(c)
	ttl, err := d.u32()
	if err != nil {
		return r, err
	}
	r.TTL = ttl
	rdlen, err := d.u16()
	if err != nil {
		return r, err
	}
	end := d.pos + int(rdlen)
	if end > len(d.buf) {
		return r, ErrTruncated
	}
	switch r.Type {
	case TypeNS, TypeCNAME:
		r.Target, err = d.name()
	case TypeA:
		var b []byte
		if b, err = d.bytes(4); err == nil {
			r.Addr = netip.AddrFrom4([4]byte(b))
		}
	case TypeAAAA:
		var b []byte
		if b, err = d.bytes(16); err == nil {
			r.Addr = netip.AddrFrom16([16]byte(b))
		}
	case TypeSOA:
		if r.SOA.MName, err = d.name(); err != nil {
			return r, err
		}
		if r.SOA.RName, err = d.name(); err != nil {
			return r, err
		}
		for _, p := range []*uint32{&r.SOA.Serial, &r.SOA.Refresh, &r.SOA.Retry, &r.SOA.Expire, &r.SOA.Minimum} {
			if *p, err = d.u32(); err != nil {
				return r, err
			}
		}
	case TypeTXT:
		for d.pos < end {
			var n byte
			if n, err = d.u8(); err != nil {
				return r, err
			}
			var b []byte
			if b, err = d.bytes(int(n)); err != nil {
				return r, err
			}
			r.Text = append(r.Text, string(b))
		}
	default:
		// Skip unknown RDATA but keep the record envelope.
		_, err = d.bytes(int(rdlen))
	}
	if err != nil {
		return r, err
	}
	if d.pos != end {
		// RDATA with compression may legitimately end early only via
		// pointers; anything else is malformed.
		if d.pos > end {
			return r, fmt.Errorf("dnswire: RDATA overrun for %s", r.Name)
		}
		d.pos = end
	}
	return r, nil
}

// Decode parses a wire-format message.
func Decode(buf []byte) (*Message, error) {
	d := &decoder{buf: buf}
	var m Message
	id, err := d.u16()
	if err != nil {
		return nil, err
	}
	m.Header.ID = id
	flags, err := d.u16()
	if err != nil {
		return nil, err
	}
	m.Header.Response = flags&(1<<15) != 0
	m.Header.Opcode = uint8(flags >> 11 & 0xF)
	m.Header.Authoritative = flags&(1<<10) != 0
	m.Header.Truncated = flags&(1<<9) != 0
	m.Header.RecursionDesired = flags&(1<<8) != 0
	m.Header.RecursionAvailable = flags&(1<<7) != 0
	m.Header.RCode = RCode(flags & 0xF)
	counts := make([]uint16, 4)
	for i := range counts {
		if counts[i], err = d.u16(); err != nil {
			return nil, err
		}
	}
	// Each question needs >= 5 octets, each record >= 11: reject counts
	// that cannot fit in the remaining buffer before allocating.
	need := int(counts[0])*5 + (int(counts[1])+int(counts[2])+int(counts[3]))*11
	if need > len(buf)-d.pos {
		return nil, ErrTooManyRecords
	}
	for i := 0; i < int(counts[0]); i++ {
		var q Question
		if q.Name, err = d.name(); err != nil {
			return nil, err
		}
		t, err := d.u16()
		if err != nil {
			return nil, err
		}
		q.Type = Type(t)
		c, err := d.u16()
		if err != nil {
			return nil, err
		}
		q.Class = Class(c)
		m.Questions = append(m.Questions, q)
	}
	sections := []*[]Record{&m.Answers, &m.Authority, &m.Additional}
	for si, count := range counts[1:] {
		for i := 0; i < int(count); i++ {
			r, err := d.record()
			if err != nil {
				return nil, err
			}
			*sections[si] = append(*sections[si], r)
		}
	}
	return &m, nil
}
