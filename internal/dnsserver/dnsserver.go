// Package dnsserver is a small authoritative DNS server over UDP, built
// on the dnswire codec. It serves static zone content and supports a
// source-address answer policy — the mechanism the paper's controlled
// experiment used to answer queries for a hijackable .edu name only from
// a /24 the authors controlled (§6.1, §8).
package dnsserver

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"repro/internal/dnsname"
	"repro/internal/dnswire"
)

// Policy decides whether a query may be answered. Queries it rejects
// receive no response at all (not an error RCode) — exactly the
// "careful to never respond" behaviour of the experiment.
type Policy func(q dnswire.Question, from netip.AddrPort) bool

// AnswerAll answers every query.
func AnswerAll(dnswire.Question, netip.AddrPort) bool { return true }

// AnswerOnlyPrefix answers only queries from the given prefix.
func AnswerOnlyPrefix(p netip.Prefix) Policy {
	return func(_ dnswire.Question, from netip.AddrPort) bool {
		return p.Contains(from.Addr().Unmap())
	}
}

// Stats counts server activity.
type Stats struct {
	Queries  atomic.Int64
	Answered atomic.Int64
	Dropped  atomic.Int64
	Errors   atomic.Int64
}

// Server is an authoritative server for a set of zones.
type Server struct {
	mu      sync.RWMutex
	zones   map[dnsname.Name]bool
	records map[recordKey][]dnswire.Record
	policy  Policy

	pc     net.PacketConn
	closed atomic.Bool

	// Stats is exported for tests and the experiment harness.
	Stats Stats

	// QueryLog, when non-nil, receives every query name (even dropped
	// ones); the experiment uses it to observe incoming resolution
	// attempts without answering them.
	QueryLog func(q dnswire.Question, from netip.AddrPort)
}

type recordKey struct {
	name dnsname.Name
	typ  dnswire.Type
}

// New creates a server with the given answer policy (nil = AnswerAll).
func New(policy Policy) *Server {
	if policy == nil {
		policy = AnswerAll
	}
	return &Server{
		zones:   make(map[dnsname.Name]bool),
		records: make(map[recordKey][]dnswire.Record),
		policy:  policy,
	}
}

// SetPolicy atomically replaces the answer policy.
func (s *Server) SetPolicy(p Policy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p == nil {
		p = AnswerAll
	}
	s.policy = p
}

// AddZone declares authority over zone and installs its SOA.
func (s *Server) AddZone(zone dnsname.Name) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[zone] = true
	key := recordKey{zone, dnswire.TypeSOA}
	if len(s.records[key]) == 0 {
		s.records[key] = []dnswire.Record{{
			Name: zone, Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 3600,
			SOA: dnswire.SOAData{
				MName: dnsname.Join("ns1", zone), RName: dnsname.Join("hostmaster", zone),
				Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
			},
		}}
	}
}

// AddRecord installs a record. The owner must be inside a declared zone.
func (s *Server) AddRecord(r dnswire.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inZoneLocked(r.Name) {
		return fmt.Errorf("dnsserver: %s outside served zones", r.Name)
	}
	if r.Class == 0 {
		r.Class = dnswire.ClassIN
	}
	if r.TTL == 0 {
		r.TTL = 300
	}
	key := recordKey{r.Name, r.Type}
	s.records[key] = append(s.records[key], r)
	return nil
}

// AddA is a convenience for installing an A record.
func (s *Server) AddA(name dnsname.Name, addr netip.Addr) error {
	return s.AddRecord(dnswire.Record{Name: name, Type: dnswire.TypeA, Addr: addr})
}

func (s *Server) inZoneLocked(name dnsname.Name) bool {
	for z := range s.zones {
		if name.InZone(z) {
			return true
		}
	}
	return false
}

// zoneFor returns the declared zone containing name, or "".
func (s *Server) zoneFor(name dnsname.Name) dnsname.Name {
	best := dnsname.Name("")
	for z := range s.zones {
		if name.InZone(z) && len(z) > len(best) {
			best = z
		}
	}
	return best
}

// Serve reads queries from pc until Close. It always returns a non-nil
// error (net.ErrClosed after Close).
func (s *Server) Serve(pc net.PacketConn) error {
	s.mu.Lock()
	s.pc = pc
	s.mu.Unlock()
	buf := make([]byte, 4096)
	for {
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			if s.closed.Load() {
				return net.ErrClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		resp := s.handleWire(buf[:n], addrPortOf(from))
		if resp != nil {
			if _, err := pc.WriteTo(resp, from); err != nil {
				s.Stats.Errors.Add(1)
			}
		}
	}
}

// Close stops the server.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.mu.Lock()
	pc := s.pc
	s.mu.Unlock()
	if pc != nil {
		return pc.Close()
	}
	return nil
}

func addrPortOf(addr net.Addr) netip.AddrPort {
	if ua, ok := addr.(*net.UDPAddr); ok {
		return ua.AddrPort()
	}
	if ap, err := netip.ParseAddrPort(addr.String()); err == nil {
		return ap
	}
	return netip.AddrPort{}
}

// handleWire processes one wire-format query; a nil return means "send
// nothing" (malformed input or policy drop). An answer larger than the
// query's UDP payload size (512 octets without EDNS0) goes out
// truncated, with TC set.
func (s *Server) handleWire(wire []byte, from netip.AddrPort) []byte {
	msg, err := dnswire.Decode(wire)
	if err != nil || msg.Header.Response || len(msg.Questions) != 1 {
		s.Stats.Errors.Add(1)
		return nil
	}
	q := msg.Questions[0]
	s.Stats.Queries.Add(1)
	if s.QueryLog != nil {
		s.QueryLog(q, from)
	}

	s.mu.RLock()
	policy := s.policy
	s.mu.RUnlock()
	if !policy(q, from) {
		s.Stats.Dropped.Add(1)
		return nil
	}

	resp := &dnswire.Message{
		Header: dnswire.Header{
			ID:               msg.Header.ID,
			Response:         true,
			Opcode:           msg.Header.Opcode,
			Authoritative:    true,
			RecursionDesired: msg.Header.RecursionDesired,
		},
		Questions: msg.Questions,
	}
	s.mu.RLock()
	zone := s.zoneFor(q.Name)
	if zone == "" {
		resp.Header.RCode = dnswire.RCodeRefused
		resp.Header.Authoritative = false
	} else if answers := s.records[recordKey{q.Name, q.Type}]; len(answers) > 0 {
		resp.Answers = append(resp.Answers, answers...)
	} else if s.nameExistsLocked(q.Name) {
		// NODATA: empty answer, SOA in authority.
		resp.Authority = append(resp.Authority, s.records[recordKey{zone, dnswire.TypeSOA}]...)
	} else {
		resp.Header.RCode = dnswire.RCodeNXDomain
		resp.Authority = append(resp.Authority, s.records[recordKey{zone, dnswire.TypeSOA}]...)
	}
	s.mu.RUnlock()

	// EDNS0: honor the client's advertised payload size and echo an OPT
	// record advertising ours (RFC 6891).
	size := msg.UDPSize()
	if size > 512 {
		resp.AddOPT(4096)
	}
	out, err := dnswire.EncodeUDPSize(resp, size)
	if err != nil {
		s.Stats.Errors.Add(1)
		return nil
	}
	s.Stats.Answered.Add(1)
	return out
}

// nameExistsLocked reports whether any record type exists at name.
func (s *Server) nameExistsLocked(name dnsname.Name) bool {
	for key := range s.records {
		if key.name == name {
			return true
		}
	}
	return false
}
