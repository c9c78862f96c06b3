// Package resolve determines nameserver resolvability.
//
// The static half implements the simplified static-resolution methodology
// of the paper's §3.2.1 (after Akiwate et al. 2020) as the point question
// the paper asks: from zone snapshots alone, does a nameserver name have
// a valid resolution path on one given day. It does when it has glue in
// its zone that day, or when its registered domain is that day delegated
// to a nameserver that itself (recursively, to a small depth) resolves
// that day.
//
// The live half (client.go) is a stub resolver used by the controlled
// experiment to query the in-process authoritative server over UDP.
package resolve

import (
	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/zonedb"
)

// maxDepth bounds the delegation chase during static resolution: glue is
// read on the queried name and on names up to maxDepth-1 delegations
// away from it. Longer chains are treated as unresolvable, matching the
// conservative stance of the methodology.
const maxDepth = 4

// Static answers static resolvability against one published view of the
// longitudinal zone database, so every lookup is lock-free and pinned to
// one generation. An answer depends on the view, the name and the day
// alone; the fields below are scratch space one query reuses from the
// last, so a Static serves one goroutine at a time.
type Static struct {
	db       *zonedb.View
	frontier []dnsname.Name
	next     []dnsname.Name
	seen     map[dnsname.Name]struct{}
}

// NewStatic returns a Static resolver over v, which must be sealed
// (zonedb.DB.Close) to resolve anything.
func NewStatic(v *zonedb.View) *Static {
	return &Static{db: v, seen: make(map[dnsname.Name]struct{})}
}

// ResolvableOn reports whether ns statically resolves on day: whether a
// name with glue on day lies within maxDepth-1 delegations of ns, each
// followed from a name to the nameservers its registered domain is
// delegated to on day. The chase is breadth-first and visits a name once,
// at its least distance, so a delegation back to a name already seen
// (itself included) bootstraps nothing, and a query over k names that all
// delegate to each other reads k names and k*k edges, not k^maxDepth.
func (s *Static) ResolvableOn(ns dnsname.Name, day dates.Day) bool {
	if s.db.GlueOn(ns, day) {
		return true
	}
	clear(s.seen)
	s.seen[ns] = struct{}{}
	s.frontier = append(s.frontier[:0], ns)
	for hop := 1; hop < maxDepth && len(s.frontier) > 0; hop++ {
		s.next = s.next[:0]
		for _, name := range s.frontier {
			reg, ok := dnsname.RegisteredDomain(name)
			if !ok {
				continue
			}
			found := false
			s.db.EachNSOn(reg, day, func(parent dnsname.Name) bool {
				if _, dup := s.seen[parent]; dup {
					return true
				}
				if s.db.GlueOn(parent, day) {
					found = true
					return false
				}
				s.seen[parent] = struct{}{}
				s.next = append(s.next, parent)
				return true
			})
			if found {
				return true
			}
		}
		s.frontier, s.next = s.next, s.frontier
	}
	return false
}

// UnresolvableAtFirstReference reports whether ns was unresolvable on the
// first day any domain delegated to it — the candidate property of
// §3.2.1. The second return is that first-reference day (dates.None if ns
// never appeared).
func (s *Static) UnresolvableAtFirstReference(ns dnsname.Name) (bool, dates.Day) {
	first := s.db.NSFirstSeen(ns)
	if first == dates.None {
		return false, dates.None
	}
	return !s.ResolvableOn(ns, first), first
}
