// Package resolve determines nameserver resolvability.
//
// The static half implements the simplified static-resolution methodology
// of the paper's §3.2.1 (after Akiwate et al. 2020) as the point question
// the paper asks: from zone snapshots alone, does a nameserver name have
// a valid resolution path on one given day. It does when it has glue in
// its zone that day, or when its registered domain is that day delegated
// to a nameserver that itself (recursively, to a small depth) resolves
// that day. Chase holds that rule once; Static asks it of a sealed view,
// and the watch engine of the state it has built up to today.
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

// State is one day's zone facts as the chase reads them.
type State interface {
	// Glue reports whether name has glue that day.
	Glue(name dnsname.Name) bool
	// AppendNS appends to buf the nameservers the registered domain reg
	// is delegated to that day.
	AppendNS(buf []dnsname.Name, reg dnsname.Name) []dnsname.Name
}

// Chase is the delegation chase. An answer depends on the state and the
// name alone; the fields are scratch space one query reuses from the
// last, so a Chase serves one goroutine at a time. The zero value is
// ready to use.
type Chase struct {
	frontier []dnsname.Name
	next     []dnsname.Name
	parents  []dnsname.Name
	seen     map[dnsname.Name]struct{}
}

// Resolvable reports whether ns resolves in st: whether a name with glue
// lies within maxDepth-1 delegations of ns, each followed from a name to
// the nameservers its registered domain is delegated to. The chase is
// breadth-first and visits a name once, at its least distance, so a
// delegation back to a name already seen (itself included) bootstraps
// nothing, and a query over k names that all delegate to each other
// reads k names and k*k edges, not k^maxDepth.
func (c *Chase) Resolvable(st State, ns dnsname.Name) bool {
	if st.Glue(ns) {
		return true
	}
	if c.seen == nil {
		c.seen = make(map[dnsname.Name]struct{})
	}
	clear(c.seen)
	c.seen[ns] = struct{}{}
	c.frontier = append(c.frontier[:0], ns)
	for hop := 1; hop < maxDepth && len(c.frontier) > 0; hop++ {
		c.next = c.next[:0]
		for _, name := range c.frontier {
			reg, ok := dnsname.RegisteredDomain(name)
			if !ok {
				continue
			}
			c.parents = st.AppendNS(c.parents[:0], reg)
			for _, parent := range c.parents {
				if _, dup := c.seen[parent]; dup {
					continue
				}
				if st.Glue(parent) {
					return true
				}
				c.seen[parent] = struct{}{}
				c.next = append(c.next, parent)
			}
		}
		c.frontier, c.next = c.next, c.frontier
	}
	return false
}

// Static answers static resolvability against one published view of the
// longitudinal zone database, so every lookup is lock-free and pinned to
// one generation. Like its Chase, a Static serves one goroutine at a time.
type Static struct {
	on    viewOn
	chase Chase
}

// viewOn is a sealed view on one day, as a State.
type viewOn struct {
	v   *zonedb.View
	day dates.Day
}

func (o *viewOn) Glue(name dnsname.Name) bool { return o.v.GlueOn(name, o.day) }

func (o *viewOn) AppendNS(buf []dnsname.Name, reg dnsname.Name) []dnsname.Name {
	o.v.EachNSOn(reg, o.day, func(ns dnsname.Name) bool {
		buf = append(buf, ns)
		return true
	})
	return buf
}

// NewStatic returns a Static resolver over v, which must be sealed
// (zonedb.DB.Close) to resolve anything.
func NewStatic(v *zonedb.View) *Static {
	return &Static{on: viewOn{v: v}}
}

// ResolvableOn reports whether ns statically resolves on day: the chase
// over the view's glue and delegations of that day.
func (s *Static) ResolvableOn(ns dnsname.Name, day dates.Day) bool {
	s.on.day = day
	return s.chase.Resolvable(&s.on, ns)
}

// UnresolvableAtFirstReference reports whether ns was unresolvable on the
// first day any domain delegated to it — the candidate property of
// §3.2.1. The second return is that first-reference day (dates.None if ns
// never appeared).
func (s *Static) UnresolvableAtFirstReference(ns dnsname.Name) (bool, dates.Day) {
	first := s.on.v.NSFirstSeen(ns)
	if first == dates.None {
		return false, dates.None
	}
	return !s.ResolvableOn(ns, first), first
}
