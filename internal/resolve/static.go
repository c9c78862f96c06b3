// Package resolve determines nameserver resolvability.
//
// The static half implements the simplified static-resolution methodology
// of the paper's §3.2.1 (after Akiwate et al. 2020): from zone snapshots
// alone, derive the day ranges during which a nameserver name has a valid
// resolution path. A nameserver resolves on a day when it has glue in its
// zone, or when its registered domain is delegated to nameservers that
// themselves (recursively, to a small depth) resolve.
//
// The live half (client.go) is a stub resolver used by the controlled
// experiment to query the in-process authoritative server over UDP.
package resolve

import (
	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/zonedb"
)

// maxDepth bounds the delegation chase during static resolution. Chains
// deeper than this are treated as unresolvable, matching the conservative
// stance of the methodology.
const maxDepth = 4

// Static computes static resolvability against one published view of the
// longitudinal zone database, so every lookup is lock-free and pinned to
// one generation. It memoizes per-nameserver results, so one instance
// should be reused across the whole detection run.
type Static struct {
	db    *zonedb.View
	memo  map[dnsname.Name]*interval.Set
	inRun map[dnsname.Name]bool
}

// NewStatic returns a Static resolver over v, which must be sealed
// (zonedb.DB.Close) to resolve anything.
func NewStatic(v *zonedb.View) *Static {
	return &Static{
		db:    v,
		memo:  make(map[dnsname.Name]*interval.Set),
		inRun: make(map[dnsname.Name]bool),
	}
}

// ResolvableSpans returns the set of days on which ns has a valid static
// resolution path. The returned set is owned by the resolver; callers
// must not modify it.
func (s *Static) ResolvableSpans(ns dnsname.Name) *interval.Set {
	return s.spans(ns, 0)
}

func (s *Static) spans(ns dnsname.Name, depth int) *interval.Set {
	if cached, ok := s.memo[ns]; ok {
		return cached
	}
	if depth >= maxDepth || s.inRun[ns] {
		empty := &interval.Set{}
		return empty
	}
	s.inRun[ns] = true
	defer delete(s.inRun, ns)

	result := &interval.Set{}
	// Path 1: in-zone glue.
	if g := s.db.GlueSpans(ns); g != nil {
		*result = g.Clone()
	}
	// Path 2: the registered domain of ns is delegated to nameservers
	// that themselves resolve: ns resolves on days when both hold.
	reg, ok := dnsname.RegisteredDomain(ns)
	if ok {
		for parentNS, edgeSpans := range s.db.NSHistory(reg) {
			if parentNS == ns {
				continue // self-delegation without glue cannot bootstrap
			}
			parentResolvable := s.spans(parentNS, depth+1)
			usable := edgeSpans.Intersect(parentResolvable)
			if !usable.Empty() {
				merged := result.Union(&usable)
				*result = merged
			}
		}
	}
	// Memoize only top-level results: deeper calls are depth-truncated
	// views that would poison the cache.
	if depth == 0 {
		s.memo[ns] = result
	}
	return result
}

// ResolvableOn reports whether ns statically resolves on day.
func (s *Static) ResolvableOn(ns dnsname.Name, day dates.Day) bool {
	return s.ResolvableSpans(ns).Contains(day)
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
