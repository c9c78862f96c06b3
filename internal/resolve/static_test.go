package resolve

import (
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/zonedb"
)

func d(n int) dates.Day { return dates.Day(n) }

// buildDB fabricates a small longitudinal history:
//
//	provider.com has glue for ns1.provider.com on days 0-99.
//	victim.com delegates to ns1.provider.com from day 10.
//	On day 50 the host is renamed: victim.com moves to dropthishost-1.biz.
//	chained.net delegates to ns.child.org, whose domain child.org is
//	itself delegated to ns1.provider.com (resolvable via one level).
func buildDB() *zonedb.DB {
	db := zonedb.New()
	db.DomainAdded("com", "provider.com", d(0))
	db.GlueAdded("com", "ns1.provider.com", d(0))
	db.DelegationAdded("com", "provider.com", "ns1.provider.com", d(0))

	db.DomainAdded("com", "victim.com", d(10))
	db.DelegationAdded("com", "victim.com", "ns1.provider.com", d(10))
	db.DelegationRemoved("com", "victim.com", "ns1.provider.com", d(50))
	db.DelegationAdded("com", "victim.com", "dropthishost-1.biz", d(50))

	db.DomainAdded("org", "child.org", d(0))
	db.DelegationAdded("org", "child.org", "ns1.provider.com", d(0))
	db.DomainAdded("net", "chained.net", d(5))
	db.DelegationAdded("net", "chained.net", "ns.child.org", d(5))

	db.GlueRemoved("com", "ns1.provider.com", d(100))
	db.DelegationRemoved("com", "provider.com", "ns1.provider.com", d(100))
	db.DelegationRemoved("org", "child.org", "ns1.provider.com", d(100))
	db.Close(d(200))
	return db
}

func TestGlueMakesResolvable(t *testing.T) {
	s := NewStatic(buildDB().View())
	if !s.ResolvableOn("ns1.provider.com", d(10)) {
		t.Error("glue-backed NS should resolve")
	}
	if s.ResolvableOn("ns1.provider.com", d(150)) {
		t.Error("NS should stop resolving after glue removal")
	}
}

func TestDelegationChainResolvable(t *testing.T) {
	s := NewStatic(buildDB().View())
	// ns.child.org has no glue, but child.org is delegated to a
	// glue-backed NS: one-level chain.
	if !s.ResolvableOn("ns.child.org", d(10)) {
		t.Error("chained NS should resolve while parent path is live")
	}
	if s.ResolvableOn("ns.child.org", d(150)) {
		t.Error("chained NS should die with the parent path")
	}
}

func TestSacrificialUnresolvable(t *testing.T) {
	s := NewStatic(buildDB().View())
	if s.ResolvableOn("dropthishost-1.biz", d(60)) {
		t.Error("sacrificial NS should be unresolvable")
	}
	bad, first := s.UnresolvableAtFirstReference("dropthishost-1.biz")
	if !bad || first != d(50) {
		t.Errorf("UnresolvableAtFirstReference = %v, %v", bad, first)
	}
	bad, _ = s.UnresolvableAtFirstReference("ns1.provider.com")
	if bad {
		t.Error("glue-backed NS flagged as candidate")
	}
	bad, first = s.UnresolvableAtFirstReference("never-seen.biz")
	if bad || first != dates.None {
		t.Error("unknown NS should not be a candidate")
	}
}

func TestSelfDelegationLoopTerminates(t *testing.T) {
	db := zonedb.New()
	// a.com delegates to ns.b.com; b.com delegates to ns.a.com — a cycle
	// with no glue anywhere.
	db.DomainAdded("com", "a.com", d(0))
	db.DomainAdded("com", "b.com", d(0))
	db.DelegationAdded("com", "a.com", "ns.b.com", d(0))
	db.DelegationAdded("com", "b.com", "ns.a.com", d(0))
	db.Close(d(10))
	s := NewStatic(db.View())
	if s.ResolvableOn("ns.a.com", d(5)) || s.ResolvableOn("ns.b.com", d(5)) {
		t.Error("glueless cycle must be unresolvable")
	}
}

func TestSelfHostedWithGlue(t *testing.T) {
	db := zonedb.New()
	db.DomainAdded("com", "self.com", d(0))
	db.GlueAdded("com", "ns1.self.com", d(0))
	db.DelegationAdded("com", "self.com", "ns1.self.com", d(0))
	db.Close(d(10))
	s := NewStatic(db.View())
	if !s.ResolvableOn("ns1.self.com", d(5)) {
		t.Error("self-hosted with glue should resolve")
	}
}

func TestMemoizationConsistency(t *testing.T) {
	s := NewStatic(buildDB().View())
	a := s.ResolvableSpans("ns.child.org").TotalDays()
	b := s.ResolvableSpans("ns.child.org").TotalDays()
	if a != b {
		t.Errorf("memoized call changed answer: %d vs %d", a, b)
	}
}

func TestDepthLimit(t *testing.T) {
	db := zonedb.New()
	// A chain deeper than maxDepth: h0 <- h1 <- ... <- h6, glue only at
	// the deepest level.
	names := []string{"a.com", "b.org", "c.net", "d.info", "e.biz", "f.us", "g.xyz"}
	for i, n := range names {
		db.DomainAdded("x", dn(n), d(0))
		if i+1 < len(names) {
			db.DelegationAdded("x", dn(n), dn("ns."+names[i+1]), d(0))
		}
	}
	db.GlueAdded("x", dn("ns."+names[len(names)-1]), d(0))
	db.DelegationAdded("x", dn(names[len(names)-1]), dn("ns."+names[len(names)-1]), d(0))
	db.Close(d(10))
	s := NewStatic(db.View())
	// ns.a.com needs 6 hops; the resolver gives up (conservative).
	if s.ResolvableOn(dn("ns."+names[0]), d(5)) {
		t.Error("over-deep chain should be treated as unresolvable")
	}
	// Near the glue it still works.
	if !s.ResolvableOn(dn("ns."+names[5]), d(5)) {
		t.Error("shallow chain should resolve")
	}
}

func dn(s string) dnsname.Name { return dnsname.Name(s) }
