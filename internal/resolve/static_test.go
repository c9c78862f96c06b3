package resolve

import (
	"fmt"
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

// TestRepeatableAcrossQueries: a query leaves nothing behind that a later
// one can read — the same question gets the same answer whatever was asked
// in between, on a resolver that has seen the whole table and on a fresh
// one.
func TestRepeatableAcrossQueries(t *testing.T) {
	v := buildDB().View()
	names := []dnsname.Name{"ns.child.org", "dropthishost-1.biz", "ns1.provider.com", "never-seen.biz"}
	days := []dates.Day{d(10), d(60), d(150)}
	s := NewStatic(v)
	for round := 0; round < 2; round++ {
		for _, ns := range names {
			for _, day := range days {
				if got, want := s.ResolvableOn(ns, day), NewStatic(v).ResolvableOn(ns, day); got != want {
					t.Errorf("round %d: ResolvableOn(%s, %s) = %v on a used resolver, %v on a fresh one", round, ns, day, got, want)
				}
			}
		}
	}
}

// TestStrictDepthWhateverTheOrder: six glueless nameservers in a chain
// that ends in one with glue, and a glueless three-cycle. A name at most
// three delegations from the glue resolves, one four or more away does
// not, no member of the cycle does, and none of it depends on which end
// of the chain is asked first or on the order Go walks its maps in.
func TestStrictDepthWhateverTheOrder(t *testing.T) {
	chain := []string{"a.com", "b.org", "c.net", "d.info", "e.biz", "f.us", "g.xyz"}
	cycle := []string{"p.com", "q.org", "r.net"}
	db := zonedb.New()
	for i, n := range chain {
		db.DomainAdded("x", dn(n), d(0))
		if i+1 < len(chain) {
			db.DelegationAdded("x", dn(n), dn("ns."+chain[i+1]), d(0))
		}
	}
	glued := len(chain) - 1
	db.GlueAdded("x", dn("ns."+chain[glued]), d(0))
	for i, n := range cycle {
		db.DomainAdded("x", dn(n), d(0))
		db.DelegationAdded("x", dn(n), dn("ns."+cycle[(i+1)%len(cycle)]), d(0))
	}
	db.Close(d(10))
	v := db.View()

	check := func(s *Static, i int) {
		t.Helper()
		want := glued-i < maxDepth
		if got := s.ResolvableOn(dn("ns."+chain[i]), d(5)); got != want {
			t.Errorf("ns.%s, %d delegations from the glue: resolvable = %v, want %v", chain[i], glued-i, got, want)
		}
	}
	for run := 0; run < 20; run++ {
		up, down := NewStatic(v), NewStatic(v)
		for i := range chain {
			check(up, i)
			check(down, len(chain)-1-i)
		}
		for _, n := range cycle {
			if up.ResolvableOn(dn("ns."+n), d(5)) {
				t.Errorf("ns.%s sits on a glueless cycle and resolves", n)
			}
		}
	}
}

// TestMeshCostIsBounded: k glueless nameservers whose domains all
// delegate to all of them. A chase that walked every path would make
// k^maxDepth visits (2.5e9 here); visiting a name once makes k.
func TestMeshCostIsBounded(t *testing.T) {
	const k = 224
	db := zonedb.New()
	for i := 0; i < k; i++ {
		dom := dn(fmt.Sprintf("m%d.com", i))
		db.DomainAdded("com", dom, d(0))
		for j := 0; j < k; j++ {
			db.DelegationAdded("com", dom, dn(fmt.Sprintf("ns.m%d.com", j)), d(0))
		}
	}
	db.Close(d(10))
	if NewStatic(db.View()).ResolvableOn("ns.m0.com", d(5)) {
		t.Error("a glueless mesh resolves")
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
