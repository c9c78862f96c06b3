package epp

import (
	"testing"
)

func TestCascadeDeleteRemovesForeignDelegations(t *testing.T) {
	r := setupFooBar(t)
	affected, err := r.CascadeDeleteDomain("A", "foo.com")
	if err != nil {
		t.Fatal(err)
	}
	// bar.com's delegation to ns2.foo.com was trimmed.
	if got := affected["bar.com"]; len(got) != 1 || got[0] != "ns2.foo.com" {
		t.Fatalf("affected = %+v", affected)
	}
	if r.DomainExists("foo.com") {
		t.Error("foo.com should be gone")
	}
	if r.HostExists("ns1.foo.com") || r.HostExists("ns2.foo.com") {
		t.Error("subordinate hosts should be gone")
	}
	d, err := r.DomainInfo("bar.com")
	if err != nil {
		t.Fatal(err)
	}
	if ns := r.NSNames(d); len(ns) != 0 {
		t.Fatalf("bar.com delegation not trimmed: %v", ns)
	}
	// No dangling references remain anywhere.
	for _, h := range r.hosts {
		t.Errorf("unexpected surviving host %s", h.Name)
	}
}

func TestCascadeDeleteSponsorship(t *testing.T) {
	r := setupFooBar(t)
	if _, err := r.CascadeDeleteDomain("B", "foo.com"); CodeOf(err) != CodeAuthorizationError {
		t.Fatalf("err = %v", err)
	}
	if _, err := r.CascadeDeleteDomain("A", "ghost.com"); CodeOf(err) != CodeObjectDoesNotExist {
		t.Fatalf("err = %v", err)
	}
	// The failed attempts changed nothing.
	if !r.DomainExists("foo.com") || !r.HostExists("ns2.foo.com") {
		t.Error("failed cascade mutated state")
	}
}

func TestCascadeDeleteKeepsUnrelatedObjects(t *testing.T) {
	r := setupFooBar(t)
	if _, err := r.CreateDomain("C", "other.com", day0, expiry); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateHost("C", "ns1.other.com", day0, addr); err != nil {
		t.Fatal(err)
	}
	if err := r.SetDomainNS("C", "other.com", "ns1.other.com"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CascadeDeleteDomain("A", "foo.com"); err != nil {
		t.Fatal(err)
	}
	if !r.DomainExists("other.com") || !r.HostExists("ns1.other.com") {
		t.Error("cascade touched unrelated objects")
	}
	d, _ := r.DomainInfo("other.com")
	if ns := r.NSNames(d); len(ns) != 1 {
		t.Errorf("unrelated delegation changed: %v", ns)
	}
}

func TestCascadeDeleteDomainWithoutHosts(t *testing.T) {
	r := verisign()
	if _, err := r.CreateDomain("A", "plain.com", day0, expiry); err != nil {
		t.Fatal(err)
	}
	affected, err := r.CascadeDeleteDomain("A", "plain.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 0 {
		t.Fatalf("affected = %+v", affected)
	}
	if r.DomainExists("plain.com") {
		t.Error("domain should be gone")
	}
}
