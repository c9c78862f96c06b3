// Package registrar models domain registrars: the parties that provision
// and delete domains through registry EPP interfaces and that invented
// the "rename to delete" workaround this study measures.
//
// A Registrar carries a schedule of renaming idioms over time (registrars
// switched idioms repeatedly during the nine-year window, and again after
// the notification campaign) and implements the deletion pipeline of
// Figure 1: to delete an expired domain whose subordinate host objects
// are still referenced by other registrars' domains, rename each such
// host object out of the way — creating sacrificial nameservers — then
// delete the domain.
package registrar

import (
	"fmt"
	"math/rand"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/epp"
	"repro/internal/idioms"
	"repro/internal/registry"
)

// Phase is one period of a registrar's renaming-idiom schedule. Idiom ""
// means the registrar has no renaming practice in that period (deletions
// of domains with linked subordinate hosts are deferred).
type Phase struct {
	From  dates.Day
	Idiom idioms.ID
}

// Rename records one host-object rename performed during a deletion.
type Rename struct {
	Old   dnsname.Name
	New   dnsname.Name
	Idiom idioms.ID
	Day   dates.Day
}

// Registrar is one registrar account. Create with New.
type Registrar struct {
	id       epp.RegistrarID
	name     string
	schedule []Phase
	rng      *rand.Rand
}

// New creates a registrar. name should match the display names used in
// the paper's tables (it is what WHOIS reports). schedule must be in
// ascending From order; an empty schedule means no renaming idiom ever.
func New(id epp.RegistrarID, name string, rng *rand.Rand, schedule ...Phase) *Registrar {
	for i := 1; i < len(schedule); i++ {
		if schedule[i].From < schedule[i-1].From {
			panic(fmt.Sprintf("registrar %s: idiom schedule out of order", name))
		}
	}
	return &Registrar{id: id, name: name, schedule: schedule, rng: rng}
}

// Name returns the registrar's display name (as WHOIS reports it).
func (r *Registrar) Name() string { return r.name }

// IdiomOn returns the renaming idiom in effect on day, or nil.
func (r *Registrar) IdiomOn(day dates.Day) *idioms.Idiom {
	var current idioms.ID
	for _, p := range r.schedule {
		if p.From > day {
			break
		}
		current = p.Idiom
	}
	if current == "" {
		return nil
	}
	return idioms.Lookup(current)
}

// ErrNoIdiom is returned by DeleteDomain when a domain cannot be deleted
// because subordinate hosts are linked and the registrar has no renaming
// idiom in effect.
var ErrNoIdiom = fmt.Errorf("registrar: linked subordinate hosts and no renaming idiom")

// maxRenameAttempts bounds retries when a generated sacrificial name
// collides with an existing host object.
const maxRenameAttempts = 8

// DeleteDomain runs the deletion pipeline for an expired domain:
//
//  1. Clear the domain's own delegation.
//  2. For each subordinate host object: delete it if nothing links to it,
//     otherwise rename it per the idiom in effect (creating a sacrificial
//     nameserver).
//  3. Delete the now-unencumbered domain object.
//
// It returns the renames performed. On ErrNoIdiom the domain is left
// registered (its own delegation still cleared, matching a registrar
// parking an undeletable name).
func (r *Registrar) DeleteDomain(reg *registry.Registry, domain dnsname.Name, day dates.Day) ([]Rename, error) {
	repo := reg.Repository()
	if _, err := repo.DomainInfo(domain); err != nil {
		return nil, err
	}
	if err := reg.SetNS(r.id, domain, day); err != nil {
		return nil, fmt.Errorf("clearing delegation of %s: %w", domain, err)
	}
	subs := repo.SubordinateHosts(domain)
	var renames []Rename
	for _, h := range subs {
		linked := repo.LinkedDomains(h.Name)
		if len(linked) == 0 {
			if err := reg.DeleteHost(r.id, h.Name, day); err != nil {
				return renames, fmt.Errorf("deleting host %s: %w", h.Name, err)
			}
			continue
		}
		idiom := r.IdiomOn(day)
		if idiom == nil {
			return renames, ErrNoIdiom
		}
		// Capture the name now: RenameHost mutates the host object.
		oldName := h.Name
		newName, err := r.renameSacrificial(reg, idiom, oldName, day)
		if err != nil {
			return renames, err
		}
		renames = append(renames, Rename{Old: oldName, New: newName, Idiom: idiom.ID, Day: day})
	}
	if err := reg.DeleteDomain(r.id, domain, day); err != nil {
		return renames, fmt.Errorf("deleting domain %s: %w", domain, err)
	}
	return renames, nil
}

// renameSacrificial generates an idiom name and applies the rename,
// retrying on host-object collisions. Collisions with registered DOMAINS
// are deliberately not avoided: registrars did not check (the paper found
// 3,704 PLEASEDROPTHISHOST names pointing at already-registered domains).
func (r *Registrar) renameSacrificial(reg *registry.Registry, idiom *idioms.Idiom, host dnsname.Name, day dates.Day) (dnsname.Name, error) {
	repo := reg.Repository()
	var newName dnsname.Name
	for attempt := 0; ; attempt++ {
		newName = idiom.Rename(host, r.rng)
		newName = externalize(repo, idiom, newName)
		if !repo.HostExists(newName) {
			break
		}
		if attempt+1 >= maxRenameAttempts {
			return "", fmt.Errorf("registrar %s: could not find free sacrificial name for %s", r.name, host)
		}
	}
	if err := reg.RenameHost(r.id, host, newName, day); err != nil {
		return "", fmt.Errorf("renaming %s to %s: %w", host, newName, err)
	}
	return newName, nil
}

// fallbackTLDs are tried, in order, when a random-name idiom lands inside
// the repository performing the rename (where EPP would demand an existing
// superordinate domain). Registrars always ended up in a foreign TLD; the
// paper's GoDaddy/Enom ".biz unless already .biz, then .com" rule is this
// fallback observed from outside.
var fallbackTLDs = []dnsname.Name{"biz", "com", "info", "xyz"}

// externalize rewrites the TLD of a random-name sacrificial candidate so
// it is external to repo. Sink-style names are returned unchanged: their
// superordinate sink domain is expected to exist in-repository.
func externalize(repo *epp.Repository, idiom *idioms.Idiom, name dnsname.Name) dnsname.Name {
	if idiom.Sink != "" || !repo.Manages(name) {
		return name
	}
	reg, ok := dnsname.RegisteredDomain(name)
	if ok && repo.DomainExists(reg) {
		return name // internal but superordinate exists; rename is legal
	}
	for _, tld := range fallbackTLDs {
		if !repo.Manages(dnsname.Join("x", tld)) {
			base := name
			if i := len(name) - len(name.TLD()) - 1; i > 0 {
				base = name[:i]
			}
			return dnsname.Canonical(string(base) + "." + string(tld))
		}
	}
	return name
}

// RemediateDelegations implements the post-notification cleanup GoDaddy
// performed: for every domain this registrar sponsors that delegates to
// one of the given hijackable sacrificial nameservers, replace that
// delegation with a fresh name generated by the registrar's CURRENT
// (protected) idiom. Returns the number of domains updated.
func (r *Registrar) RemediateDelegations(reg *registry.Registry, sacrificial []dnsname.Name, day dates.Day) (int, error) {
	repo := reg.Repository()
	idiom := r.IdiomOn(day)
	if idiom == nil || idiom.Class == idioms.Hijackable {
		return 0, fmt.Errorf("registrar %s: no safe idiom in effect on %s", r.name, day)
	}
	updated := 0
	for _, ns := range sacrificial {
		// Renaming the host object is impossible once it is external
		// (§2.4), so remediation walks the linked domains instead.
		for _, domain := range repo.LinkedDomains(ns) {
			d, err := repo.DomainInfo(domain)
			if err != nil || d.Sponsor != r.id {
				continue
			}
			var replacement dnsname.Name
			for attempt := 0; ; attempt++ {
				replacement = idiom.Rename(ns, r.rng)
				if !repo.HostExists(replacement) {
					break
				}
				if attempt+1 >= maxRenameAttempts {
					return updated, fmt.Errorf("registrar %s: no free replacement name", r.name)
				}
			}
			if err := reg.CreateHost(r.id, replacement, day); err != nil {
				if epp.CodeOf(err) != epp.CodeObjectExists {
					return updated, err
				}
			}
			current := repo.NSNames(d)
			next := make([]dnsname.Name, 0, len(current))
			for _, cur := range current {
				if cur == ns {
					next = append(next, replacement)
				} else {
					next = append(next, cur)
				}
			}
			if err := reg.SetNS(r.id, domain, day, next...); err != nil {
				return updated, err
			}
			updated++
		}
	}
	return updated, nil
}
