// Package epp implements an EPP object repository after RFC 5730 (EPP),
// RFC 5731 (domain mapping), and RFC 5732 (host mapping).
//
// A Repository holds domain objects and host objects for the set of TLD
// namespaces one registry backend manages (e.g. Verisign's repository
// backs .com, .net, .edu, and .gov together). The package enforces the
// object-relationship rules whose interaction produces the paper's
// vulnerability:
//
//   - A domain object cannot be deleted while subordinate host objects
//     exist (RFC 5731 §3.2.2).
//   - A host object cannot be deleted while domain objects delegate to it
//     (RFC 5732 §3.2.2).
//   - A host object may be RENAMED; internal names require an existing
//     superordinate domain, but names under a TLD the repository does not
//     manage are external: the repository "declares no authority" and the
//     rename is accepted without any existence check (RFC 5732 §1.1).
//   - Sponsorship isolation: only the sponsoring registrar may mutate an
//     object (RFC 5730 §2.9.3).
//
// Domain delegations reference host objects by repository object ID
// (ROID), mirroring production registry schemas. Renaming a host object
// therefore silently rewrites the published NS records of every linked
// domain — the mechanism behind sacrificial nameservers.
package epp

import (
	"fmt"
	"net/netip"
	"sort"

	"repro/internal/dates"
	"repro/internal/dnsname"
)

// RegistrarID identifies a registrar account at a registry.
type RegistrarID string

// ROID is a repository object identifier (RFC 5730 §2.8).
type ROID string

// ResultCode is an EPP result code (RFC 5730 §3).
type ResultCode int

// EPP result codes used by this repository.
const (
	CodeAuthorizationError   ResultCode = 2201
	CodeObjectExists         ResultCode = 2302
	CodeObjectDoesNotExist   ResultCode = 2303
	CodeStatusProhibits      ResultCode = 2304
	CodeAssociationProhibits ResultCode = 2305
	CodeParameterPolicy      ResultCode = 2306
)

// Error is an EPP command failure carrying its protocol result code.
type Error struct {
	Code ResultCode
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("epp: %d %s", e.Code, e.Msg) }

func errf(code ResultCode, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// CodeOf extracts the EPP result code from an error, or 0 if err is not an
// EPP error.
func CodeOf(err error) ResultCode {
	if e, ok := err.(*Error); ok {
		return e.Code
	}
	return 0
}

// Domain is a domain object (RFC 5731).
type Domain struct {
	Name    dnsname.Name
	ROID    ROID
	Sponsor RegistrarID
	Created dates.Day
	Expiry  dates.Day
	nsHosts []ROID // delegation targets, by host object
}

// Host is a host object (RFC 5732). Superordinate is the ROID of the
// in-repository parent domain, or "" for an external host.
type Host struct {
	Name          dnsname.Name
	ROID          ROID
	Sponsor       RegistrarID
	Created       dates.Day
	Superordinate ROID
	Addrs         []netip.Addr
}

// External reports whether the host name lies outside every namespace the
// repository manages.
func (h *Host) External() bool { return h.Superordinate == "" }

// Repository is an EPP object repository for one registry backend.
// The zero value is not usable; call NewRepository.
//
// Repository is not safe for concurrent use; the simulation drives each
// repository from a single goroutine.
type Repository struct {
	id   string
	tlds map[dnsname.Name]bool

	domains       map[dnsname.Name]*Domain
	domainsByROID map[ROID]*Domain
	hosts         map[dnsname.Name]*Host
	hostsByROID   map[ROID]*Host

	// linkedDomains[hostROID] is the set of domains delegating to the host.
	linkedDomains map[ROID]map[dnsname.Name]bool
	// subordinates[domainROID] is the set of host objects under the domain.
	subordinates map[ROID]map[ROID]bool

	nextROID int
}

// NewRepository creates a repository identified by id managing the given
// TLD namespaces.
func NewRepository(id string, tlds ...dnsname.Name) *Repository {
	r := &Repository{
		id:            id,
		tlds:          make(map[dnsname.Name]bool, len(tlds)),
		domains:       make(map[dnsname.Name]*Domain),
		domainsByROID: make(map[ROID]*Domain),
		hosts:         make(map[dnsname.Name]*Host),
		hostsByROID:   make(map[ROID]*Host),
		linkedDomains: make(map[ROID]map[dnsname.Name]bool),
		subordinates:  make(map[ROID]map[ROID]bool),
	}
	for _, tld := range tlds {
		r.tlds[tld] = true
	}
	return r
}

// ID returns the repository identifier.
func (r *Repository) ID() string { return r.id }

// TLDs returns the managed TLD namespaces in sorted order.
func (r *Repository) TLDs() []dnsname.Name {
	out := make([]dnsname.Name, 0, len(r.tlds))
	for tld := range r.tlds {
		out = append(out, tld)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Manages reports whether name falls under a TLD this repository manages.
func (r *Repository) Manages(name dnsname.Name) bool {
	return r.tlds[name.TLD()]
}

func (r *Repository) newROID(kind byte) ROID {
	r.nextROID++
	return ROID(fmt.Sprintf("%c%d-%s", kind, r.nextROID, r.id))
}

// superordinateOf returns the domain object an internal host name would be
// subordinate to, or nil if the registered domain does not exist.
func (r *Repository) superordinateOf(host dnsname.Name) *Domain {
	reg, ok := dnsname.RegisteredDomain(host)
	if !ok {
		return nil
	}
	return r.domains[reg]
}

// CreateDomain provisions a domain object sponsored by registrar, expiring
// on expiry. The name must be available and inside a managed namespace.
func (r *Repository) CreateDomain(registrar RegistrarID, name dnsname.Name, created, expiry dates.Day) (*Domain, error) {
	if !r.Manages(name) {
		return nil, errf(CodeParameterPolicy, "domain %s outside repository %s namespaces", name, r.id)
	}
	if reg, ok := dnsname.RegisteredDomain(name); !ok || reg != name {
		return nil, errf(CodeParameterPolicy, "domain %s is not a registrable name", name)
	}
	if _, exists := r.domains[name]; exists {
		return nil, errf(CodeObjectExists, "domain %s already exists", name)
	}
	d := &Domain{
		Name:    name,
		ROID:    r.newROID('D'),
		Sponsor: registrar,
		Created: created,
		Expiry:  expiry,
	}
	r.domains[name] = d
	r.domainsByROID[d.ROID] = d
	return d, nil
}

// DomainInfo returns the domain object for name, or an EPP 2303 error.
func (r *Repository) DomainInfo(name dnsname.Name) (*Domain, error) {
	d, ok := r.domains[name]
	if !ok {
		return nil, errf(CodeObjectDoesNotExist, "domain %s does not exist", name)
	}
	return d, nil
}

// DomainExists reports whether a domain object exists for name.
func (r *Repository) DomainExists(name dnsname.Name) bool {
	_, ok := r.domains[name]
	return ok
}

// HostInfo returns the host object for name, or an EPP 2303 error.
func (r *Repository) HostInfo(name dnsname.Name) (*Host, error) {
	h, ok := r.hosts[name]
	if !ok {
		return nil, errf(CodeObjectDoesNotExist, "host %s does not exist", name)
	}
	return h, nil
}

// HostExists reports whether a host object exists for name.
func (r *Repository) HostExists(name dnsname.Name) bool {
	_, ok := r.hosts[name]
	return ok
}

// CreateHost provisions a host object. Internal host names (inside a
// managed namespace) require an existing superordinate domain sponsored by
// the same registrar, and may carry glue addresses. External host names
// carry no addresses (RFC 5732 §1.1).
func (r *Repository) CreateHost(registrar RegistrarID, name dnsname.Name, created dates.Day, addrs ...netip.Addr) (*Host, error) {
	if _, exists := r.hosts[name]; exists {
		return nil, errf(CodeObjectExists, "host %s already exists", name)
	}
	h := &Host{
		Name:    name,
		ROID:    r.newROID('H'),
		Sponsor: registrar,
		Created: created,
	}
	if r.Manages(name) {
		super := r.superordinateOf(name)
		if super == nil {
			return nil, errf(CodeParameterPolicy, "superordinate domain of %s does not exist", name)
		}
		if super.Sponsor != registrar {
			return nil, errf(CodeAuthorizationError, "host %s: superordinate domain sponsored by %s", name, super.Sponsor)
		}
		h.Superordinate = super.ROID
		h.Addrs = append(h.Addrs, addrs...)
		r.subordinate(super.ROID)[h.ROID] = true
	} else if len(addrs) > 0 {
		return nil, errf(CodeParameterPolicy, "external host %s cannot carry addresses", name)
	}
	r.hosts[name] = h
	r.hostsByROID[h.ROID] = h
	return h, nil
}

func (r *Repository) subordinate(domainROID ROID) map[ROID]bool {
	m := r.subordinates[domainROID]
	if m == nil {
		m = make(map[ROID]bool)
		r.subordinates[domainROID] = m
	}
	return m
}

func (r *Repository) links(hostROID ROID) map[dnsname.Name]bool {
	m := r.linkedDomains[hostROID]
	if m == nil {
		m = make(map[dnsname.Name]bool)
		r.linkedDomains[hostROID] = m
	}
	return m
}

// DeleteHost removes a host object. It fails with EPP 2305 while any
// domain delegates to the host (RFC 5732 §3.2.2) and with 2201 when the
// caller does not sponsor the object.
func (r *Repository) DeleteHost(registrar RegistrarID, name dnsname.Name) error {
	h, ok := r.hosts[name]
	if !ok {
		return errf(CodeObjectDoesNotExist, "host %s does not exist", name)
	}
	if h.Sponsor != registrar {
		return errf(CodeAuthorizationError, "host %s sponsored by %s", name, h.Sponsor)
	}
	if n := len(r.linkedDomains[h.ROID]); n > 0 {
		return errf(CodeAssociationProhibits, "host %s linked by %d domain(s)", name, n)
	}
	if h.Superordinate != "" {
		delete(r.subordinates[h.Superordinate], h.ROID)
	}
	delete(r.hosts, name)
	delete(r.hostsByROID, h.ROID)
	delete(r.linkedDomains, h.ROID)
	return nil
}

// RenameHost changes a host object's name (RFC 5732 <host:update> with
// <host:chg><host:name>). The caller must sponsor the host. Rules:
//
//   - A rename to an internal name requires the new superordinate domain
//     to exist (and be sponsored by the caller).
//   - A rename to an EXTERNAL name — any TLD this repository does not
//     manage — is accepted with no existence check. This is the loophole
//     registrars exploit to create sacrificial nameservers.
//   - A host renamed to an external name loses its glue addresses.
//   - The new name must not collide with an existing host object.
//
// Every domain delegating to the host keeps its link: the published NS
// records of those domains change silently.
func (r *Repository) RenameHost(registrar RegistrarID, oldName, newName dnsname.Name) error {
	h, ok := r.hosts[oldName]
	if !ok {
		return errf(CodeObjectDoesNotExist, "host %s does not exist", oldName)
	}
	if h.Sponsor != registrar {
		return errf(CodeAuthorizationError, "host %s sponsored by %s", oldName, h.Sponsor)
	}
	if h.External() {
		// Production registries reject updates to external hosts: the
		// repository has no authority over the name.
		return errf(CodeStatusProhibits, "host %s is external and cannot be modified", oldName)
	}
	if _, exists := r.hosts[newName]; exists {
		return errf(CodeObjectExists, "host %s already exists", newName)
	}
	// Validate the destination fully before mutating anything: a failed
	// rename must leave the host object untouched.
	var newSuper *Domain
	if r.Manages(newName) {
		newSuper = r.superordinateOf(newName)
		if newSuper == nil {
			return errf(CodeParameterPolicy, "superordinate domain of %s does not exist", newName)
		}
		if newSuper.Sponsor != registrar {
			return errf(CodeAuthorizationError, "host %s: superordinate domain sponsored by %s", newName, newSuper.Sponsor)
		}
	}
	// Detach from the old superordinate and attach to the new one.
	if h.Superordinate != "" {
		delete(r.subordinates[h.Superordinate], h.ROID)
		h.Superordinate = ""
	}
	if newSuper != nil {
		h.Superordinate = newSuper.ROID
		r.subordinate(newSuper.ROID)[h.ROID] = true
	} else {
		// External namespace: "the repository declares no authority over it
		// and lets the rename take place." Glue cannot follow.
		h.Addrs = nil
	}
	delete(r.hosts, oldName)
	h.Name = newName
	r.hosts[newName] = h
	return nil
}

// DeleteDomain removes a domain object. It fails with EPP 2305 while
// subordinate host objects exist (RFC 5731 §3.2.2) and with 2201 when the
// caller does not sponsor the object. Delegations from OTHER domains to
// this domain's hosts do not block deletion — only the host objects do —
// which is precisely why registrars rename them first.
func (r *Repository) DeleteDomain(registrar RegistrarID, name dnsname.Name) error {
	d, ok := r.domains[name]
	if !ok {
		return errf(CodeObjectDoesNotExist, "domain %s does not exist", name)
	}
	if d.Sponsor != registrar {
		return errf(CodeAuthorizationError, "domain %s sponsored by %s", name, d.Sponsor)
	}
	if n := len(r.subordinates[d.ROID]); n > 0 {
		return errf(CodeAssociationProhibits, "domain %s has %d subordinate host object(s)", name, n)
	}
	// Unlink the domain's own outbound delegations.
	for _, roid := range d.nsHosts {
		delete(r.linkedDomains[roid], name)
	}
	delete(r.domains, name)
	delete(r.domainsByROID, d.ROID)
	delete(r.subordinates, d.ROID)
	return nil
}

// CascadeDeleteDomain implements the paper's proposed EPP change (§7.3):
// deleting a domain also removes every reference to its subordinate host
// objects — the delegations of OTHER domains included — and then the
// host objects themselves, so no dangling rename is ever needed. The
// sponsoring-registrar check still applies to the domain; the removal of
// foreign delegations is the protocol change (today EPP's isolation rule
// forbids exactly this, which is why sacrificial nameservers exist).
//
// Affected returns the domains whose delegations were trimmed, so the
// registry layer can publish the change.
func (r *Repository) CascadeDeleteDomain(registrar RegistrarID, name dnsname.Name) (affected map[dnsname.Name][]dnsname.Name, err error) {
	d, ok := r.domains[name]
	if !ok {
		return nil, errf(CodeObjectDoesNotExist, "domain %s does not exist", name)
	}
	if d.Sponsor != registrar {
		return nil, errf(CodeAuthorizationError, "domain %s sponsored by %s", name, d.Sponsor)
	}
	affected = make(map[dnsname.Name][]dnsname.Name)
	// Remove every delegation pointing at a subordinate host, then the
	// hosts themselves.
	for hostROID := range r.subordinates[d.ROID] {
		h := r.hostsByROID[hostROID]
		if h == nil {
			continue
		}
		for linked := range r.linkedDomains[hostROID] {
			ld := r.domains[linked]
			if ld == nil {
				continue
			}
			kept := ld.nsHosts[:0]
			for _, roid := range ld.nsHosts {
				if roid != hostROID {
					kept = append(kept, roid)
				}
			}
			ld.nsHosts = kept
			affected[linked] = append(affected[linked], h.Name)
		}
		delete(r.hosts, h.Name)
		delete(r.hostsByROID, hostROID)
		delete(r.linkedDomains, hostROID)
	}
	delete(r.subordinates, d.ROID)
	// Finally, the domain itself (its own outbound links first).
	for _, roid := range d.nsHosts {
		delete(r.linkedDomains[roid], name)
	}
	delete(affected, name) // the dying domain's own trimmed delegation is moot
	delete(r.domains, name)
	delete(r.domainsByROID, d.ROID)
	return affected, nil
}

// SetDomainNS replaces the delegation of a domain with the given host
// names. Every host must exist as a host object (RFC 5731 §1.1). Only the
// sponsoring registrar may change the delegation.
func (r *Repository) SetDomainNS(registrar RegistrarID, name dnsname.Name, hosts ...dnsname.Name) error {
	d, ok := r.domains[name]
	if !ok {
		return errf(CodeObjectDoesNotExist, "domain %s does not exist", name)
	}
	if d.Sponsor != registrar {
		return errf(CodeAuthorizationError, "domain %s sponsored by %s", name, d.Sponsor)
	}
	roids := make([]ROID, 0, len(hosts))
	for _, hn := range hosts {
		h, ok := r.hosts[hn]
		if !ok {
			return errf(CodeAssociationProhibits, "host %s does not exist", hn)
		}
		roids = append(roids, h.ROID)
	}
	for _, roid := range d.nsHosts {
		delete(r.linkedDomains[roid], name)
	}
	d.nsHosts = roids
	for _, roid := range roids {
		r.links(roid)[name] = true
	}
	return nil
}

// RenewDomain extends a domain's expiry date.
func (r *Repository) RenewDomain(registrar RegistrarID, name dnsname.Name, newExpiry dates.Day) error {
	d, ok := r.domains[name]
	if !ok {
		return errf(CodeObjectDoesNotExist, "domain %s does not exist", name)
	}
	if d.Sponsor != registrar {
		return errf(CodeAuthorizationError, "domain %s sponsored by %s", name, d.Sponsor)
	}
	if newExpiry <= d.Expiry {
		return errf(CodeParameterPolicy, "renewal must extend expiry")
	}
	d.Expiry = newExpiry
	return nil
}

// TransferDomain moves sponsorship of a domain to another registrar.
func (r *Repository) TransferDomain(name dnsname.Name, to RegistrarID) error {
	d, ok := r.domains[name]
	if !ok {
		return errf(CodeObjectDoesNotExist, "domain %s does not exist", name)
	}
	d.Sponsor = to
	return nil
}

// NSNames returns the current delegation of d as host names.
func (r *Repository) NSNames(d *Domain) []dnsname.Name {
	out := make([]dnsname.Name, 0, len(d.nsHosts))
	for _, roid := range d.nsHosts {
		if h := r.hostsByROID[roid]; h != nil {
			out = append(out, h.Name)
		}
	}
	return out
}

// LinkedDomains returns the names of domains delegating to the host, in
// sorted order.
func (r *Repository) LinkedDomains(host dnsname.Name) []dnsname.Name {
	h, ok := r.hosts[host]
	if !ok {
		return nil
	}
	set := r.linkedDomains[h.ROID]
	out := make([]dnsname.Name, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SubordinateHosts returns the host objects subordinate to domain, sorted.
func (r *Repository) SubordinateHosts(domain dnsname.Name) []*Host {
	d, ok := r.domains[domain]
	if !ok {
		return nil
	}
	var out []*Host
	for roid := range r.subordinates[d.ROID] {
		if h := r.hostsByROID[roid]; h != nil {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Domains iterates all domain objects in unspecified order.
func (r *Repository) Domains(fn func(*Domain) bool) {
	for _, d := range r.domains {
		if !fn(d) {
			return
		}
	}
}

// Hosts iterates all host objects in unspecified order.
func (r *Repository) Hosts(fn func(*Host) bool) {
	for _, h := range r.hosts {
		if !fn(h) {
			return
		}
	}
}

// NumDomains returns the number of domain objects.
func (r *Repository) NumDomains() int { return len(r.domains) }
