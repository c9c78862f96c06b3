// Package registry models TLD registries: administrative entities that
// own one or more TLDs, are backed by exactly one EPP repository, and
// publish the TLD zones derived from that repository.
//
// The registry is the boundary where EPP object state becomes DNS-visible
// fact. Every mutation that changes published zone contents — a new
// delegation, a host rename silently rewriting NS records, glue appearing
// or vanishing — is reported to a Recorder as it happens, which is how the
// longitudinal zone database observes "daily zone files" without
// re-publishing half a million records every simulated day.
package registry

import (
	"net/netip"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/epp"
)

// Recorder observes zone-visible changes as the registry applies them.
// Implementations must not call back into the Registry.
type Recorder interface {
	// DelegationAdded records that domain began delegating to ns in zone.
	DelegationAdded(zone, domain, ns dnsname.Name, day dates.Day)
	// DelegationRemoved records that domain stopped delegating to ns.
	// The delegation was visible through day-1.
	DelegationRemoved(zone, domain, ns dnsname.Name, day dates.Day)
	// DomainAdded records that a domain object became registered.
	DomainAdded(zone, domain dnsname.Name, day dates.Day)
	// DomainRemoved records that a domain object was deleted.
	DomainRemoved(zone, domain dnsname.Name, day dates.Day)
	// GlueAdded records that host gained an in-zone address record.
	GlueAdded(zone, host dnsname.Name, day dates.Day)
	// GlueRemoved records that host lost its in-zone address records.
	GlueRemoved(zone, host dnsname.Name, day dates.Day)
}

// NopRecorder discards all events.
type NopRecorder struct{}

// DelegationAdded implements Recorder.
func (NopRecorder) DelegationAdded(_, _, _ dnsname.Name, _ dates.Day) {}

// DelegationRemoved implements Recorder.
func (NopRecorder) DelegationRemoved(_, _, _ dnsname.Name, _ dates.Day) {}

// DomainAdded implements Recorder.
func (NopRecorder) DomainAdded(_, _ dnsname.Name, _ dates.Day) {}

// DomainRemoved implements Recorder.
func (NopRecorder) DomainRemoved(_, _ dnsname.Name, _ dates.Day) {}

// GlueAdded implements Recorder.
func (NopRecorder) GlueAdded(_, _ dnsname.Name, _ dates.Day) {}

// GlueRemoved implements Recorder.
func (NopRecorder) GlueRemoved(_, _ dnsname.Name, _ dates.Day) {}

// Registry is one registry operator (e.g. Verisign) backed by one EPP
// repository.
type Registry struct {
	name string
	repo *epp.Repository
	rec  Recorder
}

// New creates a registry named name whose repository manages tlds. Events
// are reported to rec (use NopRecorder to discard).
func New(name string, rec Recorder, tlds ...dnsname.Name) *Registry {
	if rec == nil {
		rec = NopRecorder{}
	}
	return &Registry{
		name: name,
		repo: epp.NewRepository(name, tlds...),
		rec:  rec,
	}
}

// Name returns the registry operator name.
func (r *Registry) Name() string { return r.name }

// Repository exposes the backing EPP repository for read-only inspection.
func (r *Registry) Repository() *epp.Repository { return r.repo }

// TLDs returns the TLDs this registry operates.
func (r *Registry) TLDs() []dnsname.Name { return r.repo.TLDs() }

// zoneOf returns the TLD zone a name belongs to.
func zoneOf(name dnsname.Name) dnsname.Name { return name.TLD() }

// RegisterDomain provisions a new domain and emits its presence.
func (r *Registry) RegisterDomain(registrar epp.RegistrarID, name dnsname.Name, day, expiry dates.Day) error {
	if _, err := r.repo.CreateDomain(registrar, name, day, expiry); err != nil {
		return err
	}
	r.rec.DomainAdded(zoneOf(name), name, day)
	return nil
}

// CreateHost provisions a host object; internal hosts with addresses gain
// glue in their zone.
func (r *Registry) CreateHost(registrar epp.RegistrarID, name dnsname.Name, day dates.Day, addrs ...netip.Addr) error {
	h, err := r.repo.CreateHost(registrar, name, day, addrs...)
	if err != nil {
		return err
	}
	if !h.External() && len(h.Addrs) > 0 {
		r.rec.GlueAdded(zoneOf(name), name, day)
	}
	return nil
}

// SetNS replaces a domain's delegation, emitting edge diffs.
func (r *Registry) SetNS(registrar epp.RegistrarID, domain dnsname.Name, day dates.Day, hosts ...dnsname.Name) error {
	d, err := r.repo.DomainInfo(domain)
	if err != nil {
		return err
	}
	before := r.repo.NSNames(d)
	if err := r.repo.SetDomainNS(registrar, domain, hosts...); err != nil {
		return err
	}
	r.emitNSDiff(domain, before, hosts, day)
	return nil
}

func (r *Registry) emitNSDiff(domain dnsname.Name, before, after []dnsname.Name, day dates.Day) {
	zone := zoneOf(domain)
	old := make(map[dnsname.Name]bool, len(before))
	for _, ns := range before {
		old[ns] = true
	}
	next := make(map[dnsname.Name]bool, len(after))
	for _, ns := range after {
		next[ns] = true
	}
	for _, ns := range after {
		if !old[ns] {
			r.rec.DelegationAdded(zone, domain, ns, day)
		}
	}
	for _, ns := range before {
		if !next[ns] {
			r.rec.DelegationRemoved(zone, domain, ns, day)
		}
	}
}

// RenameHost renames a host object and emits the silent delegation
// rewrite for every linked domain — the sacrificial-nameserver mechanism.
func (r *Registry) RenameHost(registrar epp.RegistrarID, oldName, newName dnsname.Name, day dates.Day) error {
	h, err := r.repo.HostInfo(oldName)
	if err != nil {
		return err
	}
	hadGlue := !h.External() && len(h.Addrs) > 0
	linked := r.repo.LinkedDomains(oldName)
	if err := r.repo.RenameHost(registrar, oldName, newName); err != nil {
		return err
	}
	if hadGlue {
		r.rec.GlueRemoved(zoneOf(oldName), oldName, day)
	}
	if h2, err := r.repo.HostInfo(newName); err == nil && !h2.External() && len(h2.Addrs) > 0 {
		r.rec.GlueAdded(zoneOf(newName), newName, day)
	}
	for _, domain := range linked {
		zone := zoneOf(domain)
		r.rec.DelegationRemoved(zone, domain, oldName, day)
		r.rec.DelegationAdded(zone, domain, newName, day)
	}
	return nil
}

// DeleteHost removes an unlinked host object and its glue.
func (r *Registry) DeleteHost(registrar epp.RegistrarID, name dnsname.Name, day dates.Day) error {
	h, err := r.repo.HostInfo(name)
	if err != nil {
		return err
	}
	hadGlue := !h.External() && len(h.Addrs) > 0
	if err := r.repo.DeleteHost(registrar, name); err != nil {
		return err
	}
	if hadGlue {
		r.rec.GlueRemoved(zoneOf(name), name, day)
	}
	return nil
}

// DeleteDomain removes a domain object, emitting removal of its
// delegations and presence. Subordinate host objects still block deletion
// exactly as in EPP.
func (r *Registry) DeleteDomain(registrar epp.RegistrarID, name dnsname.Name, day dates.Day) error {
	d, err := r.repo.DomainInfo(name)
	if err != nil {
		return err
	}
	before := r.repo.NSNames(d)
	if err := r.repo.DeleteDomain(registrar, name); err != nil {
		return err
	}
	zone := zoneOf(name)
	for _, ns := range before {
		r.rec.DelegationRemoved(zone, name, ns, day)
	}
	r.rec.DomainRemoved(zone, name, day)
	return nil
}

// CascadeDeleteDomain applies the §7.3 protocol change: the domain, its
// subordinate host objects, and every delegation referencing them are
// removed in one operation, with all zone-visible changes published.
func (r *Registry) CascadeDeleteDomain(registrar epp.RegistrarID, name dnsname.Name, day dates.Day) error {
	d, err := r.repo.DomainInfo(name)
	if err != nil {
		return err
	}
	ownNS := r.repo.NSNames(d)
	var glueHosts []dnsname.Name
	for _, h := range r.repo.SubordinateHosts(name) {
		if !h.External() && len(h.Addrs) > 0 {
			glueHosts = append(glueHosts, h.Name)
		}
	}
	affected, err := r.repo.CascadeDeleteDomain(registrar, name)
	if err != nil {
		return err
	}
	zone := zoneOf(name)
	for _, ns := range ownNS {
		r.rec.DelegationRemoved(zone, name, ns, day)
	}
	for _, h := range glueHosts {
		r.rec.GlueRemoved(zone, h, day)
	}
	for domain, removed := range affected {
		dz := zoneOf(domain)
		for _, ns := range removed {
			r.rec.DelegationRemoved(dz, domain, ns, day)
		}
	}
	r.rec.DomainRemoved(zone, name, day)
	return nil
}

// RenewDomain extends a registration.
func (r *Registry) RenewDomain(registrar epp.RegistrarID, name dnsname.Name, newExpiry dates.Day) error {
	return r.repo.RenewDomain(registrar, name, newExpiry)
}

// Directory maps TLDs to the registry operating them. The detector uses
// it for the single-repository property: this mapping is public knowledge
// (IANA publishes it), not simulator ground truth.
type Directory struct {
	byTLD map[dnsname.Name]*Registry
}

// NewDirectory indexes the given registries by TLD.
func NewDirectory(registries ...*Registry) *Directory {
	d := &Directory{byTLD: make(map[dnsname.Name]*Registry)}
	for _, r := range registries {
		for _, tld := range r.TLDs() {
			d.byTLD[tld] = r
		}
	}
	return d
}

// RegistryFor returns the registry operating the TLD of name, or nil.
func (d *Directory) RegistryFor(name dnsname.Name) *Registry {
	return d.byTLD[name.TLD()]
}

// OperatorOf returns the operator name for a TLD, or "" when unknown.
func (d *Directory) OperatorOf(tld dnsname.Name) string {
	if r := d.byTLD[tld]; r != nil {
		return r.Name()
	}
	return ""
}
