package resolve

import (
	"testing"

	"repro/internal/dnsname"
	"repro/internal/sim"
)

var benchUnresolvable int

// BenchmarkResolvableOnLive resolves every nameserver at its first
// reference, as candidate extraction does, over the view a simulated
// registry's events built and Close sealed: the view riskybiz detects on,
// whose delegations and glue are still open facts.
func BenchmarkResolvableOnLive(b *testing.B) {
	cfg := sim.DefaultConfig(4)
	cfg.Seed = 1
	w, err := sim.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
	v := w.ZoneDB().View()
	var names []dnsname.Name
	v.Nameservers(func(ns dnsname.Name) bool {
		names = append(names, ns)
		return true
	})
	s := NewStatic(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, ns := range names {
			if unresolvable, _ := s.UnresolvableAtFirstReference(ns); unresolvable {
				n++
			}
		}
		benchUnresolvable = n
	}
}
