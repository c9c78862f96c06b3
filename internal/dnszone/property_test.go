package dnszone

import (
	"bufio"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
)

// TestWriteReadPropertyRandomSnapshots round-trips randomly generated
// snapshots through the master-file codec.
func TestWriteReadPropertyRandomSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	tlds := []string{"com", "net", "org", "biz"}
	for trial := 0; trial < 100; trial++ {
		zone := dnsname.Name(tlds[rng.Intn(len(tlds))])
		snap := NewSnapshot(zone, dates.Day(rng.Intn(5000)))
		nDomains := 1 + rng.Intn(6)
		for i := 0; i < nDomains; i++ {
			domain := dnsname.Name(labels[rng.Intn(len(labels))] + string(rune('a'+i)) + "." + string(zone))
			nNS := 1 + rng.Intn(3)
			var ns []dnsname.Name
			for j := 0; j < nNS; j++ {
				// Mix of in-zone and foreign nameservers.
				if rng.Intn(2) == 0 {
					ns = append(ns, dnsname.Join("ns"+string(rune('1'+j)), domain))
				} else {
					ns = append(ns, dnsname.Name("ns1."+labels[rng.Intn(len(labels))]+".info"))
				}
			}
			snap.AddDelegation(domain, ns...)
			for _, h := range ns {
				if h.IsSubdomainOf(zone) && rng.Intn(2) == 0 {
					var b [4]byte
					b[0], b[1] = 198, 51
					b[2], b[3] = byte(rng.Intn(250)), byte(1+rng.Intn(250))
					snap.AddGlue(h, netip.AddrFrom4(b))
				}
			}
		}
		snap.Sort()

		var sb strings.Builder
		if err := snap.Write(&sb); err != nil {
			t.Fatalf("trial %d: Write: %v", trial, err)
		}
		back, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("trial %d: Read: %v\n%s", trial, err, sb.String())
		}
		back.Sort()
		if back.Zone != snap.Zone || back.Date != snap.Date {
			t.Fatalf("trial %d: metadata mismatch", trial)
		}
		if !reflect.DeepEqual(normalize(back.Delegations), normalize(snap.Delegations)) {
			t.Fatalf("trial %d: delegations mismatch:\n got %+v\nwant %+v",
				trial, back.Delegations, snap.Delegations)
		}
		if !reflect.DeepEqual(back.Glue, snap.Glue) {
			t.Fatalf("trial %d: glue mismatch", trial)
		}
	}
}

// normalize merges duplicate-owner delegations the way Read coalesces
// them, so structurally equivalent snapshots compare equal.
func normalize(in []Delegation) map[dnsname.Name][]dnsname.Name {
	out := make(map[dnsname.Name][]dnsname.Name)
	for _, d := range in {
		out[d.Domain] = append(out[d.Domain], d.Nameservers...)
	}
	return out
}

// writeReference is Write as it was before it appended: fmt through a
// bufio.Writer.
func writeReference(s *Snapshot) string {
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	fmt.Fprintf(bw, "; zone %s snapshot %s\n", s.Zone, s.Date)
	fmt.Fprintf(bw, "$ORIGIN %s.\n", s.Zone)
	rel := func(n dnsname.Name) string {
		if n == s.Zone {
			return "@"
		}
		if n.IsSubdomainOf(s.Zone) {
			return strings.TrimSuffix(string(n), "."+string(s.Zone))
		}
		return string(n) + "."
	}
	for _, d := range s.Delegations {
		for _, ns := range d.Nameservers {
			fmt.Fprintf(bw, "%s %d IN NS %s.\n", rel(d.Domain), 86400, ns)
		}
	}
	for _, g := range s.Glue {
		typ := "A"
		if g.Addr.Is6() {
			typ = "AAAA"
		}
		fmt.Fprintf(bw, "%s %d IN %s %s\n", rel(g.Host), 86400, typ, g.Addr)
	}
	bw.Flush()
	return sb.String()
}

// TestWriteMatchesReference holds the append-based Write to the fmt one
// on random snapshots: owners at, inside and outside the zone, IPv4,
// IPv6 and IPv4-mapped glue, days before 0000 and after 9999.
func TestWriteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []dnsname.Name{"com", "a.com", "ns1.a.com", "xcom", "b.net", "ns.b.net", "net", "a.b.c.com"}
	addrs := []netip.Addr{netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("2001:db8::2"),
		netip.MustParseAddr("::ffff:198.51.100.7"), netip.MustParseAddr("fe80::1%eth0")}
	days := []dates.Day{0, dates.FromYMD(2016, 7, 15), dates.FromYMD(-40, 1, 1), dates.FromYMD(12345, 6, 7), dates.None}
	for trial := 0; trial < 300; trial++ {
		s := NewSnapshot(names[rng.Intn(len(names))], days[rng.Intn(len(days))])
		for i := rng.Intn(5); i > 0; i-- {
			var ns []dnsname.Name
			for j := rng.Intn(4); j > 0; j-- {
				ns = append(ns, names[rng.Intn(len(names))])
			}
			s.AddDelegation(names[rng.Intn(len(names))], ns...)
		}
		for i := rng.Intn(4); i > 0; i-- {
			s.AddGlue(names[rng.Intn(len(names))], addrs[rng.Intn(len(addrs))])
		}
		var sb strings.Builder
		if err := s.Write(&sb); err != nil {
			t.Fatal(err)
		}
		if got, want := sb.String(), writeReference(s); got != want {
			t.Fatalf("trial %d: Write wrote\n%s\nwant\n%s", trial, got, want)
		}
		if got := string(s.AppendTo([]byte("x"))); got != "x"+sb.String() {
			t.Fatalf("trial %d: AppendTo does not append what Write writes", trial)
		}
	}
}
