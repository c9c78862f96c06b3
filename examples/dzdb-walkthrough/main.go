// Dzdb-walkthrough replays the paper's §3.2.3 worked example over the
// HTTP research API: it finds a sacrificial nameserver, queries the
// affected domain's history to locate the nameserver that was last seen
// the day before, applies the registered-domain substring criterion, and
// attributes the rename — exactly the sequence the paper illustrates
// with whitecounty.net and ns2.internetemc1aj2kdy.biz on
// dzdb.caida.org.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"repro"
	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dzdbapi"
	"repro/internal/idioms"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Simulate the ecosystem and serve its zone database over HTTP.
	ctx := context.Background()
	study, err := riskybiz.RunContext(ctx, riskybiz.Options{Seed: 5, DomainsPerDay: 5})
	if err != nil {
		return err
	}
	srv := httptest.NewServer(dzdbapi.New(study.World.ZoneDB()))
	defer srv.Close()
	client := &dzdbapi.Client{BaseURL: srv.URL, HTTPClient: http.DefaultClient}

	stats, err := client.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("zone database: %d domains, %d nameservers, zones %v\n\n",
		stats.Domains, stats.Nameservers, stats.Zones)

	// Pick a detected original-based sacrificial nameserver to walk
	// through (the detector output stands in for the paper's candidate
	// list).
	var target dnsname.Name
	var victim dnsname.Name
	for i := range study.Result.Sacrificial {
		s := &study.Result.Sacrificial[i]
		if s.Idiom == idioms.EnomRandom && len(s.Domains) > 0 {
			target = s.NS
			victim = s.Domains[0].Name
			break
		}
	}
	if target == "" {
		return fmt.Errorf("no Enom-style sacrificial nameserver in this run; try another seed")
	}
	fmt.Printf("candidate nameserver: %s\n", target)

	// Step 1: when did it first appear, and for which domains?
	nsResp, err := client.Nameserver(ctx, target, "", 0)
	if err != nil {
		return err
	}
	fmt.Printf("first seen %s, %d delegated domain(s), %d domain-days of exposure\n",
		nsResp.FirstSeen, nsResp.Summary.Domains, nsResp.Summary.DomainDays)

	// Step 2: the affected domain's nameserver history.
	domResp, err := client.Domain(ctx, victim)
	if err != nil {
		return err
	}
	firstSeen, _ := dates.Parse(nsResp.FirstSeen)
	fmt.Printf("\nnameserver history of %s:\n", victim)
	var original dnsname.Name
	for _, h := range domResp.NSHistory {
		fmt.Printf("  %-40s %v\n", h.Nameserver, h.Spans)
		// Step 3: which nameserver was last seen the day before?
		for _, sp := range h.Spans {
			last, _ := dates.Parse(sp.Last)
			if last == firstSeen-1 && idioms.MatchesOriginal(target, dnsname.Name(h.Nameserver)) {
				original = dnsname.Name(h.Nameserver)
			}
		}
	}
	if original == "" {
		return fmt.Errorf("no original nameserver matched; unexpected for this idiom")
	}
	reg, _ := dnsname.RegisteredDomain(original)
	registrar := study.World.WHOIS().RegistrarOn(reg, firstSeen-1)
	fmt.Printf("\nmatch: %s was renamed from %s\n", target, original)
	fmt.Printf("WHOIS: %s was sponsored by %q the day before the rename\n", reg, registrar)
	fmt.Printf("=> attributed to %s's random-name renaming idiom (§3.2.3)\n", registrar)
	return nil
}
