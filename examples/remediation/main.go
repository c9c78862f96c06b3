// Remediation reproduces the §7 storyline: it runs the full scenario
// twice — once with the notification campaign enabled and once without —
// and compares the outcomes, isolating what the outreach changed
// (Table 5's remediation-vs-organic comparison and Table 6's protected
// idioms).
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	const seed, scale = 11, 6

	with, err := riskybiz.RunContext(context.Background(), riskybiz.Options{Seed: seed, DomainsPerDay: scale})
	if err != nil {
		log.Fatal(err)
	}
	without, err := riskybiz.RunContext(context.Background(), riskybiz.Options{Seed: seed, DomainsPerDay: scale, DisableRemediation: true})
	if err != nil {
		log.Fatal(err)
	}

	t5w := with.Analysis.Table5(sim.NotificationDay, sim.FollowupDay)
	t5wo := without.Analysis.Table5(sim.NotificationDay, sim.FollowupDay)

	fmt.Println("Exposure around the notification campaign (Sep 2020 -> Feb 2021):")
	t := report.NewTable("scenario", "vuln NS before", "vuln NS after", "gross NS remediated", "organic baseline")
	t.AddRow("with outreach", t5w.Before.VulnerableNS, t5w.After.VulnerableNS, t5w.Remediated.NS, t5w.Organic.NS)
	t.AddRow("without outreach", t5wo.Before.VulnerableNS, t5wo.After.VulnerableNS, t5wo.Remediated.NS, t5wo.Organic.NS)
	fmt.Println(t.String())

	fmt.Println("Protected idioms adopted after outreach (Table 6):")
	t6 := with.Analysis.Table6()
	pt := report.NewTable("idiom", "registrar", "NS", "domains protected")
	for _, r := range t6.Rows {
		pt.AddRow(string(r.Idiom), r.Registrar, r.Nameservers, r.AffectedDomains)
	}
	pt.AddRow("TOTAL", "", t6.TotalNameservers, t6.TotalDomains)
	fmt.Println(pt.String())

	t6wo := without.Analysis.Table6()
	fmt.Printf("Without outreach the protected idioms never appear: %d protected NS.\n\n", t6wo.TotalNameservers)

	fmt.Println("Reading: the with-outreach run removes substantially more exposure")
	fmt.Println("than the organic baseline, and new renames land on sink domains or")
	fmt.Println("reserved infrastructure instead of registrable .biz names — the two")
	fmt.Println("effects the paper attributes to its disclosure (§7.1, §7.2).")
}
