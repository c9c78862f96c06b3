// Quickstart: run the full pipeline at small scale and print the
// headline numbers — how many domains the renaming practice exposed, and
// how many were actually hijacked.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	study, err := riskybiz.RunContext(context.Background(), riskybiz.Options{Seed: 7, DomainsPerDay: 6})
	if err != nil {
		log.Fatal(err)
	}

	funnel := study.Analysis.Funnel()
	fmt.Println("Detection funnel (§3.2):")
	fmt.Printf("  %d nameservers observed in nine years of zone data\n", funnel.TotalNameservers)
	fmt.Printf("  %d unresolvable at first reference (candidates)\n", funnel.Candidates)
	fmt.Printf("  %d registry test nameservers removed\n", funnel.TestNameservers)
	fmt.Printf("  %d single-repository violations removed\n", funnel.SingleRepoViolations)
	fmt.Printf("  %d classified as sacrificial nameservers\n\n", funnel.Sacrificial)

	t3 := study.Analysis.Table3()
	fmt.Println("Exposure and exploitation (Table 3):")
	fmt.Printf("  hijackable sacrificial NS: %d, hijacked: %d (%.1f%%)\n",
		t3.HijackableNS, t3.HijackedNS, 100*t3.NSFraction())
	fmt.Printf("  exposed domains: %d, hijacked: %d (%.1f%%)\n\n",
		t3.HijackableDomains, t3.HijackedDomains, 100*t3.DomainFraction())

	fmt.Println("The asymmetry above is the paper's core finding: hijackers")
	fmt.Println("register few sacrificial nameserver domains, but pick the ones")
	fmt.Println("serving the most victim domains.")

	nsCDF, domCDF := study.Analysis.Figure6()
	if domCDF.N() > 0 {
		fmt.Printf("\nTime to exploit (Figure 6): 50%% of eventually-hijacked domains")
		fmt.Printf(" were captured within %d days of exposure.\n", domCDF.Quantile(0.5))
	}
	_ = nsCDF
}
