package riskybiz_test

import (
	"context"
	"fmt"

	"repro"
)

// Example runs the full pipeline at a small scale and prints the
// headline selectivity result. The run is deterministic for a given
// seed, so the shape assertion below always holds.
func Example() {
	study, err := riskybiz.RunContext(context.Background(), riskybiz.Options{Seed: 7, DomainsPerDay: 4})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	t3 := study.Analysis.Table3()
	fmt.Println("hijackers registered a small share of nameservers:",
		t3.NSFraction() < 0.15)
	fmt.Println("but captured a much larger share of domains:",
		t3.DomainFraction() > 2*t3.NSFraction())
	// Output:
	// hijackers registered a small share of nameservers: true
	// but captured a much larger share of domains: true
}
