package zonedb_test

import (
	"fmt"

	"repro/internal/dates"
	"repro/internal/zonedb"
)

// Example records a rename event and asks the questions the detector
// asks: when did the new nameserver first appear, and what did the
// affected domain delegate to the day before?
func Example() {
	db := zonedb.New()
	renameDay := dates.FromYMD(2019, 7, 1)
	db.DomainAdded("net", "whitecounty.net", renameDay.AddYears(-3))
	db.DelegationAdded("net", "whitecounty.net", "ns2.internetemc.com", renameDay.AddYears(-3))
	db.DelegationRemoved("net", "whitecounty.net", "ns2.internetemc.com", renameDay)
	db.DelegationAdded("net", "whitecounty.net", "ns2.internetemc1aj2kdy.biz", renameDay)
	db.Close(dates.FromYMD(2020, 9, 30))

	first := db.View().NSFirstSeen("ns2.internetemc1aj2kdy.biz")
	fmt.Println("candidate first seen:", first)
	fmt.Println("delegation the day before:", db.View().NSOn("whitecounty.net", first-1))
	// Output:
	// candidate first seen: 2019-07-01
	// delegation the day before: [ns2.internetemc.com]
}
