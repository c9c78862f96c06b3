// Command zonedump writes the reconstructed zone file of one TLD on one
// day in master-file format — the equivalent of pulling a daily
// snapshot out of the longitudinal zone database. The database is the
// segment file `riskybiz -save-data` writes (PREFIX.dzdb).
//
// Usage:
//
//	riskybiz -scale 6 -seed 1 -only funnel -save-data dataset
//	zonedump -load dataset.dzdb -zone biz -date 2016-07-15
//
// With -diff, it instead prints what changed on DAY relative to the day
// before — every delegation, registration, and glue record that
// appeared or vanished — using the same per-day delta feed riskywatchd
// consumes:
//
//	zonedump -load dataset.dzdb -diff 2016-07-15
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/obs"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
	"repro/internal/zonedb/segment"
)

func main() {
	zone := flag.String("zone", "com", "TLD zone to dump")
	date := flag.String("date", "2016-07-15", "snapshot date (YYYY-MM-DD)")
	diff := flag.String("diff", "", "print the change set for this day (YYYY-MM-DD) instead of a snapshot")
	load := flag.String("load", "", "the zone DB to read: a segment file (riskybiz -save-data's PREFIX.dzdb); required")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.Version())
		return
	}

	if *load == "" {
		log.Fatal("zonedump: -load is required (write one with riskybiz -save-data PREFIX)")
	}
	day, err := dates.Parse(*date)
	if err != nil {
		log.Fatalf("zonedump: %v", err)
	}
	z, err := dnsname.Parse(*zone)
	if err != nil {
		log.Fatalf("zonedump: %v", err)
	}
	db, err := segment.ReadFile(*load)
	if err != nil {
		log.Fatalf("zonedump: %v", err)
	}
	if *diff != "" {
		if err := printDiff(db, *diff); err != nil {
			log.Fatalf("zonedump: %v", err)
		}
		return
	}
	if err := db.View().SnapshotOn(z, day).Write(os.Stdout); err != nil {
		log.Fatalf("zonedump: %v", err)
	}
}

// printDiff emits the day's change set, one event per line, in the
// order the watch engine applies them: removals first, then additions.
func printDiff(db *zonedb.DB, date string) error {
	day, err := dates.Parse(date)
	if err != nil {
		return err
	}
	idx, err := delta.Build(db.View())
	if err != nil {
		return err
	}
	dd := idx.Day(day)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "; delta for %s (history %s .. %s, %d changes)\n",
		day, idx.First(), idx.Last(), dd.Changes())
	emit := func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
	}
	for _, e := range dd.EdgesRemoved {
		emit("-ns\t%s\t%s", e.Domain, e.NS)
	}
	for _, d := range dd.DomainsRemoved {
		emit("-domain\t%s", d)
	}
	for _, g := range dd.GlueRemoved {
		emit("-glue\t%s", g)
	}
	for _, e := range dd.EdgesAdded {
		emit("+ns\t%s\t%s", e.Domain, e.NS)
	}
	for _, d := range dd.DomainsAdded {
		emit("+domain\t%s", d)
	}
	for _, g := range dd.GlueAdded {
		emit("+glue\t%s", g)
	}
	return nil
}
