// Command zonedump runs the ecosystem simulation and writes the
// reconstructed zone file of one TLD on one day in master-file format —
// the equivalent of pulling a daily snapshot out of the longitudinal
// zone database.
//
// Usage:
//
//	zonedump -zone biz -date 2016-07-15 [-scale 6] [-seed 1] [-grep dropthishost]
//	zonedump -load dataset.dzdb -zone biz -date 2016-07-15
//
// With -diff, it instead prints what changed on DAY relative to the day
// before — every delegation, registration, and glue record that
// appeared or vanished — using the same per-day delta feed riskywatchd
// consumes:
//
//	zonedump -diff 2016-07-15 [-grep 123.biz]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/zonedb"
	"repro/internal/zonedb/delta"
	"repro/internal/zonedb/segment"
)

func main() {
	zone := flag.String("zone", "com", "TLD zone to dump")
	date := flag.String("date", "2016-07-15", "snapshot date (YYYY-MM-DD)")
	scale := flag.Float64("scale", 6, "mean new registrations per day (ignored with -load)")
	seed := flag.Int64("seed", 1, "random seed (ignored with -load)")
	grep := flag.String("grep", "", "only lines containing this substring")
	diff := flag.String("diff", "", "print the change set for this day (YYYY-MM-DD) instead of a snapshot")
	load := flag.String("load", "", "read the zone DB from a segment file (riskybiz -save-data's PREFIX.dzdb) instead of simulating")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.Version())
		return
	}

	day, err := dates.Parse(*date)
	if err != nil {
		log.Fatalf("zonedump: %v", err)
	}
	z, err := dnsname.Parse(*zone)
	if err != nil {
		log.Fatalf("zonedump: %v", err)
	}
	var db *zonedb.DB
	if *load != "" {
		if db, err = segment.ReadFile(*load); err != nil {
			log.Fatalf("zonedump: %v", err)
		}
	} else {
		cfg := sim.DefaultConfig(*scale)
		cfg.Seed = *seed
		world, err := sim.NewWorld(cfg)
		if err != nil {
			log.Fatalf("zonedump: %v", err)
		}
		if err := world.Run(); err != nil {
			log.Fatalf("zonedump: %v", err)
		}
		db = world.ZoneDB()
	}
	if *diff != "" {
		if err := printDiff(db, *diff, *grep); err != nil {
			log.Fatalf("zonedump: %v", err)
		}
		return
	}
	snap := db.View().SnapshotOn(z, day)
	if *grep == "" {
		if err := snap.Write(os.Stdout); err != nil {
			log.Fatalf("zonedump: %v", err)
		}
		return
	}
	var sb strings.Builder
	if err := snap.Write(&sb); err != nil {
		log.Fatalf("zonedump: %v", err)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.Contains(line, *grep) {
			fmt.Fprintln(w, line)
		}
	}
}

// printDiff emits the day's change set, one event per line, in the
// order the watch engine applies them: removals first, then additions.
func printDiff(db *zonedb.DB, date, grep string) error {
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
		line := fmt.Sprintf(format, args...)
		if grep == "" || strings.Contains(line, grep) {
			fmt.Fprintln(w, line)
		}
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
