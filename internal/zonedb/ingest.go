package zonedb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
	"repro/internal/obs"
)

// Sentinel errors for snapshot validation. AddSnapshot and IngestAll wrap
// them with zone/date context; match with errors.Is.
var (
	// ErrSnapshotUndated reports a snapshot whose date is dates.None.
	ErrSnapshotUndated = errors.New("zonedb: snapshot has no date")
	// ErrSnapshotOutOfOrder reports a snapshot dated at or before the
	// zone's previous snapshot.
	ErrSnapshotOutOfOrder = errors.New("zonedb: snapshot out of order")
	// ErrSnapshotGap reports a gap of more than one day since the zone's
	// previous snapshot.
	ErrSnapshotGap = errors.New("zonedb: snapshot gap")
	// ErrSnapshotCorrupt reports a snapshot that could not be read or
	// parsed at all.
	ErrSnapshotCorrupt = errors.New("zonedb: snapshot corrupt")
	// ErrTooManyQuarantined reports that degraded mode hit its
	// MaxQuarantine budget — the input is worse than the operator was
	// willing to tolerate.
	ErrTooManyQuarantined = errors.New("zonedb: too many snapshots quarantined")
)

// MetricQuarantined counts snapshots quarantined in degraded mode,
// labeled by zone and reason.
const MetricQuarantined = "zonedb_snapshots_quarantined_total"

// Ingester builds a DB from daily zone-file snapshots — the literal form
// of the paper's input (CAIDA-DZDB is derived from daily zone files).
// Each AddSnapshot is diffed against the previous snapshot of the same
// zone and converted into the DB's interval events, so a DB built from
// uninterrupted daily snapshots is identical to one fed live events
// (asserted by TestIngestEquivalentToEvents).
//
// Domain PRESENCE has one observability caveat: a zone file only shows
// delegated domains, so a registered-but-undelegated domain is invisible
// to the ingester, while the live recorder sees its registration event.
// The methodology tolerates this — it is the real difference between
// zone files and registry databases the paper works around with
// DomainTools data.
type Ingester struct {
	// Degraded quarantines invalid snapshots (recording them in the
	// quarantine report) instead of aborting the ingest. Validation runs
	// before any DB mutation, so a degraded ingest produces a DB
	// identical to a strict ingest of only the valid snapshots.
	Degraded bool
	// MaxQuarantine, when positive, bounds how many snapshots degraded
	// mode will quarantine before giving up with ErrTooManyQuarantined.
	MaxQuarantine int
	// Obs, when set, records quarantined snapshots under
	// MetricQuarantined. Nil disables metrics.
	Obs *obs.Registry
	// Workers, when > 1, makes IngestAll shard ingestion across that many
	// goroutines, each owning the zones hashed to it (a zone's snapshots
	// stay on one worker, so per-zone ordering and gap validation are
	// unchanged). The per-worker databases are merged by zone when the
	// source drains — delegation edges, domains, and glue are keyed by
	// names inside their zone, so the merge is a disjoint map union.
	// Direct AddSnapshot calls are unaffected.
	Workers int

	db *DB
	// prev holds the previous snapshot's contents per zone.
	prev        map[dnsname.Name]*snapState
	last        dates.Day
	quarantined []QuarantinedSnapshot
	// sharedQ, set on the parent and its workers during a parallel
	// IngestAll, counts quarantined snapshots across all of them so the
	// MaxQuarantine budget is global, not per worker.
	sharedQ *int64
	// parallelEff is the last parallel round's efficiency (see
	// ParallelEfficiency).
	parallelEff float64
}

// snapState is what the ingester keeps of a zone between two days: the
// last snapshot flattened into its three fact tables, each sorted and free
// of duplicates, so the next day's diff is a merge walk with no map. The
// names still point into that snapshot's parse arena.
type snapState struct {
	zone dnsname.Name // the ingester's own copy, the one the DB is given
	date dates.Day
	factTables
	// spare holds the tables of the day before, emptied: the buffers the
	// next day is flattened into.
	spare factTables
}

// factTables are a snapshot's facts in Snapshot.Sort order.
type factTables struct {
	edges []Edge         // by domain, then nameserver
	doms  []dnsname.Name // every delegated domain, with or without nameservers
	glue  []dnsname.Name // glue hosts
}

// NewIngester returns an Ingester writing into a fresh DB.
func NewIngester() *Ingester {
	return &Ingester{db: New(), prev: make(map[dnsname.Name]*snapState), last: dates.None}
}

// QuarantinedSnapshot is one snapshot skipped by degraded mode.
type QuarantinedSnapshot struct {
	// Zone is empty when the snapshot was too corrupt to identify.
	Zone dnsname.Name
	// Date is dates.None when unknown.
	Date dates.Day
	// Source names where the snapshot came from (a file path), when the
	// ingest ran from a SnapshotSource.
	Source string
	// Reason is the sentinel's short name: "undated", "out-of-order",
	// "gap", or "corrupt".
	Reason string
	// Err is the full validation error.
	Err error
}

// QuarantineReport summarises the snapshots skipped in degraded mode.
type QuarantineReport struct {
	Entries []QuarantinedSnapshot
}

// Total returns the number of quarantined snapshots.
func (r QuarantineReport) Total() int { return len(r.Entries) }

// ByZone returns quarantine counts per zone; unidentifiable snapshots
// count under the empty name.
func (r QuarantineReport) ByZone() map[dnsname.Name]int {
	out := make(map[dnsname.Name]int)
	for _, e := range r.Entries {
		out[e.Zone]++
	}
	return out
}

// String renders a one-line summary, e.g. "3 quarantined (com: 2 [gap 1,
// out-of-order 1], ?: 1 [corrupt 1])".
func (r QuarantineReport) String() string {
	if len(r.Entries) == 0 {
		return "0 quarantined"
	}
	type key struct {
		zone   dnsname.Name
		reason string
	}
	counts := make(map[key]int)
	zones := make(map[dnsname.Name]int)
	for _, e := range r.Entries {
		counts[key{e.Zone, e.Reason}]++
		zones[e.Zone]++
	}
	var names []dnsname.Name
	for z := range zones {
		names = append(names, z)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d quarantined (", len(r.Entries))
	for i, z := range names {
		if i > 0 {
			sb.WriteString(", ")
		}
		label := string(z)
		if label == "" {
			label = "?"
		}
		fmt.Fprintf(&sb, "%s: %d [", label, zones[z])
		var reasons []string
		for k := range counts {
			if k.zone == z {
				reasons = append(reasons, k.reason)
			}
		}
		sort.Strings(reasons)
		for j, reason := range reasons {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s %d", reason, counts[key{z, reason}])
		}
		sb.WriteString("]")
	}
	sb.WriteString(")")
	return sb.String()
}

// Quarantine returns the report of snapshots skipped so far.
func (ing *Ingester) Quarantine() QuarantineReport {
	return QuarantineReport{Entries: ing.quarantined}
}

// ParallelEfficiency reports the last parallel IngestAll round's
// efficiency — Σ worker-busy time ÷ (wall × workers), so 1.0 is linear
// scaling and 1/workers is a serial run wearing a parallel costume.
// Zero until a parallel IngestAll (Workers > 1) has completed; set
// whether or not Obs is.
func (ing *Ingester) ParallelEfficiency() float64 { return ing.parallelEff }

// reason maps a validation error onto its metric/report label.
func reason(err error) string {
	switch {
	case errors.Is(err, ErrSnapshotUndated):
		return "undated"
	case errors.Is(err, ErrSnapshotOutOfOrder):
		return "out-of-order"
	case errors.Is(err, ErrSnapshotGap):
		return "gap"
	case errors.Is(err, ErrSnapshotCorrupt):
		return "corrupt"
	default:
		return "other"
	}
}

// reject handles an invalid snapshot: strict mode surfaces the error,
// degraded mode quarantines it and reports success so ingestion can
// continue, up to the MaxQuarantine budget.
func (ing *Ingester) reject(zone dnsname.Name, date dates.Day, source string, err error) error {
	if !ing.Degraded {
		return err
	}
	if ing.MaxQuarantine > 0 {
		if ing.sharedQ != nil {
			if int(atomic.AddInt64(ing.sharedQ, 1)) > ing.MaxQuarantine {
				return fmt.Errorf("%w (limit %d): %v", ErrTooManyQuarantined, ing.MaxQuarantine, err)
			}
		} else if len(ing.quarantined) >= ing.MaxQuarantine {
			return fmt.Errorf("%w (limit %d): %v", ErrTooManyQuarantined, ing.MaxQuarantine, err)
		}
	}
	why := reason(err)
	ing.quarantined = append(ing.quarantined, QuarantinedSnapshot{
		Zone: zone, Date: date, Source: source, Reason: why, Err: err,
	})
	if ing.Obs != nil {
		label := string(zone)
		if label == "" {
			label = "unknown"
		}
		ing.Obs.CounterVec(MetricQuarantined,
			"Snapshots quarantined by degraded-mode ingest.",
			"zone", "reason").With(label, why).Inc()
	}
	return nil
}

// validate checks a snapshot against the zone's ingest history, and its
// records against its zone, without touching the DB.
func (ing *Ingester) validate(snap *dnszone.Snapshot) error {
	if snap.Date == dates.None {
		return fmt.Errorf("%w: zone %s", ErrSnapshotUndated, snap.Zone)
	}
	if prev := ing.prev[snap.Zone]; prev != nil {
		switch {
		case snap.Date <= prev.date:
			return fmt.Errorf("%w: %s snapshot for %s arrived after %s", ErrSnapshotOutOfOrder, snap.Zone, snap.Date, prev.date)
		case snap.Date > prev.date+1:
			return fmt.Errorf("%w: %s jumps %s -> %s", ErrSnapshotGap, snap.Zone, prev.date, snap.Date)
		}
	}
	// The DB seals a fact on the last day of the zone its name ends in. A
	// record filed under another zone — a header that disagrees with the
	// file's $ORIGIN — would be published with no days at all.
	for i := range snap.Delegations {
		if d := snap.Delegations[i].Domain; d.TLD() != snap.Zone {
			return fmt.Errorf("%w: %s snapshot for %s delegates %q", ErrSnapshotCorrupt, snap.Zone, snap.Date, d)
		}
	}
	for i := range snap.Glue {
		if h := snap.Glue[i].Host; h.TLD() != snap.Zone {
			return fmt.Errorf("%w: %s snapshot for %s has glue for %q", ErrSnapshotCorrupt, snap.Zone, snap.Date, h)
		}
	}
	return nil
}

// AddSnapshot ingests one zone's snapshot for one day. Snapshots for a
// given zone must arrive in chronological order; a gap of more than one
// day is rejected (interval semantics would silently differ from daily
// collection otherwise), and so is a snapshot holding a delegation or glue
// record outside its zone. In degraded mode invalid snapshots are
// quarantined instead, and AddSnapshot reports success. The snapshot is
// not retained: the caller may change or drop it afterwards.
func (ing *Ingester) AddSnapshot(snap *dnszone.Snapshot) error {
	return ing.addSnapshot(snap, "")
}

func (ing *Ingester) addSnapshot(snap *dnszone.Snapshot, source string) error {
	if err := ing.validate(snap); err != nil {
		return ing.reject(snap.Zone, snap.Date, source, err)
	}
	st := ing.prev[snap.Zone]
	if st == nil {
		st = &snapState{zone: cloneName(snap.Zone)}
		ing.prev[st.zone] = st
	}
	cur := flatten(snap, st.spare)

	// New facts open intervals; vanished facts close them. A name is
	// copied out of the snapshot's arena as it enters the DB, so that the
	// DB's few new facts a day do not keep every day's arena alive.
	zone, day := st.zone, snap.Date
	addedEdges, removedEdges := diffSorted(st.edges, cur.edges, CompareEdges)
	addedDoms, removedDoms := diffSorted(st.doms, cur.doms, dnsname.Compare)
	addedGlue, removedGlue := diffSorted(st.glue, cur.glue, dnsname.Compare)
	for _, e := range addedEdges {
		ing.db.DelegationAdded(zone, cloneName(e.Domain), cloneName(e.NS), day)
	}
	for _, d := range addedDoms {
		ing.db.DomainAdded(zone, cloneName(d), day)
	}
	for _, h := range addedGlue {
		ing.db.GlueAdded(zone, cloneName(h), day)
	}
	for _, e := range removedEdges {
		ing.db.DelegationRemoved(zone, e.Domain, e.NS, day)
	}
	for _, d := range removedDoms {
		ing.db.DomainRemoved(zone, d, day)
	}
	for _, h := range removedGlue {
		ing.db.GlueRemoved(zone, h, day)
	}
	// The zone header marks the zone as observed even when empty.
	ing.db.markZone(zone)

	// Yesterday's tables become the buffers for tomorrow; cleared, so they
	// do not hold yesterday's arena until they are overwritten.
	clear(st.edges)
	clear(st.doms)
	clear(st.glue)
	st.spare = factTables{st.edges[:0], st.doms[:0], st.glue[:0]}
	st.factTables, st.date = cur, day
	if day > ing.last || ing.last == dates.None {
		ing.last = day
	}
	return nil
}

func cloneName(n dnsname.Name) dnsname.Name { return dnsname.Name(strings.Clone(string(n))) }

// CompareEdges orders edges by domain, then nameserver: the order of
// every sorted edge list in the zone DB, its snapshots and its deltas.
func CompareEdges(a, b Edge) int {
	if c := dnsname.Compare(a.Domain, b.Domain); c != 0 {
		return c
	}
	return dnsname.Compare(a.NS, b.NS)
}

// flatten lays snap out as fact tables, reusing buf's storage. It checks
// for Snapshot.Sort order as it goes — files written by Snapshot.Write,
// View.SnapshotOn and the zone-file fixtures are in it — dropping repeated
// facts; a table found out of order is sorted and compacted afterwards.
func flatten(snap *dnszone.Snapshot, buf factTables) factTables {
	t := factTables{buf.edges[:0], buf.doms[:0], buf.glue[:0]}
	edgesOrdered, domsOrdered, glueOrdered := true, true, true
	for i := range snap.Delegations {
		d := &snap.Delegations[i]
		t.doms = appendFact(t.doms, d.Domain, dnsname.Compare, &domsOrdered)
		for _, ns := range d.Nameservers {
			t.edges = appendFact(t.edges, Edge{Domain: d.Domain, NS: ns}, CompareEdges, &edgesOrdered)
		}
	}
	for i := range snap.Glue {
		t.glue = appendFact(t.glue, snap.Glue[i].Host, dnsname.Compare, &glueOrdered)
	}
	if !edgesOrdered {
		slices.SortFunc(t.edges, CompareEdges)
		t.edges = slices.Compact(t.edges)
	}
	if !domsOrdered {
		slices.Sort(t.doms)
		t.doms = slices.Compact(t.doms)
	}
	if !glueOrdered {
		slices.Sort(t.glue)
		t.glue = slices.Compact(t.glue)
	}
	return t
}

// appendFact appends v to facts unless it repeats the last one, and clears
// *ordered when v sorts before it.
func appendFact[T any](facts []T, v T, cmp func(a, b T) int, ordered *bool) []T {
	if n := len(facts); n > 0 {
		c := cmp(facts[n-1], v)
		if c == 0 {
			return facts
		}
		*ordered = *ordered && c < 0
	}
	return append(facts, v)
}

// diffSorted walks two sorted, duplicate-free slices in step and returns
// the elements only in cur and those only in prev, both in order.
func diffSorted[T any](prev, cur []T, cmp func(a, b T) int) (added, removed []T) {
	if len(prev) == 0 {
		return cur, nil // a zone's first day: every fact, uncopied
	}
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch c := cmp(prev[i], cur[j]); {
		case c == 0:
			i++
			j++
		case c < 0:
			removed = append(removed, prev[i])
			i++
		default:
			added = append(added, cur[j])
			j++
		}
	}
	return append(added, cur[j:]...), append(removed, prev[i:]...)
}

// Finish closes the DB and returns it. Each zone's still-open facts are
// sealed at that zone's own last ingested day — not the global last day —
// so a zone whose snapshot series ended early (its remaining days
// quarantined by a gap cascade, or simply absent from the input) does not
// have its intervals silently extended through days nobody observed. The
// Ingester must not be used afterwards.
func (ing *Ingester) Finish() *DB {
	last := make(map[dnsname.Name]dates.Day, len(ing.prev))
	for zone, st := range ing.prev {
		last[zone] = st.date
	}
	if len(last) > 0 {
		ing.db.CloseZones(last)
	}
	return ing.db
}
