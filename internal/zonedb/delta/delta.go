// Package delta derives per-day change sets from a sealed zonedb View.
//
// The epoch store records longitudinal facts as interval sets: each
// delegation edge, domain registration, and glue record carries the
// spans of days on which it was present. A streaming consumer wants the
// opposite projection — "what changed on day d" — so this package walks
// the sealed interval sets once and buckets every interval boundary by
// day: a span [a, b] contributes an add event on day a and a remove
// event on day b+1 (the first day the fact is absent). The whole index
// is built in O(total spans) and answers per-day queries in O(1).
//
// Deltas are derived exclusively from sealed intervals — the same facts
// the batch detector sees — so replaying every DayDelta from First()
// through Last() reconstructs exactly the state a batch pass over the
// same View would observe on each day. Facts still open at an unsealed
// boundary are invisible here, which is why Build requires a Closed
// view.
package delta

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
	"repro/internal/zonedb"
)

// DayDelta is everything that changed on one day relative to the day
// before. Added slices hold facts present on Day but not Day-1; Removed
// slices hold facts present on Day-1 but not Day. All slices are sorted
// (edges by domain then nameserver, names lexically) so a delta is
// deterministic for a given view and safe to diff in tests.
type DayDelta struct {
	Day dates.Day `json:"day"`

	EdgesAdded   []zonedb.Edge `json:"edges_added,omitempty"`
	EdgesRemoved []zonedb.Edge `json:"edges_removed,omitempty"`

	DomainsAdded   []dnsname.Name `json:"domains_added,omitempty"`
	DomainsRemoved []dnsname.Name `json:"domains_removed,omitempty"`

	GlueAdded   []dnsname.Name `json:"glue_added,omitempty"`
	GlueRemoved []dnsname.Name `json:"glue_removed,omitempty"`
}

// Empty reports whether the delta carries no changes (a quiet day).
func (d *DayDelta) Empty() bool {
	return len(d.EdgesAdded) == 0 && len(d.EdgesRemoved) == 0 &&
		len(d.DomainsAdded) == 0 && len(d.DomainsRemoved) == 0 &&
		len(d.GlueAdded) == 0 && len(d.GlueRemoved) == 0
}

// Changes returns the total number of change events in the delta.
func (d *DayDelta) Changes() int {
	return len(d.EdgesAdded) + len(d.EdgesRemoved) +
		len(d.DomainsAdded) + len(d.DomainsRemoved) +
		len(d.GlueAdded) + len(d.GlueRemoved)
}

// Index holds the per-day deltas of one sealed view, keyed by day.
type Index struct {
	epoch       uint64
	first, last dates.Day
	days        map[dates.Day]*DayDelta
}

// Build computes the delta index of a sealed view. It returns an error
// if the view was never sealed by Close/CloseZones: without a close day
// there is no boundary distinguishing "removed" from "not yet sealed".
func Build(v *zonedb.View) (*Index, error) {
	if !v.Closed() {
		return nil, fmt.Errorf("delta: view (epoch %d) is not closed", v.Epoch())
	}
	idx := &Index{
		epoch: v.Epoch(),
		first: dates.None,
		last:  v.CloseDay(),
		days:  make(map[dates.Day]*DayDelta),
	}
	v.EachEdgeSpans(func(e zonedb.Edge, spans *interval.Set) bool {
		idx.spread(spans, func(d *DayDelta) { d.EdgesAdded = append(d.EdgesAdded, e) },
			func(d *DayDelta) { d.EdgesRemoved = append(d.EdgesRemoved, e) })
		return true
	})
	v.EachDomainSpans(func(domain dnsname.Name, spans *interval.Set) bool {
		idx.spread(spans, func(d *DayDelta) { d.DomainsAdded = append(d.DomainsAdded, domain) },
			func(d *DayDelta) { d.DomainsRemoved = append(d.DomainsRemoved, domain) })
		return true
	})
	v.EachGlueSpans(func(host dnsname.Name, spans *interval.Set) bool {
		idx.spread(spans, func(d *DayDelta) { d.GlueAdded = append(d.GlueAdded, host) },
			func(d *DayDelta) { d.GlueRemoved = append(d.GlueRemoved, host) })
		return true
	})
	for _, d := range idx.days {
		d.sort()
	}
	return idx, nil
}

// sort puts each of the day's lists into the order DayDelta documents.
func (d *DayDelta) sort() {
	sortEdges(d.EdgesAdded)
	sortEdges(d.EdgesRemoved)
	sortNames(d.DomainsAdded)
	sortNames(d.DomainsRemoved)
	sortNames(d.GlueAdded)
	sortNames(d.GlueRemoved)
}

// Extend returns the index of v given prev, the index of the epoch
// before it, when v is a plain dated advance of that epoch
// (zonedb.View.Advance): every day prev holds is shared with it, not
// copied and never written, and the days after prev.Last() are derived
// from the sealed spans of the facts v says it wrote, by Build's rule and
// in Build's order. An untouched fact has no boundary there — its spans
// are the parent's, at most extended through the new close day — so the
// result equals Build(v) day for day, for the cost of the change. It
// returns an error, and the caller builds from scratch, when v is not an
// advance or prev is not the index of its parent.
func Extend(prev *Index, v *zonedb.View) (*Index, error) {
	ch := v.Advance()
	if ch == nil {
		return nil, fmt.Errorf("delta: view (epoch %d) is not an advance of the epoch before it", v.Epoch())
	}
	if prev.epoch+1 != v.Epoch() || prev.last != ch.ParentClose {
		return nil, fmt.Errorf("delta: index of epoch %d closed %s is not the parent of epoch %d (parent closed %s)",
			prev.epoch, prev.last, v.Epoch(), ch.ParentClose)
	}
	idx := &Index{
		epoch: v.Epoch(),
		first: prev.first,
		last:  v.CloseDay(),
		days:  maps.Clone(prev.days),
	}
	for _, e := range ch.Edges {
		idx.spreadAfter(prev.last, v.EdgeSpans(e.Domain, e.NS),
			func(d *DayDelta) { d.EdgesAdded = append(d.EdgesAdded, e) },
			func(d *DayDelta) { d.EdgesRemoved = append(d.EdgesRemoved, e) })
	}
	for _, domain := range ch.Domains {
		idx.spreadAfter(prev.last, v.DomainSpans(domain),
			func(d *DayDelta) { d.DomainsAdded = append(d.DomainsAdded, domain) },
			func(d *DayDelta) { d.DomainsRemoved = append(d.DomainsRemoved, domain) })
	}
	for _, host := range ch.Glue {
		idx.spreadAfter(prev.last, v.GlueSpans(host),
			func(d *DayDelta) { d.GlueAdded = append(d.GlueAdded, host) },
			func(d *DayDelta) { d.GlueRemoved = append(d.GlueRemoved, host) })
	}
	for day := prev.last + 1; day <= idx.last; day++ {
		if d, ok := idx.days[day]; ok {
			d.sort()
		}
	}
	return idx, nil
}

// spreadAfter is spread restricted to the boundaries that fall after day
// parent: the only ones an advance can have added. Every DayDelta it
// writes is one it made, since the parent's index holds no later day.
func (idx *Index) spreadAfter(parent dates.Day, spans *interval.Set, add, remove func(*DayDelta)) {
	all := spans.Spans()
	for i := len(all) - 1; i >= 0 && all[i].Last >= parent; i-- {
		r := all[i]
		if r.First > parent {
			add(idx.at(r.First))
			if idx.first == dates.None || r.First < idx.first {
				idx.first = r.First
			}
		}
		if end := r.Last + 1; end <= idx.last {
			remove(idx.at(end))
		}
	}
}

// spread records one fact's spans into the day buckets: an add on each
// span's first day, a remove on the day after each span's last day —
// unless that falls past the close day, where absence is not yet
// observable.
func (idx *Index) spread(spans *interval.Set, add, remove func(*DayDelta)) {
	for _, r := range spans.Spans() {
		add(idx.at(r.First))
		if idx.first == dates.None || r.First < idx.first {
			idx.first = r.First
		}
		if end := r.Last + 1; end <= idx.last {
			remove(idx.at(end))
		}
	}
}

func (idx *Index) at(day dates.Day) *DayDelta {
	d, ok := idx.days[day]
	if !ok {
		d = &DayDelta{Day: day}
		idx.days[day] = d
	}
	return d
}

// Epoch returns the epoch of the view the index was built from.
func (idx *Index) Epoch() uint64 { return idx.epoch }

// First returns the earliest day with any change, or dates.None if the
// view recorded no facts at all.
func (idx *Index) First() dates.Day { return idx.first }

// Last returns the view's close day — the last day for which the feed
// is complete. Days after Last are unknown, not quiet.
func (idx *Index) Last() dates.Day { return idx.last }

// Day returns the delta for one day. Quiet days inside [First, Last]
// (and any day, for that matter) yield an empty non-nil delta, so a
// consumer can apply every day of the window uniformly.
func (idx *Index) Day(day dates.Day) *DayDelta {
	if d, ok := idx.days[day]; ok {
		return d
	}
	return &DayDelta{Day: day}
}

// Days returns the number of non-quiet days in the index.
func (idx *Index) Days() int { return len(idx.days) }

func sortEdges(es []zonedb.Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Domain != es[j].Domain {
			return es[i].Domain < es[j].Domain
		}
		return es[i].NS < es[j].NS
	})
}

func sortNames(ns []dnsname.Name) {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
}
