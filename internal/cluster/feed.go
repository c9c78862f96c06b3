package cluster

import (
	"sort"

	"repro/internal/dates"
	"repro/internal/dzdbapi"
)

// mergedFeed is the fleet's totally ordered per-day change feed: each
// shard's delta feed covers only its slice of the partition, and since
// every fact (domain, edge, glue host) lives in exactly one zone —
// hence exactly one shard — the per-day merge is a disjoint union.
// Re-sorting each day restores the canonical order the delta package
// emits, so a merged page is indistinguishable from a single-node one.
// The feed is built once per fleet sync and served from memory — by
// dzdbapi's own /v1/deltas handler, as the dzdbapi.Feed of the sync's
// state — so a shard dying after a sync cannot corrupt or truncate it,
// which is what makes exactly-once delivery across shard failure
// possible, and pages are always whole: a day is either fully merged or
// not served at all.
type mergedFeed struct {
	first, close dates.Day
	// days[i] is the merged change set for day first+i; quiet days are
	// present with Changes 0, same as the single-node feed.
	days []dzdbapi.DayDeltaJSON
}

// Window implements dzdbapi.Feed.
func (f *mergedFeed) Window() (first, last dates.Day) { return f.first, f.close }

// Days implements dzdbapi.Feed by slicing the pre-merged days.
func (f *mergedFeed) Days(from dates.Day, n int) []dzdbapi.DayDeltaJSON {
	off := int(from - f.first)
	return f.days[off : off+n]
}

// mergeFeeds builds the fleet feed from per-shard pulls. Shards sealed
// from the same archive share one close day (shard projections keep
// the source's close verbatim), so the merged window is simply the
// union of the shard windows.
func mergeFeeds(pulls []*shardPull) *mergedFeed {
	f := &mergedFeed{first: dates.None, close: dates.None}
	for _, p := range pulls {
		if p.deltas.FirstDay != dates.None && (f.first == dates.None || p.deltas.FirstDay < f.first) {
			f.first = p.deltas.FirstDay
		}
		if p.deltas.CloseDay != dates.None && p.deltas.CloseDay > f.close {
			f.close = p.deltas.CloseDay
		}
	}
	if f.first == dates.None {
		return f // every shard sealed empty
	}
	f.days = make([]dzdbapi.DayDeltaJSON, int(f.close-f.first)+1)
	for i := range f.days {
		f.days[i].Day = f.first + dates.Day(i)
	}
	for _, p := range pulls {
		for _, dd := range p.deltas.Deltas {
			if dd.Changes == 0 {
				continue
			}
			m := &f.days[int(dd.Day-f.first)]
			m.EdgesAdded = append(m.EdgesAdded, dd.EdgesAdded...)
			m.EdgesRemoved = append(m.EdgesRemoved, dd.EdgesRemoved...)
			m.DomainsAdded = append(m.DomainsAdded, dd.DomainsAdded...)
			m.DomainsRemoved = append(m.DomainsRemoved, dd.DomainsRemoved...)
			m.GlueAdded = append(m.GlueAdded, dd.GlueAdded...)
			m.GlueRemoved = append(m.GlueRemoved, dd.GlueRemoved...)
			m.Changes += dd.Changes
		}
	}
	for i := range f.days {
		sortDay(&f.days[i])
	}
	return f
}

// sortDay restores the delta package's canonical in-day order: edges
// by (domain, ns), name lists lexically.
func sortDay(d *dzdbapi.DayDeltaJSON) {
	sortEdges := func(es []dzdbapi.DeltaEdge) {
		sort.Slice(es, func(i, j int) bool {
			if es[i].Domain != es[j].Domain {
				return es[i].Domain < es[j].Domain
			}
			return es[i].NS < es[j].NS
		})
	}
	sortEdges(d.EdgesAdded)
	sortEdges(d.EdgesRemoved)
	sort.Slice(d.DomainsAdded, func(i, j int) bool { return d.DomainsAdded[i] < d.DomainsAdded[j] })
	sort.Slice(d.DomainsRemoved, func(i, j int) bool { return d.DomainsRemoved[i] < d.DomainsRemoved[j] })
	sort.Slice(d.GlueAdded, func(i, j int) bool { return d.GlueAdded[i] < d.GlueAdded[j] })
	sort.Slice(d.GlueRemoved, func(i, j int) bool { return d.GlueRemoved[i] < d.GlueRemoved[j] })
}
