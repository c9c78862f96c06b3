package cluster

import (
	"repro/internal/dates"
	"repro/internal/zonedb/delta"
)

// mergedFeed is the fleet's totally ordered per-day change feed: each
// shard's delta feed covers only its slice of the partition, and since
// every fact (domain, edge, glue host) lives in exactly one zone —
// hence exactly one shard — the per-day merge is a disjoint union.
// Sorting each merged day with the delta package's own order makes a
// merged page indistinguishable from a single-node one.
// The feed is built once per fleet sync and served from memory — by
// dzdbapi's own /v1/deltas handler, as the dzdbapi.Feed of the sync's
// state — so a shard dying after a sync cannot corrupt or truncate it,
// which is what makes exactly-once delivery across shard failure
// possible, and pages are always whole: a day is either fully merged or
// not served at all.
type mergedFeed struct {
	first, close dates.Day
	// days[i] is the merged change set for day first+i; quiet days are
	// present and empty, same as the single-node feed.
	days []delta.DayDelta
}

// Window implements dzdbapi.Feed.
func (f *mergedFeed) Window() (first, last dates.Day) { return f.first, f.close }

// Day implements dzdbapi.Feed with one of the pre-merged days.
func (f *mergedFeed) Day(d dates.Day) *delta.DayDelta { return &f.days[d-f.first] }

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
	f.days = make([]delta.DayDelta, int(f.close-f.first)+1)
	for i := range f.days {
		f.days[i].Day = f.first + dates.Day(i)
	}
	for _, p := range pulls {
		for _, dd := range p.deltas.Deltas {
			m := &f.days[int(dd.Day-f.first)]
			m.EdgesAdded = append(m.EdgesAdded, dd.EdgesAdded...)
			m.EdgesRemoved = append(m.EdgesRemoved, dd.EdgesRemoved...)
			m.DomainsAdded = append(m.DomainsAdded, dd.DomainsAdded...)
			m.DomainsRemoved = append(m.DomainsRemoved, dd.DomainsRemoved...)
			m.GlueAdded = append(m.GlueAdded, dd.GlueAdded...)
			m.GlueRemoved = append(m.GlueRemoved, dd.GlueRemoved...)
		}
	}
	for i := range f.days {
		f.days[i].Sort()
	}
	return f
}
