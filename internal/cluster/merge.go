package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dates"
	"repro/internal/dzdbapi"
)

// fleetState is one complete fleet sync: every fleet-wide answer the
// coordinator serves, pulled from all shards while they were ready on
// a stable epoch vector, in the shape dzdbapi's epoch-wide handlers
// render. Immutable once published; handlers read it with one atomic
// load.
type fleetState struct {
	// EpochState.Epoch is the coordinator's own monotonic fleet epoch.
	// It moves whenever any shard's epoch moves, and stamps the merged
	// delta feed so followers detect mid-walk reloads exactly like they
	// do against a single dzdbd.
	dzdbapi.EpochState
	shardEpochs []uint64
	syncedAt    time.Time
}

// shardPull is the raw material one shard contributes to a sync.
type shardPull struct {
	stats  *dzdbapi.StatsResponse
	rows   []dzdbapi.TopNameserver
	deltas *dzdbapi.DeltasResponse
}

// sync pulls every shard and publishes a new fleetState. It fails —
// leaving the previous state serving — if any pull fails or if any
// shard's epoch moved while the pull was in flight (a reload mid-sync
// would splice two generations into one "consistent" answer; the next
// tick simply syncs again on the settled vector).
func (c *Coordinator) sync(ctx context.Context) error {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, syncTimeout)
	defer cancel()

	epochs := make([]uint64, len(c.shards))
	for i, sh := range c.shards {
		epochs[i] = sh.epoch()
	}

	pulls := make([]*shardPull, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			pulls[i], errs[i] = c.pull(ctx, sh)
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("pulling shard %d: %w", i, err)
		}
	}

	// Abort if any epoch moved under the pull: the data would mix
	// generations.
	for i, sh := range c.shards {
		info, err := sh.hb.ShardInfo(ctx)
		if err != nil {
			return fmt.Errorf("confirming shard %d epoch: %w", i, err)
		}
		if info.Epoch != epochs[i] {
			return fmt.Errorf("shard %d adopted epoch %d during sync (started on %d)", i, info.Epoch, epochs[i])
		}
	}

	fs := &fleetState{
		EpochState:  mergePulls(pulls),
		shardEpochs: epochs,
		syncedAt:    time.Now(),
	}
	fs.Epoch = c.epochN.Add(1)
	c.fleet.Store(fs)
	c.signal.Broadcast()
	if c.log != nil {
		_, closeDay := fs.Feed.Window()
		c.log.Info("fleet synced", "fleet_epoch", fs.Epoch,
			"domains", fs.Stats.Domains, "nameservers", fs.Stats.Nameservers,
			"zones", len(fs.Stats.Zones), "close_day", closeDay.String())
	}
	return nil
}

// pull fetches one shard's contribution: its stats, its complete
// nameserver-exposure table, and its whole delta feed.
func (c *Coordinator) pull(ctx context.Context, sh *shard) (*shardPull, error) {
	p := &shardPull{}
	var err error
	if p.stats, err = sh.data.StatsContext(ctx); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	cursor := ""
	for {
		page, err := sh.data.NSExposure(ctx, cursor, 0)
		if err != nil {
			return nil, fmt.Errorf("ns-exposure: %w", err)
		}
		p.rows = append(p.rows, page.Rows...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if p.deltas, err = sh.data.Deltas(ctx, dates.None, "", 0, 0); err != nil {
		return nil, fmt.Errorf("deltas: %w", err)
	}
	if p.deltas.NextCursor != "" {
		// limit 0 asks for the whole window in one page; a cursor back
		// means the server changed that contract.
		return nil, fmt.Errorf("deltas: unexpected pagination from shard %d", sh.id)
	}
	return p, nil
}

// mergePulls combines per-shard pulls into fleet-wide answers. Domains
// and zones partition cleanly across shards (each belongs to exactly
// one zone), so counts sum and zone lists union. Nameservers do not —
// one NS serves domains in many zones — so the distinct count and the
// leaderboard come from merging the complete per-shard exposure
// tables by name, which is exact, not an approximation.
func mergePulls(pulls []*shardPull) dzdbapi.EpochState {
	var st dzdbapi.EpochState
	zoneSet := make(map[string]bool)
	exposure := make(map[string]dzdbapi.TopNameserver)
	for _, p := range pulls {
		st.Stats.Domains += p.stats.Domains
		for _, z := range p.stats.Zones {
			zoneSet[z] = true
		}
		for _, row := range p.rows {
			agg := exposure[row.Nameserver]
			agg.Nameserver = row.Nameserver
			agg.Domains += row.Domains
			agg.DomainDays += row.DomainDays
			exposure[row.Nameserver] = agg
		}
	}
	st.Stats.Zones = make([]string, 0, len(zoneSet))
	for z := range zoneSet {
		st.Stats.Zones = append(st.Stats.Zones, z)
	}
	sort.Strings(st.Stats.Zones)
	st.Stats.Nameservers = len(exposure)

	rows := make([]dzdbapi.TopNameserver, 0, len(exposure))
	for _, row := range exposure {
		rows = append(rows, row)
	}
	st.TopNS = dzdbapi.RankNameservers(rows)
	st.Feed = mergeFeeds(pulls)
	return st
}
