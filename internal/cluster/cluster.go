// Package cluster is the control plane for a sharded dzdbd fleet. A
// Coordinator fronts N dzdbd processes that each serve one slice of a
// zone-hash partition (see zonedb.ShardOf / zonedb.View.FilterShard):
// it tracks shard membership and health with a heartbeat loop, routes
// single-zone queries to the owning shard, scatter-gathers fleet-wide
// queries, and merges the per-shard delta feeds into one totally
// ordered feed that unchanged watch.Follower consumers can tail with
// exactly-once application.
//
// Consistency model: fleet-wide answers (stats, zones, the exposure
// leaderboard, the merged delta feed) come from the last complete
// "fleet sync" — a pull across every shard taken while all shards were
// ready on a stable epoch vector. A shard dying after a sync does not
// corrupt those answers; the coordinator keeps serving the last
// complete sync (marking responses with "partial": true while the
// fleet is degraded, since the synced data may be behind a reload the
// dead shard already took) and re-syncs once the shard is re-admitted.
// Point queries that must touch a dead shard fail with 503
// shard_unavailable and a Retry-After hint instead of silently
// answering from half a fleet.
//
// Every /v1 route is served by dzdbapi's serving layer (dzdbapi.Front)
// over the fleet epoch — the number of the last complete sync — which
// keys the ETags and the response cache of the proxied and
// scatter-gathered routes as much as of the synced ones. Only a settled
// fleet answers as its epoch: every shard up, ready, and on the epoch
// vector of the last complete sync (a shard's epoch and the instance of
// its process, since epochs are numbered per process), decided at the
// end of each heartbeat round and each sync. A settled fleet answers 304 to its validators
// and serves and fills its cache; any other request (a degraded fleet's
// "partial": true answers, or one between a shard's publish and the
// sync that follows it) is rendered live, without an ETag. A shard's
// publish therefore reaches every route within one heartbeat.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dzdbapi"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/health"
)

// MetricPartial counts responses the coordinator served with
// "partial": true. Shard membership and the fleet epoch are read from
// /statusz [cluster] and /v1/cluster/shards.
const MetricPartial = "cluster_partial_responses_total"

// Error codes the coordinator adds to the v1 envelope vocabulary.
const (
	// CodeNotSynced (503): the fleet has never completed a sync, so
	// fleet-wide answers do not exist yet. Retryable.
	CodeNotSynced = "not_synced"
	// CodeShardUnavailable (503): the single shard that owns the
	// requested zone is down. Retryable.
	CodeShardUnavailable = "shard_unavailable"
)

const (
	defaultHeartbeat = 2 * time.Second
	// syncTimeout bounds one fleet sync — the full scatter pull of
	// stats, exposure tables, and delta feeds.
	syncTimeout = 30 * time.Second
	// heartbeatTimeout bounds one probe so a hung shard cannot stall
	// the round past the next tick.
	heartbeatTimeout = 2 * time.Second
)

// Config describes the fleet a Coordinator fronts.
type Config struct {
	// Shards are the shard base URLs; index i must be the dzdbd started
	// with -shard-id i -shard-count len(Shards).
	Shards []string
	// Heartbeat is the membership poll interval (default 2s). Shard
	// health TTLs and Retry-After hints derive from it.
	Heartbeat time.Duration
	// Log receives coordinator events when set.
	Log *slog.Logger
}

func (c Config) heartbeat() time.Duration {
	if c.Heartbeat > 0 {
		return c.Heartbeat
	}
	return defaultHeartbeat
}

// shard is the coordinator's view of one fleet member.
type shard struct {
	id  int
	url string

	// hb probes membership without retry or breaker: every round must
	// hit the real server, or a recovered shard would sit behind an
	// open breaker's timeout before being re-admitted.
	hb *dzdbapi.Client
	// data runs the sync pulls and scatter-gather queries, with retry
	// and a breaker so one flapping shard degrades to fail-fast instead
	// of adding its full timeout to every fleet-wide query.
	data    *dzdbapi.Client
	breaker *faults.Breaker
	// proxy carries raw single-zone pass-through bodies (snapshots can
	// run to tens of MB, so it gets a longer deadline than the
	// heartbeat client).
	proxy *http.Client

	mu       sync.Mutex
	up       bool
	ready    bool
	info     dzdbapi.ShardInfoResponse
	lastErr  string
	lastSeen time.Time
	check    *health.Check
}

func (s *shard) isUp() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up
}

func (s *shard) isReady() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.up && s.ready
}

// generation names what a shard serves: its epoch and the instance of
// the process serving it. Epochs are numbered per process, so a shard
// restarted on another archive can come back on its old epoch number;
// the instance tells the two apart.
type generation struct {
	instance string
	epoch    uint64
}

func generationOf(info *dzdbapi.ShardInfoResponse) generation {
	return generation{info.Instance, info.Epoch}
}

func (s *shard) generation() generation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return generationOf(&s.info)
}

// ShardStatus is one shard's membership row, for /statusz and the
// /v1/cluster/shards introspection route.
type ShardStatus struct {
	ID       int       `json:"id"`
	URL      string    `json:"url"`
	Up       bool      `json:"up"`
	Ready    bool      `json:"ready"`
	Epoch    uint64    `json:"epoch"`
	CloseDay string    `json:"close_day,omitempty"`
	Domains  int       `json:"domains"`
	Zones    int       `json:"zones"`
	LastSeen time.Time `json:"last_seen"`
	Err      string    `json:"err,omitempty"`
}

// Coordinator fronts the fleet. It is an http.Handler serving the same
// /v1 surface as a single dzdbd, through the same serving layer, plus
// /v1/cluster/shards.
type Coordinator struct {
	*dzdbapi.Front

	cfg    Config
	shards []*shard
	mux    *http.ServeMux
	log    *slog.Logger

	fleet   atomic.Pointer[fleetState]
	epochN  atomic.Uint64        // last assigned fleet epoch
	signal  *dzdbapi.EpochSignal // broadcast on every completed sync
	syncMu  sync.Mutex           // one fleet sync at a time
	syncing atomic.Bool          // a background sync is in flight (tick dedup)

	// settled is what a settled fleet serves from — a copy of the last
	// sync's state, fresh each time the fleet settles — or nil when it is
	// not settled. settleMu orders the decisions.
	settleMu sync.Mutex
	settled  atomic.Pointer[dzdbapi.EpochState]

	partialN *obs.Counter // MetricPartial
}

// New builds a coordinator for the given fleet with a private metrics
// registry.
func New(cfg Config) (*Coordinator, error) {
	return NewWithRegistry(cfg, obs.NewRegistry())
}

// NewWithRegistry is New exporting metrics into reg.
func NewWithRegistry(cfg Config, reg *obs.Registry) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	c := &Coordinator{
		cfg:    cfg,
		log:    cfg.Log,
		signal: dzdbapi.NewEpochSignal(),
		mux:    http.NewServeMux(),

		partialN: reg.Counter(MetricPartial, "responses served with partial: true"),
	}
	for i, url := range cfg.Shards {
		br := &faults.Breaker{
			Name:        fmt.Sprintf("shard%d", i),
			OpenTimeout: cfg.heartbeat(),
			// Scatter-gather asks every shard for every nameserver, so a
			// healthy shard answers 404 for the names it doesn't hold —
			// constantly. Only transport errors and 5xx count as shard
			// failures; a 4xx proves the shard is alive and serving.
			IsFailure: func(err error) bool {
				var ae *dzdbapi.APIError
				if errors.As(err, &ae) {
					return ae.Status >= 500
				}
				return true
			},
		}
		br.Instrument(reg)
		sh := &shard{
			id:      i,
			url:     url,
			breaker: br,
			hb:      &dzdbapi.Client{BaseURL: url, HTTPClient: &http.Client{Timeout: heartbeatTimeout}},
			data: &dzdbapi.Client{
				BaseURL: url,
				// Sync pulls move whole exposure tables and delta feeds,
				// far past the client's default 2s budget.
				HTTPClient: &http.Client{Timeout: syncTimeout},
				Breaker:    br,
				Retry:      &faults.Policy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond},
			},
			proxy: &http.Client{Timeout: 30 * time.Second},
		}
		c.shards = append(c.shards, sh)
	}
	c.routes(reg)
	return c, nil
}

// RegisterHealth wires the fleet into a probe registry: one push check
// per shard (TTL three heartbeats, so a wedged heartbeat loop degrades
// to stale) and a "fleet" readiness check that fails until the first
// complete sync and whenever any shard is down — a degraded
// coordinator keeps answering but reports unready so balancers prefer
// a healthy one.
func (c *Coordinator) RegisterHealth(h *health.Registry) {
	for _, sh := range c.shards {
		sh.check = h.Register(fmt.Sprintf("shard%d", sh.id), 3*c.cfg.heartbeat())
		sh.check.Fail("no heartbeat yet")
	}
	h.RegisterFunc("fleet", func() error {
		if c.fleet.Load() == nil {
			return errors.New("fleet never synced")
		}
		if reason := c.degradedReason(); reason != "" {
			return errors.New(reason)
		}
		return nil
	})
}

// Run drives the heartbeat/sync loop until ctx is done. The first
// round runs immediately, so a fleet that is already up becomes ready
// one round-trip after boot.
func (c *Coordinator) Run(ctx context.Context) error {
	t := time.NewTicker(c.cfg.heartbeat())
	defer t.Stop()
	for {
		c.tick(ctx)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

func (c *Coordinator) tick(ctx context.Context) {
	c.heartbeatOnce(ctx)
	// Sync off the heartbeat loop: a full fleet pull can take many
	// heartbeat periods, and blocking the loop would let the per-shard
	// health checks go stale mid-sync.
	if c.needSync() && c.syncing.CompareAndSwap(false, true) {
		go func() {
			defer c.syncing.Store(false)
			if err := c.sync(ctx); err != nil && c.log != nil {
				c.log.Warn("fleet sync failed; serving previous fleet epoch", "err", err)
			}
		}()
	}
}

// SyncNow runs one heartbeat round and, if the fleet is ready on a new
// epoch vector, one synchronous fleet sync. Boot paths and tests call
// it to reach a served fleet epoch without waiting out ticker rounds.
func (c *Coordinator) SyncNow(ctx context.Context) error {
	c.heartbeatOnce(ctx)
	for _, sh := range c.shards {
		sh.mu.Lock()
		up, ready, errStr := sh.up, sh.ready, sh.lastErr
		sh.mu.Unlock()
		if !up || !ready {
			return fmt.Errorf("shard %d (%s) not ready: %s", sh.id, sh.url, errStr)
		}
	}
	if !c.needSync() {
		return nil
	}
	if err := c.sync(ctx); err != nil {
		return err
	}
	// The pull may have outlasted the shard checks' TTL; refresh them so
	// a successful SyncNow leaves the fleet observably ready.
	c.heartbeatOnce(ctx)
	return nil
}

// heartbeatOnce probes every shard concurrently, settles membership and
// decides whether the fleet is settled.
func (c *Coordinator) heartbeatOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, sh := range c.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			c.probe(ctx, sh)
		}(sh)
	}
	wg.Wait()
	c.settle()
}

func (c *Coordinator) probe(ctx context.Context, sh *shard) {
	ctx, cancel := context.WithTimeout(ctx, heartbeatTimeout)
	defer cancel()
	info, err := sh.hb.ShardInfo(ctx)
	if err != nil || !info.Ready || info.ShardID != sh.id || info.ShardCount != len(c.shards) || generationOf(info) != sh.generation() {
		// Unsettle before anything (readiness, a partial mark) can show
		// the change; only the end of the round settles again.
		c.unsettle()
	}
	sh.mu.Lock()
	wasReady := sh.up && sh.ready
	switch {
	case err != nil:
		sh.up, sh.ready = false, false
		sh.lastErr = err.Error()
	case info.ShardID != sh.id || info.ShardCount != len(c.shards):
		// A misconfigured member would silently serve the wrong slice of
		// the partition; refuse to admit it.
		sh.up, sh.ready = true, false
		sh.lastErr = fmt.Sprintf("shard identity mismatch: reports %d of %d, want %d of %d",
			info.ShardID, info.ShardCount, sh.id, len(c.shards))
	default:
		sh.up, sh.ready = true, info.Ready
		sh.info = *info
		sh.lastSeen = time.Now()
		if info.Ready {
			sh.lastErr = ""
		} else {
			sh.lastErr = "no sealed epoch yet"
		}
	}
	up, ready, errStr := sh.up, sh.ready, sh.lastErr
	sh.mu.Unlock()

	if up && ready {
		if sh.check != nil {
			sh.check.OK()
		}
		if !wasReady && c.log != nil {
			c.log.Info("shard admitted", "shard", sh.id, "url", sh.url)
		}
		return
	}
	if sh.check != nil {
		sh.check.Fail(errStr)
	}
	if wasReady && c.log != nil {
		c.log.Warn("shard lost", "shard", sh.id, "url", sh.url, "err", errStr)
	}
}

// vector reports whether every shard is ready and, if so, whether each
// is on the generation fs synced (false for no sync).
func (c *Coordinator) vector(fs *fleetState) (ready, synced bool) {
	synced = fs != nil
	for i, sh := range c.shards {
		if !sh.isReady() {
			return false, false
		}
		if synced && sh.generation() != fs.generations[i] {
			synced = false
		}
	}
	return true, synced
}

// needSync reports whether every shard is ready and the fleet's epoch
// vector moved past the last completed sync.
func (c *Coordinator) needSync() bool {
	ready, synced := c.vector(c.fleet.Load())
	return ready && !synced
}

// settle decides whether the fleet is settled on the last complete sync
// — every shard ready on its epoch vector — and stores the answer for
// fleetSource.Pin. A fleet that stays settled keeps its state pointer;
// one that settles again after anything unsettled it gets a new one.
func (c *Coordinator) settle() {
	c.settleMu.Lock()
	defer c.settleMu.Unlock()
	fs := c.fleet.Load()
	if ready, synced := c.vector(fs); !ready || !synced {
		c.settled.Store(nil)
		return
	}
	if cur := c.settled.Load(); cur == nil || cur.Epoch != fs.Epoch {
		st := fs.EpochState
		c.settled.Store(&st)
	}
}

// unsettle serves everything live until the next decision: a request
// saw the fleet degraded before the heartbeat round that will say so
// had ended.
func (c *Coordinator) unsettle() {
	c.settleMu.Lock()
	c.settled.Store(nil)
	c.settleMu.Unlock()
}

// degradedReason is "" when every shard is up and ready, else one
// human-readable line naming the failing shards.
func (c *Coordinator) degradedReason() string {
	var bad []string
	for _, sh := range c.shards {
		sh.mu.Lock()
		if !sh.up || !sh.ready {
			bad = append(bad, fmt.Sprintf("shard %d: %s", sh.id, sh.lastErr))
		}
		sh.mu.Unlock()
	}
	if len(bad) == 0 {
		return ""
	}
	return fmt.Sprintf("%d of %d shards unavailable (%s)", len(bad), len(c.shards), bad[0])
}

func (c *Coordinator) degraded() bool { return c.degradedReason() != "" }

// FleetEpoch returns the epoch of the last completed sync (0 before
// the first).
func (c *Coordinator) FleetEpoch() uint64 {
	if fs := c.fleet.Load(); fs != nil {
		return fs.Epoch
	}
	return 0
}

// Shards reports per-shard membership for /statusz.
func (c *Coordinator) Shards() []ShardStatus {
	out := make([]ShardStatus, 0, len(c.shards))
	for _, sh := range c.shards {
		sh.mu.Lock()
		st := ShardStatus{
			ID: sh.id, URL: sh.url, Up: sh.up, Ready: sh.ready,
			Epoch: sh.info.Epoch, CloseDay: sh.info.CloseDay,
			Domains: sh.info.Domains, Zones: sh.info.Zones,
			LastSeen: sh.lastSeen, Err: sh.lastErr,
		}
		sh.mu.Unlock()
		out = append(out, st)
	}
	return out
}
