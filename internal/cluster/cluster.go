// Package cluster is a coordinator over a sharded fleet of dzdbapi
// servers. A Coordinator fronts N servers that each serve one slice of
// a zone-hash partition (see zonedb.ShardOf / zonedb.View.FilterShard):
// it routes single-zone queries to the owning shard, scatter-gathers
// fleet-wide queries, and merges the per-shard delta feeds into one
// totally ordered feed that unchanged watch.Follower consumers can tail
// with exactly-once application. It has no heartbeat loop: a
// coordinator advances by SyncNow, which probes every shard and, when
// the fleet is ready on a new epoch vector, syncs. No program runs one;
// the serve-cluster benchmark drives it over in-process shards.
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
// end of each probe round and each sync. A settled fleet answers 304 to
// its validators and serves and fills its cache; any other request (a
// degraded fleet's "partial": true answers, or one between a shard's
// publish and the sync that follows it) is rendered live, without an
// ETag. A shard's publish therefore reaches every route at the next
// probe round.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dzdbapi"
	"repro/internal/faults"
)

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
	// heartbeat is how long a shard's breaker stays open, and so the
	// Retry-After hint of a request the fleet cannot answer.
	heartbeat = 2 * time.Second
	// syncTimeout bounds one fleet sync — the full scatter pull of
	// stats, exposure tables, and delta feeds.
	syncTimeout = 30 * time.Second
	// heartbeatTimeout bounds one probe, so a hung shard cannot stall
	// a round.
	heartbeatTimeout = 2 * time.Second
)

// Config describes the fleet a Coordinator fronts.
type Config struct {
	// Shards are the shard base URLs; index i must be the server given
	// the shard identity i of len(Shards) (dzdbapi.Server.SetShardIdentity).
	Shards []string
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
	data *dzdbapi.Client
	// proxy carries raw single-zone pass-through bodies (snapshots can
	// run to tens of MB, so it gets a longer deadline than the probe
	// client).
	proxy *http.Client

	mu      sync.Mutex
	up      bool
	ready   bool
	info    dzdbapi.ShardInfoResponse
	lastErr string
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

// Coordinator fronts the fleet. It is an http.Handler serving the same
// /v1 surface as a single dzdbd, through the same serving layer.
type Coordinator struct {
	*dzdbapi.Front

	shards []*shard

	fleet  atomic.Pointer[fleetState]
	epochN atomic.Uint64        // last assigned fleet epoch
	signal *dzdbapi.EpochSignal // broadcast on every completed sync
	syncMu sync.Mutex           // one fleet sync at a time

	// settled is what a settled fleet serves from — a copy of the last
	// sync's state, fresh each time the fleet settles — or nil when it is
	// not settled. settleMu orders the decisions.
	settleMu sync.Mutex
	settled  atomic.Pointer[dzdbapi.EpochState]
}

// New builds a coordinator for the given fleet. It serves 503
// not_synced until the first SyncNow completes.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	c := &Coordinator{signal: dzdbapi.NewEpochSignal()}
	for i, url := range cfg.Shards {
		br := &faults.Breaker{
			OpenTimeout: heartbeat,
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
		c.shards = append(c.shards, &shard{
			id:  i,
			url: url,
			hb:  &dzdbapi.Client{BaseURL: url, HTTPClient: &http.Client{Timeout: heartbeatTimeout}},
			data: &dzdbapi.Client{
				BaseURL: url,
				// Sync pulls move whole exposure tables and delta feeds,
				// far past the client's default 2s budget.
				HTTPClient: &http.Client{Timeout: syncTimeout},
				Breaker:    br,
				Retry:      &faults.Policy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond},
			},
			proxy: &http.Client{Timeout: 30 * time.Second},
		})
	}
	c.routes()
	return c, nil
}

// SyncNow runs one probe round and, if the fleet is ready on a new
// epoch vector, one synchronous fleet sync. It fails, naming the shard,
// while any shard is down, not ready or misconfigured; the coordinator
// then keeps serving the last complete sync, partial.
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
	return c.sync(ctx)
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
		// Unsettle before anything (a partial mark) can show the change;
		// only the end of the round settles again.
		c.unsettle()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
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
		if info.Ready {
			sh.lastErr = ""
		} else {
			sh.lastErr = "no sealed epoch yet"
		}
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
// saw the fleet degraded before the probe round that will say so had
// ended, or an answer was partial and must not be cached.
func (c *Coordinator) unsettle() {
	c.settleMu.Lock()
	c.settled.Store(nil)
	c.settleMu.Unlock()
}

// degraded reports whether any shard is down or not ready.
func (c *Coordinator) degraded() bool {
	for _, sh := range c.shards {
		if !sh.isReady() {
			return true
		}
	}
	return false
}
