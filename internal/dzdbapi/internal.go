package dzdbapi

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
)

// The /v1/internal/ routes are the shard-to-coordinator surface, mounted
// only on a server given a shard identity (SetShardIdentity): dzdbd
// never serves them. They ride the same middleware, ETag, and cache
// layers as the public v1 routes (responses are epoch-addressable like
// everything else) but are not part of the public API.

// ShardInfoResponse is the /v1/internal/shard-info payload — the
// answer to the probe the cluster coordinator sends on every sync.
// ShardID/ShardCount echo the partition SetShardIdentity recorded, so
// the coordinator can reject a misconfigured fleet member; Epoch and
// CloseDay identify the sealed generation currently served. Epochs are
// numbered per process, so Instance, drawn once per server, tells a
// restarted shard that is back on its old epoch number from the
// process it replaced.
type ShardInfoResponse struct {
	ShardID    int    `json:"shard_id"`
	ShardCount int    `json:"shard_count"`
	Instance   string `json:"instance"`
	Epoch      uint64 `json:"epoch"`
	Ready      bool   `json:"ready"`
	CloseDay   string `json:"close_day,omitempty"`
	Domains    int    `json:"domains"`
	Zones      int    `json:"zones"`
}

// NSExposureResponse is one page of /v1/internal/ns-exposure: every
// nameserver observed by this shard, sorted by name, with its delegated
// domain count and domain-days. A nameserver serves domains in many
// zones, so per-shard counts cannot simply be summed per shard-local
// top-K — the coordinator pulls the complete table from every shard and
// merges by name to get exact fleet-wide distinct counts and a correct
// global leaderboard.
type NSExposureResponse struct {
	Rows       []TopNameserver `json:"rows"`
	NextCursor string          `json:"next_cursor,omitempty"`
}

// SetShardIdentity makes the server shard id of count in a
// coordinator's fleet: it records the partition, echoed on
// /v1/internal/shard-info, and mounts the two internal routes. Call it
// once, before serving.
func (s *Server) SetShardIdentity(id, count int) {
	s.shardID, s.shardCount = id, count
	s.Handle("/v1/internal/shard-info", s.handleShardInfo)
	s.Handle("/v1/internal/ns-exposure", s.handleNSExposure)
}

func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request, st *EpochState) {
	resp := ShardInfoResponse{
		ShardID:    s.shardID,
		ShardCount: s.shardCount,
		Instance:   fmt.Sprintf("%016x", s.salt),
		Domains:    st.Stats.Domains,
		Zones:      len(st.Stats.Zones),
	}
	if v := st.view; v.Closed() {
		resp.Epoch = v.Epoch()
		resp.Ready = true
		resp.CloseDay = v.CloseDay().String()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleNSExposure(w http.ResponseWriter, r *http.Request, st *EpochState) {
	p, ok := ParsePage(w, r, maxNSExposurePage)
	if !ok {
		return
	}
	rows := st.exposure
	start, end, next := p.window(len(rows), func(i int) string { return rows[i].Nameserver })
	writeJSON(w, http.StatusOK, NSExposureResponse{Rows: rows[start:end], NextCursor: next})
}

// ShardInfo fetches the shard's probe payload.
func (c *Client) ShardInfo(ctx context.Context) (*ShardInfoResponse, error) {
	var out ShardInfoResponse
	if err := c.getJSON(ctx, "shard_info", "/v1/internal/shard-info", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// NSExposure fetches one page of the shard's complete nameserver
// exposure table (cursor "" starts it; limit 0 asks for the server's
// largest page).
func (c *Client) NSExposure(ctx context.Context, cursor string, limit int) (*NSExposureResponse, error) {
	q := url.Values{}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	path := "/v1/internal/ns-exposure"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out NSExposureResponse
	if err := c.getJSON(ctx, "ns_exposure", path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
