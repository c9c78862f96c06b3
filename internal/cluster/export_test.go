package cluster

import "context"

// HeartbeatOnce runs one membership round, and no sync: what the
// coordinator knows of its shards between two syncs.
func (c *Coordinator) HeartbeatOnce(ctx context.Context) { c.heartbeatOnce(ctx) }
