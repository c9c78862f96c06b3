package detect

import (
	"repro/internal/registry"
	"repro/internal/whois"
	"repro/internal/zonedb"
)

// Option configures a Detector built with NewDetector. Options exist so
// Config stops growing a field per knob; new tuning should be an Option.
type Option func(*Detector)

// NewDetector wires a detection run over the three data sources the
// methodology reads: the zone database, the WHOIS history, and the
// registry-operator directory.
func NewDetector(db *zonedb.DB, wh *whois.History, dir *registry.Directory, opts ...Option) *Detector {
	d := &Detector{DB: db, WHOIS: wh, Dir: dir}
	for _, opt := range opts {
		opt(d)
	}
	return d
}

// WithWorkers shards the candidate-extraction stage across n
// goroutines. n <= 1 runs sequentially; output is identical either way.
func WithWorkers(n int) Option {
	return func(d *Detector) { d.Cfg.Workers = n }
}

// WithConfig replaces the whole Config (miner tuning, ablation switches).
// Apply it before per-field options like WithWorkers.
func WithConfig(cfg Config) Option {
	return func(d *Detector) { d.Cfg = cfg }
}
