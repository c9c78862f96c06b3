package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/dnszone"
	"repro/internal/interval"
	"repro/internal/sim"
	"repro/internal/zonedb"
)

// buildWorld simulates the standard ecosystem at scale from seed.
func buildWorld(scale float64, seed int64) (*sim.World, error) {
	cfg := sim.DefaultConfig(scale)
	cfg.Seed = seed
	w, err := sim.NewWorld(cfg)
	if err != nil {
		return nil, fmt.Errorf("building world: %w", err)
	}
	if err := w.Run(); err != nil {
		return nil, fmt.Errorf("simulating: %w", err)
	}
	if !w.ZoneDB().View().Closed() {
		return nil, fmt.Errorf("simulated view is not closed")
	}
	return w, nil
}

// archiveHash is the SHA-256 of a view's canonical archive — the
// equality the correctness checks compare databases by.
func archiveHash(v *zonedb.View) (string, error) {
	h := sha256.New()
	if err := v.WriteArchive(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// glueAddr is the address zonedb reconstructs glue with: the database
// keeps glue presence, not the address bytes.
var glueAddr = netip.MustParseAddr("192.0.2.1")

type edgeFact struct {
	edge  zonedb.Edge
	spans *interval.Set
}

type glueFact struct {
	host  dnsname.Name
	spans *interval.Set
}

// snapshotSweep yields the daily snapshots of every zone over a window
// of days, zone by zone and day by day, from the view's sealed interval
// sets. It collects the facts that touch the window once and walks them
// per day, so its cost follows the size of its output; View.SnapshotOn
// scans the whole database for every zone-day.
type snapshotSweep struct {
	zones       []dnsname.Name
	edges       map[dnsname.Name][]edgeFact
	glue        map[dnsname.Name][]glueFact
	first, last dates.Day

	zi  int
	day dates.Day
}

func newSnapshotSweep(v *zonedb.View, first, last dates.Day) *snapshotSweep {
	window := dates.NewRange(first, last)
	touches := func(s *interval.Set) bool {
		clipped := s.Clip(window)
		return !clipped.Empty()
	}
	sw := &snapshotSweep{
		zones: v.Zones(), first: first, last: last, day: first,
		edges: make(map[dnsname.Name][]edgeFact),
		glue:  make(map[dnsname.Name][]glueFact),
	}
	v.EachEdgeSpans(func(e zonedb.Edge, spans *interval.Set) bool {
		if touches(spans) {
			z := e.Domain.TLD()
			sw.edges[z] = append(sw.edges[z], edgeFact{e, spans})
		}
		return true
	})
	v.EachGlueSpans(func(h dnsname.Name, spans *interval.Set) bool {
		if touches(spans) {
			z := h.TLD()
			sw.glue[z] = append(sw.glue[z], glueFact{h, spans})
		}
		return true
	})
	for _, es := range sw.edges {
		sort.Slice(es, func(i, j int) bool {
			if es[i].edge.Domain != es[j].edge.Domain {
				return es[i].edge.Domain < es[j].edge.Domain
			}
			return es[i].edge.NS < es[j].edge.NS
		})
	}
	for _, gs := range sw.glue {
		sort.Slice(gs, func(i, j int) bool { return gs[i].host < gs[j].host })
	}
	return sw
}

// Next implements zonedb.SnapshotSource.
func (sw *snapshotSweep) Next() (*dnszone.Snapshot, string, error) {
	if sw.day > sw.last {
		sw.zi++
		sw.day = sw.first
	}
	if sw.zi >= len(sw.zones) {
		return nil, "", io.EOF
	}
	zone, day := sw.zones[sw.zi], sw.day
	sw.day++
	snap := dnszone.NewSnapshot(zone, day)
	for _, f := range sw.edges[zone] {
		if !f.spans.Contains(day) {
			continue
		}
		if n := len(snap.Delegations); n > 0 && snap.Delegations[n-1].Domain == f.edge.Domain {
			snap.Delegations[n-1].Nameservers = append(snap.Delegations[n-1].Nameservers, f.edge.NS)
		} else {
			snap.AddDelegation(f.edge.Domain, f.edge.NS)
		}
	}
	for _, f := range sw.glue[zone] {
		if f.spans.Contains(day) {
			snap.AddGlue(f.host, glueAddr)
		}
	}
	return snap, zoneFileName(zone, day), nil
}

func zoneFileName(zone dnsname.Name, day dates.Day) string {
	return fmt.Sprintf("%s-%s.zone", zone, day)
}

// fixture is the zone-file input of ingest-files as written to disk.
type fixture struct {
	dir         string
	paths       []string // zone-outer, chronological within a zone
	first, last dates.Day
	bytes       int64
	records     int64 // NS and glue lines
	delegations int64 // delegated domain-days
}

// writeZoneFiles writes one master file per zone-day of [first, last]
// into dir and verifies check sampled zone-days, drawn from rng, byte
// for byte against View.SnapshotOn.
func writeZoneFiles(v *zonedb.View, dir string, first, last dates.Day, check int, rng *rand.Rand) (*fixture, error) {
	sw := newSnapshotSweep(v, first, last)
	days := int(last-first) + 1
	sampled := make(map[string]bool, check)
	for total := len(sw.zones) * days; len(sampled) < check && len(sampled) < total; {
		sampled[zoneFileName(sw.zones[rng.Intn(len(sw.zones))], first+dates.Day(rng.Intn(days)))] = true
	}
	fx := &fixture{dir: dir, first: first, last: last}
	var buf, want bytes.Buffer
	for {
		snap, name, err := sw.Next()
		if err == io.EOF {
			return fx, nil
		}
		buf.Reset()
		if err := snap.Write(&buf); err != nil {
			return nil, err
		}
		if sampled[name] {
			want.Reset()
			if err := v.SnapshotOn(snap.Zone, snap.Date).Write(&want); err != nil {
				return nil, err
			}
			if !bytes.Equal(buf.Bytes(), want.Bytes()) {
				return nil, fmt.Errorf("fixture %s differs from View.SnapshotOn", name)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		fx.paths = append(fx.paths, name)
		fx.bytes += int64(buf.Len())
		fx.delegations += int64(len(snap.Delegations))
		fx.records += int64(len(snap.Glue))
		for _, d := range snap.Delegations {
			fx.records += int64(len(d.Nameservers))
		}
	}
}
