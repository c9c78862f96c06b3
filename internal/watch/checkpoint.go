package watch

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/idioms"
	"repro/internal/interval"
	"repro/internal/registry"
	"repro/internal/whois"
)

// checkpointVersion guards the serialized layout. Bump on any change to
// Checkpoint or nsState JSON shapes.
const checkpointVersion = 1

// Checkpoint is the engine's complete serialized state: applying the
// same delta stream to a restored engine continues exactly where the
// saved one stopped, with the alert sequence intact. Everything is
// sorted before encoding so the same engine state always produces the
// same bytes (restartable daemons can diff checkpoints in tests).
//
// The registration-watch index is deliberately absent: it is derivable
// (every still-standing hijackable, collision-free sacrificial name
// whose registrable domain has not yet been registered is watching) and
// rebuilding it on restore keeps the format smaller and harder to
// corrupt.
type Checkpoint struct {
	Version int           `json:"version"`
	LastDay dates.Day     `json:"last_day"`
	Seq     uint64        `json:"seq"`
	Funnel  detect.Funnel `json:"funnel"`

	Glue    []dnsname.Name `json:"glue,omitempty"`
	Domains []dnsname.Name `json:"domains,omitempty"`
	Edges   []edgeRec      `json:"edges,omitempty"`
	Seen    []seenRec      `json:"seen,omitempty"`
	Cands   []*nsState     `json:"candidates,omitempty"`
}

// edgeRec is one active delegation.
type edgeRec struct {
	Domain dnsname.Name `json:"domain"`
	NS     dnsname.Name `json:"ns"`
}

// seenRec records a nameserver's first appearance.
type seenRec struct {
	NS    dnsname.Name `json:"ns"`
	First dates.Day    `json:"first"`
}

// Checkpoint captures the engine's current state. The engine remains
// usable; the snapshot shares no mutable structures with it (interval
// sets are cloned).
func (e *Engine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Version: checkpointVersion,
		LastDay: e.last,
		Seq:     e.seq,
		Funnel:  e.funnel,
	}
	cp.Glue = sortedNames(e.glue)
	cp.Domains = sortedNames(e.doms)
	for dom, set := range e.active {
		for ns := range set {
			cp.Edges = append(cp.Edges, edgeRec{Domain: dom, NS: ns})
		}
	}
	sort.Slice(cp.Edges, func(i, j int) bool {
		if cp.Edges[i].Domain != cp.Edges[j].Domain {
			return cp.Edges[i].Domain < cp.Edges[j].Domain
		}
		return cp.Edges[i].NS < cp.Edges[j].NS
	})
	for ns, first := range e.seen {
		cp.Seen = append(cp.Seen, seenRec{NS: ns, First: first})
	}
	sort.Slice(cp.Seen, func(i, j int) bool { return cp.Seen[i].NS < cp.Seen[j].NS })
	for _, st := range e.cand {
		cp.Cands = append(cp.Cands, st.clone())
	}
	sort.Slice(cp.Cands, func(i, j int) bool { return cp.Cands[i].NS < cp.Cands[j].NS })
	return cp
}

// Save writes the checkpoint as indented JSON.
func (cp *Checkpoint) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(cp)
}

// Save is shorthand for Checkpoint().Save(w).
func (e *Engine) Save(w io.Writer) error { return e.Checkpoint().Save(w) }

// Restore rebuilds an engine from a saved checkpoint, wiring the same
// side inputs New takes. The registration-watch index is reconstructed
// from the candidate records, so a checkpoint that names no candidate,
// names one twice, gives one a phase outside the four the engine uses,
// or a null span set is refused: any of them would crash the engine or
// let one registration raise two hijack alerts.
func Restore(r io.Reader, wh *whois.History, dir *registry.Directory) (*Engine, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("watch: decoding checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("watch: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	e := New(wh, dir)
	e.last = cp.LastDay
	e.seq = cp.Seq
	e.funnel = cp.Funnel
	for _, h := range cp.Glue {
		e.glue[h] = true
	}
	for _, d := range cp.Domains {
		e.doms[d] = true
	}
	for _, ed := range cp.Edges {
		set := e.active[ed.Domain]
		if set == nil {
			set = make(map[dnsname.Name]bool)
			e.active[ed.Domain] = set
		}
		set[ed.NS] = true
	}
	for _, s := range cp.Seen {
		e.seen[s.NS] = s.First
	}
	for i, st := range cp.Cands {
		switch {
		case st == nil || st.NS == "":
			return nil, fmt.Errorf("watch: checkpoint candidate %d has no name", i)
		case e.cand[st.NS] != nil:
			return nil, fmt.Errorf("watch: checkpoint lists candidate %s twice", st.NS)
		case st.Phase < detect.OutUnclassified || st.Phase > detect.OutSacrificial:
			return nil, fmt.Errorf("watch: checkpoint candidate %s has unknown phase %d", st.NS, st.Phase)
		}
		for dom, spans := range st.Domains {
			if spans == nil {
				return nil, fmt.Errorf("watch: checkpoint candidate %s has no spans for %s", st.NS, dom)
			}
		}
		e.cand[st.NS] = st
		if st.Phase == detect.OutSacrificial && st.Class == idioms.Hijackable &&
			!st.Collision && st.RegDomain != "" && st.HijackedOn == dates.None {
			e.regWatch[st.RegDomain] = append(e.regWatch[st.RegDomain], st.NS)
		}
	}
	return e, nil
}

// clone deep-copies the candidate state for the snapshot.
func (st *nsState) clone() *nsState {
	out := *st
	if st.Operators != nil {
		out.Operators = make(map[string]bool, len(st.Operators))
		for k, v := range st.Operators {
			out.Operators[k] = v
		}
	}
	if st.Domains != nil {
		out.Domains = make(map[dnsname.Name]*interval.Set, len(st.Domains))
		for k, v := range st.Domains {
			c := v.Clone()
			out.Domains[k] = &c
		}
	}
	if st.Open != nil {
		out.Open = make(map[dnsname.Name]dates.Day, len(st.Open))
		for k, v := range st.Open {
			out.Open[k] = v
		}
	}
	return &out
}

func sortedNames(m map[dnsname.Name]bool) []dnsname.Name {
	if len(m) == 0 {
		return nil
	}
	out := make([]dnsname.Name, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
