package watch

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
	"repro/internal/idioms"
	"repro/internal/interval"
	"repro/internal/registry"
	"repro/internal/whois"
	"repro/internal/zonedb"
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
	for i := range e.recs {
		r := &e.recs[i]
		if r.glue {
			cp.Glue = append(cp.Glue, r.name)
		}
		if r.reg {
			cp.Domains = append(cp.Domains, r.name)
		}
		for _, ns := range r.ns {
			cp.Edges = append(cp.Edges, edgeRec{Domain: r.name, NS: e.recs[ns].name})
		}
		if r.first != dates.None {
			cp.Seen = append(cp.Seen, seenRec{NS: r.name, First: r.first})
		}
	}
	slices.Sort(cp.Glue)
	slices.Sort(cp.Domains)
	slices.SortFunc(cp.Edges, func(a, b edgeRec) int {
		return zonedb.CompareEdges(zonedb.Edge(a), zonedb.Edge(b))
	})
	slices.SortFunc(cp.Seen, func(a, b seenRec) int { return dnsname.Compare(a.NS, b.NS) })
	for _, id := range e.cands {
		cp.Cands = append(cp.Cands, e.recs[id].cand.clone())
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
// let one registration raise two hijack alerts. The engine keeps one
// record per name, so a glue host, domain, edge or seen nameserver listed
// twice is refused too, as are a seen nameserver with no first day and
// an edge to a nameserver never seen: no engine saves those, and the last
// would let a nameserver's id be recycled while a domain still delegates
// to it.
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
		id := e.intern(h)
		if e.recs[id].glue {
			return nil, fmt.Errorf("watch: checkpoint lists glue for %s twice", h)
		}
		e.recs[id].glue = true
	}
	for _, d := range cp.Domains {
		id := e.intern(d)
		if e.recs[id].reg {
			return nil, fmt.Errorf("watch: checkpoint lists domain %s twice", d)
		}
		e.recs[id].reg = true
	}
	for _, s := range cp.Seen {
		if s.First == dates.None {
			return nil, fmt.Errorf("watch: checkpoint has no first day for nameserver %s", s.NS)
		}
		id := e.intern(s.NS)
		if e.recs[id].first != dates.None {
			return nil, fmt.Errorf("watch: checkpoint lists nameserver %s as seen twice", s.NS)
		}
		e.recs[id].first = s.First
	}
	for _, ed := range cp.Edges {
		nsID, ns := e.lookup(ed.NS)
		if ns == nil || ns.first == dates.None {
			return nil, fmt.Errorf("watch: checkpoint delegates %s to %s, a nameserver it never saw", ed.Domain, ed.NS)
		}
		domID := e.intern(ed.Domain)
		dom := &e.recs[domID]
		if slices.Contains(dom.ns, nsID) {
			return nil, fmt.Errorf("watch: checkpoint lists edge %s -> %s twice", ed.Domain, ed.NS)
		}
		dom.ns = append(dom.ns, nsID)
	}
	for i, st := range cp.Cands {
		switch {
		case st == nil || st.NS == "":
			return nil, fmt.Errorf("watch: checkpoint candidate %d has no name", i)
		case e.candidate(st.NS) != nil:
			return nil, fmt.Errorf("watch: checkpoint lists candidate %s twice", st.NS)
		case st.Phase < detect.OutUnclassified || st.Phase > detect.OutSacrificial:
			return nil, fmt.Errorf("watch: checkpoint candidate %s has unknown phase %d", st.NS, st.Phase)
		}
		for dom, spans := range st.Domains {
			if spans == nil {
				return nil, fmt.Errorf("watch: checkpoint candidate %s has no spans for %s", st.NS, dom)
			}
		}
		id := e.intern(st.NS)
		e.recs[id].cand = st
		e.cands = append(e.cands, id)
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
