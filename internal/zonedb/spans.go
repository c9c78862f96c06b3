package zonedb

import (
	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/interval"
)

// fact is what the tables hold for one key: the spans that removal events
// ended, and the open span, if there is one.
//
// An open span runs from start through the day the fact's zone is sealed
// through (tables.sealedThrough), and is produced on read: Close moves
// the zone's day and leaves the fact alone. The exception is an eager
// fact, opened on or before its zone's day: by an event back-dated into
// days already sealed, or by absorb from a database that sealed its zone
// through an earlier day. Readers show no open span for it; each seal
// writes the days it covers into spans (sealEager) until a seal reaches
// its zone's day, when it becomes an ordinary open fact. The seals since
// it opened, not the zone's latest, say how far it is shown. The tables
// list eager facts' keys (tables.eager), so a seal visits only those.
type fact struct {
	spans *interval.Set // nil until a span ends
	start dates.Day     // first day of the open span, if open
	open  bool
	eager bool
}

func (e Edge) zone() dnsname.Name { return e.Domain.TLD() }

// sealedThrough returns the day the zone of name (the zone itself, or a
// name in it) is sealed through: the later of the latest Close and the
// latest CloseZones that named it, dates.None if neither did.
func (t *tables) sealedThrough(name dnsname.Name) dates.Day {
	s := t.sealAll
	if len(t.sealZone) > 0 {
		if d, ok := t.sealZone[name.TLD()]; ok && d > s {
			s = d
		}
	}
	return s
}

// book adds open fact f, keyed k in zone, to the tables' bookkeeping
// (n = 1) or takes it out (n = -1): an eager fact's key to or from keys,
// its table's eager keys, any other's to or from its zone's shown count.
func book[K comparable](t *tables, keys *map[K]bool, k K, zone dnsname.Name, f fact, n int) {
	switch {
	case !f.open:
	case f.eager:
		mark(keys, k, n > 0)
	default:
		if t.shown == nil {
			t.shown = make(map[dnsname.Name]int)
		}
		t.shown[zone] += n
	}
}

// openPast reports whether, once Close(day) has sealed, an open fact's
// next unsealed day is later than day+1: a fact that is not eager in a
// zone sealed past day, or an eager one opening after day+1. (A fact that
// is not eager and opens after day+1 was opened by an event dated after
// day, which the horizon already tells.) It reads the per-zone counts and
// the eager keys, not the fact maps.
func (t *tables) openPast(day dates.Day) bool {
	for zone, n := range t.shown {
		if n > 0 && t.sealedThrough(zone) > day {
			return true
		}
	}
	return opensAfter(t.edges, t.eager.edges, day+1) || opensAfter(t.domains, t.eager.domains, day+1) ||
		opensAfter(t.glue, t.eager.glue, day+1)
}

func opensAfter[K comparable](m map[K]fact, keys map[K]bool, day dates.Day) bool {
	for k := range keys {
		if m[k].start > day {
			return true
		}
	}
	return false
}

// noSpans is the spans of a fact no span of which has ended. Like every
// set a reader is handed, it must not be modified.
var noSpans interval.Set

// noTail is the open span of a fact that shows none.
var noTail = dates.Range{First: 1, Last: 0}

// factSpans is a fact's spans as readers see them: the ended spans and
// the open span through its zone's sealed-through day. The two may touch
// or overlap.
type factSpans struct {
	ended *interval.Set // never nil
	tail  dates.Range   // empty when the fact shows no open span
}

// spansOf is the one accessor: every query, walker and encoder reads a
// fact's spans through it. name is the fact's domain or host name, whose
// zone says how far an open span is sealed.
func (t *tables) spansOf(f fact, name dnsname.Name) factSpans {
	sealed := dates.None
	if f.open && !f.eager {
		sealed = t.sealedThrough(name)
	}
	return f.shown(sealed)
}

// shown is spansOf for a caller that looked up, once for many facts of
// one zone, the day the zone is sealed through.
func (f fact) shown(sealed dates.Day) factSpans {
	s := factSpans{ended: f.spans, tail: noTail}
	if s.ended == nil {
		s.ended = &noSpans
	}
	if f.open && !f.eager {
		s.tail = dates.NewRange(f.start, sealed)
	}
	return s
}

func (s factSpans) contains(day dates.Day) bool {
	return s.tail.Contains(day) || s.ended.Contains(day)
}

// first returns the earliest day, or dates.None.
func (s factSpans) first() dates.Day {
	first := s.ended.First()
	if !s.tail.Empty() && (first == dates.None || s.tail.First < first) {
		first = s.tail.First
	}
	return first
}

// nextOnOrAfter returns the first day >= day, or dates.None.
func (s factSpans) nextOnOrAfter(day dates.Day) dates.Day {
	next := s.ended.NextOnOrAfter(day)
	if s.tail.Empty() || s.tail.Last < day {
		return next
	}
	if t := dates.Max(day, s.tail.First); next == dates.None || t < next {
		next = t
	}
	return next
}

// set returns the spans as one set: the ended set itself when no open span
// shows, else a new set, carved from a when there is one.
func (s factSpans) set(a *slab) *interval.Set {
	if s.tail.Empty() {
		return s.ended
	}
	n := s.ended.Len() + 1
	if a == nil {
		out := s.ended.Plus(s.tail, make([]dates.Range, 0, n))
		return &out
	}
	return a.carve(s, n)
}

// slab hands out the sets a walk builds from two shared arrays, so a walk
// allocates a few times, not once per fact. A set is never handed out
// twice: a caller may keep what it is given.
type slab struct {
	facts int // how many facts the walk visits: at most this many sets
	sets  []interval.Set
	spans []dates.Range
}

func (a *slab) carve(s factSpans, n int) *interval.Set {
	if len(a.sets) == 0 {
		a.sets = make([]interval.Set, max(a.facts, 1))
	}
	if len(a.spans) < n {
		a.spans = make([]dates.Range, max(n, a.facts+a.facts/4))
	}
	out := &a.sets[0]
	*out = s.ended.Plus(s.tail, a.spans[:0:n])
	a.sets, a.spans = a.sets[1:], a.spans[n:]
	return out
}
