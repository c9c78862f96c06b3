// Package interval implements sorted sets of inclusive day intervals.
//
// The longitudinal zone database records, for every name, the spans of days
// during which the name was present (or resolvable). Those spans are sparse
// relative to the nine-year observation window, so they are stored as a
// normalized slice of non-overlapping, non-adjacent [First, Last] intervals
// sorted by First. All mutating operations preserve that normal form.
package interval

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dates"
)

// Set is a normalized collection of day intervals. The zero value is an
// empty set ready to use.
type Set struct {
	spans []dates.Range
}

// FromRanges builds a Set from arbitrary (possibly overlapping, unsorted)
// ranges. Empty ranges are ignored.
func FromRanges(ranges ...dates.Range) Set {
	var s Set
	for _, r := range ranges {
		s.Add(r)
	}
	return s
}

// FromNormalized adopts spans as a Set without copying or re-inserting:
// the slice must already be in normal form — every range non-empty,
// sorted by First, no two overlapping or adjacent — and FromNormalized
// verifies exactly that, reporting the first violation. The set owns
// spans afterwards. It exists for decoders that carve many sets out of
// one allocation; cap the slice (s[i:j:j]) so a later Add reallocates
// instead of growing into a neighbour.
func FromNormalized(spans []dates.Range) (Set, error) {
	for i, r := range spans {
		if r.Empty() {
			return Set{}, fmt.Errorf("interval: span %d %s is empty", i, r)
		}
		// Widened so Last+1 cannot wrap at the top of the Day range.
		if i > 0 && int64(r.First) <= int64(spans[i-1].Last)+1 {
			return Set{}, fmt.Errorf("interval: span %d %s overlaps, touches or precedes span %d %s", i, r, i-1, spans[i-1])
		}
	}
	return Set{spans: spans}, nil
}

// Add inserts the inclusive range r, merging with existing spans where they
// overlap or touch. Adding an empty range is a no-op.
func (s *Set) Add(r dates.Range) {
	if r.Empty() {
		return
	}
	// Find insertion window: spans that overlap or are adjacent to r.
	lo := sort.Search(len(s.spans), func(i int) bool {
		return s.spans[i].Last >= r.First-1
	})
	hi := sort.Search(len(s.spans), func(i int) bool {
		return s.spans[i].First > r.Last+1
	})
	if lo == hi {
		// No overlap: insert at lo.
		s.spans = append(s.spans, dates.Range{})
		copy(s.spans[lo+1:], s.spans[lo:])
		s.spans[lo] = r
		return
	}
	merged := dates.Range{
		First: dates.Min(r.First, s.spans[lo].First),
		Last:  dates.Max(r.Last, s.spans[hi-1].Last),
	}
	s.spans[lo] = merged
	s.spans = append(s.spans[:lo+1], s.spans[hi:]...)
}

// Contains reports whether day d is in the set.
func (s *Set) Contains(d dates.Day) bool {
	i := sort.Search(len(s.spans), func(i int) bool {
		return s.spans[i].Last >= d
	})
	return i < len(s.spans) && s.spans[i].First <= d
}

// Empty reports whether the set has no days.
func (s *Set) Empty() bool { return len(s.spans) == 0 }

// First returns the earliest day in the set, or dates.None if empty.
func (s *Set) First() dates.Day {
	if len(s.spans) == 0 {
		return dates.None
	}
	return s.spans[0].First
}

// Last returns the latest day in the set, or dates.None if empty.
func (s *Set) Last() dates.Day {
	if len(s.spans) == 0 {
		return dates.None
	}
	return s.spans[len(s.spans)-1].Last
}

// TotalDays returns the number of distinct days in the set.
func (s *Set) TotalDays() int {
	total := 0
	for _, r := range s.spans {
		total += r.Days()
	}
	return total
}

// Spans returns the normalized intervals. The returned slice is owned by
// the set and must not be modified.
func (s *Set) Spans() []dates.Range { return s.spans }

// Len returns the number of disjoint spans.
func (s *Set) Len() int { return len(s.spans) }

// Clone returns an independent copy of s.
func (s *Set) Clone() Set {
	out := Set{spans: make([]dates.Range, len(s.spans))}
	copy(out.spans, s.spans)
	return out
}

// Plus returns the union of s and r laid out in buf's backing array, which
// must have room for s.Len()+1 spans; s is unchanged. Like FromNormalized
// it lets a reader carve many sets out of one allocation: pass buf[:0:n]
// so the result cannot grow into a neighbour.
func (s *Set) Plus(r dates.Range, buf []dates.Range) Set {
	out := Set{spans: append(buf[:0], s.spans...)}
	out.Add(r)
	return out
}

// Intersect returns the set of days present in both s and other.
func (s *Set) Intersect(other *Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s.spans) && j < len(other.spans) {
		a, b := s.spans[i], other.spans[j]
		if ov := a.Intersect(b); !ov.Empty() {
			out.spans = append(out.spans, ov)
		}
		if a.Last < b.Last {
			i++
		} else {
			j++
		}
	}
	return out
}

// Union returns the set of days present in either s or other.
func (s *Set) Union(other *Set) Set {
	out := s.Clone()
	for _, r := range other.spans {
		out.Add(r)
	}
	return out
}

// Clip returns the subset of s falling within window.
func (s *Set) Clip(window dates.Range) Set {
	var out Set
	for _, r := range s.spans {
		if ov := r.Intersect(window); !ov.Empty() {
			out.spans = append(out.spans, ov)
		}
	}
	return out
}

// NextOnOrAfter returns the first day >= d that is in the set, or
// dates.None if there is none.
func (s *Set) NextOnOrAfter(d dates.Day) dates.Day {
	i := sort.Search(len(s.spans), func(i int) bool {
		return s.spans[i].Last >= d
	})
	if i == len(s.spans) {
		return dates.None
	}
	return dates.Max(d, s.spans[i].First)
}

// String formats the set as a comma-separated list of ranges.
func (s *Set) String() string {
	if len(s.spans) == 0 {
		return "{}"
	}
	parts := make([]string, len(s.spans))
	for i, r := range s.spans {
		parts[i] = r.String()
	}
	return fmt.Sprintf("{%s}", strings.Join(parts, ", "))
}

// MarshalJSON encodes the set as [["first","last"], ...].
func (s Set) MarshalJSON() ([]byte, error) {
	pairs := make([][2]dates.Day, 0, len(s.spans))
	for _, r := range s.spans {
		pairs = append(pairs, [2]dates.Day{r.First, r.Last})
	}
	return json.Marshal(pairs)
}

// UnmarshalJSON decodes the MarshalJSON form, re-normalizing.
func (s *Set) UnmarshalJSON(b []byte) error {
	var pairs [][2]dates.Day
	if err := json.Unmarshal(b, &pairs); err != nil {
		return err
	}
	*s = Set{}
	for _, p := range pairs {
		s.Add(dates.NewRange(p[0], p[1]))
	}
	return nil
}
