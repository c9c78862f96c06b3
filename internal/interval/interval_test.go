package interval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dates"
)

func r(a, b int) dates.Range { return dates.NewRange(dates.Day(a), dates.Day(b)) }

func TestAddMerging(t *testing.T) {
	var s Set
	s.Add(r(10, 20))
	s.Add(r(30, 40))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// Adjacent ranges merge.
	s.Add(r(21, 29))
	if s.Len() != 1 || s.First() != 10 || s.Last() != 40 {
		t.Fatalf("after bridging: %v", s.String())
	}
	// Overlapping extension.
	s.Add(r(35, 50))
	if s.Len() != 1 || s.Last() != 50 {
		t.Fatalf("after overlap: %v", s.String())
	}
	// Disjoint before.
	s.Add(r(1, 3))
	if s.Len() != 2 || s.First() != 1 {
		t.Fatalf("after prepend: %v", s.String())
	}
	// Empty range is a no-op.
	s.Add(r(100, 90))
	if s.Len() != 2 {
		t.Fatalf("empty add changed set: %v", s.String())
	}
}

func TestContainsAndTotal(t *testing.T) {
	s := FromRanges(r(5, 7), r(10, 10), r(20, 25))
	for _, d := range []int{5, 6, 7, 10, 20, 25} {
		if !s.Contains(dates.Day(d)) {
			t.Errorf("should contain %d", d)
		}
	}
	for _, d := range []int{4, 8, 9, 11, 19, 26} {
		if s.Contains(dates.Day(d)) {
			t.Errorf("should not contain %d", d)
		}
	}
	if s.TotalDays() != 3+1+6 {
		t.Errorf("TotalDays = %d", s.TotalDays())
	}
}

// TestAgainstNaiveModel drives random operations against a map-based
// model and checks full agreement — the core correctness property.
func TestAgainstNaiveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var s Set
		model := map[dates.Day]bool{}
		for op := 0; op < 40; op++ {
			a := rng.Intn(120)
			b := a + rng.Intn(15)
			s.Add(r(a, b))
			for d := a; d <= b; d++ {
				model[dates.Day(d)] = true
			}
		}
		total := 0
		for d := dates.Day(-5); d < 150; d++ {
			if s.Contains(d) != model[d] {
				t.Fatalf("trial %d: disagreement at %d", trial, d)
			}
			if model[d] {
				total++
			}
		}
		if s.TotalDays() != total {
			t.Fatalf("trial %d: TotalDays = %d, model %d", trial, s.TotalDays(), total)
		}
		// Normal form: sorted, non-overlapping, non-adjacent.
		spans := s.Spans()
		for i := 1; i < len(spans); i++ {
			if spans[i].First <= spans[i-1].Last+1 {
				t.Fatalf("trial %d: not normalized: %v", trial, s.String())
			}
		}
	}
}

func TestIntersect(t *testing.T) {
	a := FromRanges(r(0, 10), r(20, 30), r(40, 50))
	b := FromRanges(r(5, 25), r(45, 60))
	got := a.Intersect(&b)
	want := FromRanges(r(5, 10), r(20, 25), r(45, 50))
	if got.String() != want.String() {
		t.Fatalf("Intersect = %v, want %v", got.String(), want.String())
	}
	empty := Set{}
	if out := a.Intersect(&empty); !out.Empty() {
		t.Error("intersect with empty should be empty")
	}
}

func TestUnionProperty(t *testing.T) {
	f := func(seeds []uint8) bool {
		var a, b Set
		for i, v := range seeds {
			start := int(v)
			if i%2 == 0 {
				a.Add(r(start, start+3))
			} else {
				b.Add(r(start, start+3))
			}
		}
		u := a.Union(&b)
		for d := dates.Day(0); d < 300; d++ {
			if u.Contains(d) != (a.Contains(d) || b.Contains(d)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClip(t *testing.T) {
	s := FromRanges(r(0, 10), r(20, 30))
	c := s.Clip(r(5, 25))
	if c.TotalDays() != 6+6 {
		t.Fatalf("Clip = %v", c.String())
	}
	if out := s.Clip(r(100, 200)); !out.Empty() {
		t.Error("clip outside should be empty")
	}
}

func TestNextOnOrAfter(t *testing.T) {
	s := FromRanges(r(10, 12), r(20, 22))
	cases := map[dates.Day]dates.Day{
		0: 10, 10: 10, 12: 12, 13: 20, 22: 22, 23: dates.None,
	}
	for in, want := range cases {
		if got := s.NextOnOrAfter(in); got != want {
			t.Errorf("NextOnOrAfter(%d) = %v, want %v", in, got, want)
		}
	}
}

func TestFirstLastEmpty(t *testing.T) {
	var s Set
	if !s.Empty() || s.First() != dates.None || s.Last() != dates.None {
		t.Error("zero set misbehaves")
	}
	if s.String() != "{}" {
		t.Errorf("empty String = %q", s.String())
	}
	s.Add(dates.NewRange(7, 7))
	if s.Empty() || s.First() != 7 || s.Last() != 7 {
		t.Error("single-day set misbehaves")
	}
}

func TestClone(t *testing.T) {
	a := FromRanges(r(1, 5))
	b := a.Clone()
	b.Add(r(10, 20))
	if a.TotalDays() != 5 {
		t.Error("Clone shares storage with original")
	}
}

func TestFromNormalized(t *testing.T) {
	// Whatever Add builds is in normal form and is adopted as is, sharing
	// the slice it was given.
	built := FromRanges(r(20, 30), r(0, 10), r(40, 40))
	spans := append([]dates.Range(nil), built.Spans()...)
	s, err := FromNormalized(spans)
	if err != nil {
		t.Fatalf("FromNormalized(%v): %v", spans, err)
	}
	if s.String() != built.String() {
		t.Fatalf("adopted %v, want %v", s.String(), built.String())
	}
	if &s.Spans()[0] != &spans[0] {
		t.Error("FromNormalized copied the slice")
	}
	if s, err := FromNormalized(nil); err != nil || !s.Empty() {
		t.Errorf("FromNormalized(nil) = %v, %v; want the empty set", s.String(), err)
	}

	top := dates.Day(1<<31 - 1)
	for _, tc := range []struct {
		name  string
		spans []dates.Range
	}{
		{"inverted", []dates.Range{r(5, 4)}},
		{"inverted later span", []dates.Range{r(0, 1), r(9, 3)}},
		{"overlapping", []dates.Range{r(0, 10), r(10, 20)}},
		{"adjacent", []dates.Range{r(0, 10), r(11, 20)}},
		{"descending", []dates.Range{r(20, 30), r(0, 10)}},
		{"duplicate", []dates.Range{r(0, 10), r(0, 10)}},
		{"adjacent across the top of the day range", []dates.Range{dates.NewRange(0, top), dates.NewRange(-1<<31, -5)}},
	} {
		if s, err := FromNormalized(tc.spans); err == nil {
			t.Errorf("%s: accepted as %v", tc.name, s.String())
		}
	}
}

// TestFromNormalizedCappedSliceDoesNotGrowIntoNeighbour is the contract a
// slab-carving decoder relies on: with the slice capped at its length, a
// mutation of one set leaves the next set's spans alone.
func TestFromNormalizedCappedSliceDoesNotGrowIntoNeighbour(t *testing.T) {
	slab := []dates.Range{r(0, 1), r(10, 11), r(20, 21)}
	a, err := FromNormalized(slab[0:1:1])
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromNormalized(slab[1:3:3])
	if err != nil {
		t.Fatal(err)
	}
	a.Add(r(5, 6))
	a.Add(r(30, 31))
	if got, want := b.String(), FromRanges(r(10, 11), r(20, 21)); got != want.String() {
		t.Fatalf("neighbour changed to %v", got)
	}
	if got, want := a.String(), FromRanges(r(0, 1), r(5, 6), r(30, 31)); got != want.String() {
		t.Fatalf("grown set = %v", got)
	}
}
