package dates

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestFromYMDKnownDates(t *testing.T) {
	cases := []struct {
		y, m, d int
		want    Day
	}{
		{2000, 1, 1, 0},
		{2000, 1, 2, 1},
		{2000, 2, 29, 59}, // 2000 is a leap year
		{2000, 12, 31, 365},
		{2001, 1, 1, 366},
		{1999, 12, 31, -1},
	}
	for _, c := range cases {
		if got := FromYMD(c.y, c.m, c.d); got != c.want {
			t.Errorf("FromYMD(%d,%d,%d) = %d, want %d", c.y, c.m, c.d, got, c.want)
		}
	}
}

func TestYMDRoundTrip(t *testing.T) {
	f := func(n int32) bool {
		d := Day(n % 200000) // ~±547 years around 2000
		y, m, dd := d.YMD()
		return FromYMD(y, m, dd) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDayOrderingMatchesCalendar(t *testing.T) {
	if FromYMD(2011, 4, 1) >= FromYMD(2020, 9, 30) {
		t.Fatal("calendar order broken")
	}
	if FromYMD(2016, 2, 29).Add(1) != FromYMD(2016, 3, 1) {
		t.Fatal("leap-day arithmetic broken")
	}
}

func TestIsLeap(t *testing.T) {
	for year, want := range map[int]bool{2000: true, 1900: false, 2012: true, 2011: false, 2400: true} {
		if IsLeap(year) != want {
			t.Errorf("IsLeap(%d) = %v, want %v", year, IsLeap(year), want)
		}
	}
}

func TestAddYearsClampsLeapDay(t *testing.T) {
	d := FromYMD(2016, 2, 29)
	got := d.AddYears(1)
	if want := FromYMD(2017, 2, 28); got != want {
		t.Errorf("AddYears(1) from Feb 29 = %s, want %s", got, want)
	}
	if d.AddYears(4) != FromYMD(2020, 2, 29) {
		t.Errorf("AddYears(4) from Feb 29 should land on Feb 29 again")
	}
}

func TestParse(t *testing.T) {
	good := map[string]Day{
		"2000-01-01": 0,
		"2016-07-14": FromYMD(2016, 7, 14),
	}
	for s, want := range good {
		got, err := Parse(s)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	bad := []string{"", "2000-1-1", "2000/01/01", "2000-13-01", "2001-02-29", "20000101", "abcd-ef-gh"}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(n int32) bool {
		d := Day(n % 100000)
		back, err := Parse(d.String())
		return err == nil && back == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	if None.String() != "none" {
		t.Errorf("None.String() = %q", None.String())
	}
}

// TestStringMatchesSprintf holds the append-based String to the
// fmt.Sprintf form it replaced, on every day of years 0000-9999 and on
// days whose years fall outside them.
func TestStringMatchesSprintf(t *testing.T) {
	ref := func(d Day) string {
		y, m, dd := d.YMD()
		return fmt.Sprintf("%04d-%02d-%02d", y, m, dd)
	}
	check := func(d Day) {
		if got, want := d.String(), ref(d); got != want {
			t.Fatalf("Day(%d).String() = %q, want %q", d, got, want)
		}
	}
	for d := FromYMD(0, 1, 1); d <= FromYMD(9999, 12, 31); d++ {
		check(d)
	}
	for _, d := range []Day{
		FromYMD(-1, 12, 31), FromYMD(-9, 1, 1), FromYMD(-10, 6, 1), FromYMD(-99, 1, 1),
		FromYMD(-100, 1, 1), FromYMD(-999, 3, 1), FromYMD(-1000, 1, 1), FromYMD(-12345, 2, 28),
		FromYMD(10000, 1, 1), FromYMD(123456, 7, 4), None + 1, None - 1,
		math.MaxInt32, math.MinInt32,
	} {
		check(d)
	}
	if got := None.String(); got != "none" {
		t.Fatalf("None.String() = %q", got)
	}
	if got := string(None.AppendTo([]byte("x"))); got != "xnone" {
		t.Fatalf("None.AppendTo = %q", got)
	}
}

func TestMonth(t *testing.T) {
	m := FromYMD(2016, 7, 14).Month()
	if m.Year() != 2016 || m.MonthNumber() != 7 {
		t.Fatalf("Month() = %v", m)
	}
	if (m + 1).MonthNumber() != 8 {
		t.Errorf("m+1 = %v", m+1)
	}
	if MonthOf(2016, 12)+1 != MonthOf(2017, 1) {
		t.Errorf("year rollover broken")
	}
	if m.String() != "2016-07" {
		t.Errorf("Month.String() = %q", m.String())
	}
}

func TestMonthsBetween(t *testing.T) {
	ms := MonthsBetween(MonthOf(2011, 4), MonthOf(2011, 7))
	if len(ms) != 4 || ms[0] != MonthOf(2011, 4) || ms[3] != MonthOf(2011, 7) {
		t.Fatalf("MonthsBetween = %v", ms)
	}
	if MonthsBetween(MonthOf(2011, 7), MonthOf(2011, 4)) != nil {
		t.Error("reversed MonthsBetween should be nil")
	}
}

func TestRange(t *testing.T) {
	r := NewRange(FromYMD(2011, 4, 1), FromYMD(2011, 4, 10))
	if r.Days() != 10 {
		t.Errorf("Days() = %d", r.Days())
	}
	if !r.Contains(FromYMD(2011, 4, 10)) || r.Contains(FromYMD(2011, 4, 11)) {
		t.Error("Contains wrong at boundary")
	}
	empty := NewRange(5, 4)
	if !empty.Empty() || empty.Days() != 0 {
		t.Error("empty range misbehaves")
	}
	inter := r.Intersect(NewRange(FromYMD(2011, 4, 8), FromYMD(2011, 4, 20)))
	if inter.Days() != 3 {
		t.Errorf("Intersect days = %d, want 3", inter.Days())
	}
}

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Max(3, 5) != 5 || Min(5, 3) != 3 || Max(5, 3) != 5 {
		t.Error("Min/Max broken")
	}
}

func TestSub(t *testing.T) {
	a, b := FromYMD(2020, 9, 15), FromYMD(2020, 9, 10)
	if a.Sub(b) != 5 || b.Sub(a) != -5 {
		t.Error("Sub broken")
	}
}
