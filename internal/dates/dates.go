// Package dates provides a compact civil-date representation used across
// the data plane.
//
// The measurement pipeline works with daily zone-file snapshots spanning
// almost a decade, so dates are stored as Day values: the number of days
// since an arbitrary epoch (2000-01-01). Day arithmetic is plain integer
// arithmetic, comparisons are cheap, and values pack tightly into indexes.
// time.Time is deliberately avoided in the data plane: it is 24 bytes, has
// wall-clock and timezone semantics the pipeline never needs, and makes
// deterministic simulation harder to audit.
package dates

import (
	"errors"
	"fmt"
	"strconv"
)

// Day is a civil date encoded as days since 2000-01-01 (Day 0).
// Negative values are valid and refer to dates before the epoch.
type Day int32

// None is a sentinel for "no date". It is far outside any simulated range.
const None Day = -1 << 30

// Epoch components of Day 0.
const (
	epochYear  = 2000
	epochMonth = 1
	epochDay   = 1
)

var daysBefore = [13]int32{0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365}

// IsLeap reports whether year is a leap year in the proleptic Gregorian
// calendar.
func IsLeap(year int) bool {
	return year%4 == 0 && (year%100 != 0 || year%400 == 0)
}

// daysInMonth returns the number of days in the given month of the given
// year. month is 1-based.
func daysInMonth(year, month int) int {
	if month == 2 && IsLeap(year) {
		return 29
	}
	return int(daysBefore[month] - daysBefore[month-1])
}

// daysFromCivil converts a civil date to days since 1970-01-01 using
// Howard Hinnant's algorithm, then the caller rebases to the 2000 epoch.
func daysFromCivil(y, m, d int) int64 {
	if m <= 2 {
		y--
	}
	var era int64
	if y >= 0 {
		era = int64(y) / 400
	} else {
		era = (int64(y) - 399) / 400
	}
	yoe := int64(y) - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468       // days since 1970-01-01
}

// civilFromDays is the inverse of daysFromCivil.
func civilFromDays(z int64) (y, m, d int) {
	z += 719468
	var era int64
	if z >= 0 {
		era = z / 146097
	} else {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	yy := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	d = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		yy++
	}
	return int(yy), m, d
}

var epochOffset = daysFromCivil(epochYear, epochMonth, epochDay)

// FromYMD returns the Day for the given civil date. It panics if the date
// is not a valid calendar date; use Parse for untrusted input.
func FromYMD(year, month, day int) Day {
	if month < 1 || month > 12 || day < 1 || day > daysInMonth(year, month) {
		panic(fmt.Sprintf("dates: invalid date %04d-%02d-%02d", year, month, day))
	}
	return Day(daysFromCivil(year, month, day) - epochOffset)
}

// YMD returns the civil date components of d.
func (d Day) YMD() (year, month, day int) {
	return civilFromDays(int64(d) + epochOffset)
}

// Month returns the Month containing d.
func (d Day) Month() Month {
	y, m, _ := d.YMD()
	return MonthOf(y, m)
}

// String formats d as YYYY-MM-DD. The None sentinel formats as "none".
func (d Day) String() string {
	var b [16]byte
	return string(d.AppendTo(b[:0]))
}

// AppendTo appends d as String formats it to b and returns the result.
func (d Day) AppendTo(b []byte) []byte {
	if d == None {
		return append(b, "none"...)
	}
	y, m, dd := d.YMD()
	b = append(appendPadded(b, y, 4), '-')
	b = append(appendPadded(b, m, 2), '-')
	return appendPadded(b, dd, 2)
}

// appendPadded appends v to b as fmt's %0*d writes it: zero-padded to
// width, a minus sign counted in the width.
func appendPadded(b []byte, v, width int) []byte {
	if v < 0 {
		b, v, width = append(b, '-'), -v, width-1
	}
	digits := 1
	for x := v; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(v), 10)
}

// Valid reports whether d is a real date (not the None sentinel).
func (d Day) Valid() bool { return d != None }

// Add returns d shifted by n days.
func (d Day) Add(n int) Day { return d + Day(n) }

// AddYears returns the date one or more calendar years after d, clamping
// Feb 29 to Feb 28 in non-leap years. This mirrors domain registration
// terms, which are calendar years.
func (d Day) AddYears(n int) Day {
	y, m, dd := d.YMD()
	y += n
	if dim := daysInMonth(y, m); dd > dim {
		dd = dim
	}
	return FromYMD(y, m, dd)
}

// Sub returns the number of days from other to d (d - other).
func (d Day) Sub(other Day) int { return int(d - other) }

// Parse parses a YYYY-MM-DD string.
func Parse(s string) (Day, error) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return None, fmt.Errorf("dates: malformed date %q", s)
	}
	num := func(part string) (int, error) {
		n := 0
		for _, c := range part {
			if c < '0' || c > '9' {
				return 0, errors.New("dates: non-digit in date")
			}
			n = n*10 + int(c-'0')
		}
		return n, nil
	}
	y, err := num(s[0:4])
	if err != nil {
		return None, err
	}
	m, err := num(s[5:7])
	if err != nil {
		return None, err
	}
	dd, err := num(s[8:10])
	if err != nil {
		return None, err
	}
	if m < 1 || m > 12 || dd < 1 || dd > daysInMonth(y, m) {
		return None, fmt.Errorf("dates: invalid date %q", s)
	}
	return FromYMD(y, m, dd), nil
}

// Min returns the earlier of a and b.
func Min(a, b Day) Day {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of a and b.
func Max(a, b Day) Day {
	if a > b {
		return a
	}
	return b
}

// Month identifies a calendar month as year*12 + (month-1), supporting
// cheap monthly bucketing for the longitudinal figures.
type Month int32

// MonthOf returns the Month for the given year and 1-based month number.
func MonthOf(year, month int) Month {
	if month < 1 || month > 12 {
		panic(fmt.Sprintf("dates: invalid month %d", month))
	}
	return Month(year*12 + month - 1)
}

// Year returns the calendar year of m.
func (m Month) Year() int { return int(m) / 12 }

// MonthNumber returns the 1-based month-of-year of m.
func (m Month) MonthNumber() int { return int(m)%12 + 1 }

// String formats m as YYYY-MM.
func (m Month) String() string {
	return fmt.Sprintf("%04d-%02d", m.Year(), m.MonthNumber())
}

// MonthsBetween returns every month from first to last inclusive.
func MonthsBetween(first, last Month) []Month {
	if last < first {
		return nil
	}
	out := make([]Month, 0, int(last-first)+1)
	for m := first; m <= last; m++ {
		out = append(out, m)
	}
	return out
}

// Range is an inclusive span of days. A Range with Last < First is empty.
type Range struct {
	First Day
	Last  Day
}

// NewRange returns the inclusive range [first, last].
func NewRange(first, last Day) Range { return Range{First: first, Last: last} }

// Empty reports whether r contains no days.
func (r Range) Empty() bool { return r.Last < r.First }

// Days returns the number of days in r.
func (r Range) Days() int {
	if r.Empty() {
		return 0
	}
	return int(r.Last-r.First) + 1
}

// Contains reports whether d falls within r.
func (r Range) Contains(d Day) bool { return d >= r.First && d <= r.Last }

// Intersect returns the overlap of r and other (possibly empty).
func (r Range) Intersect(other Range) Range {
	return Range{First: Max(r.First, other.First), Last: Min(r.Last, other.Last)}
}

// String formats r as "[YYYY-MM-DD, YYYY-MM-DD]".
func (r Range) String() string {
	return fmt.Sprintf("[%s, %s]", r.First, r.Last)
}

// MarshalJSON encodes d as "YYYY-MM-DD" (the None sentinel as "none").
func (d Day) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 12)
	return append(d.AppendTo(append(b, '"')), '"'), nil
}

// UnmarshalJSON decodes "YYYY-MM-DD" or "none".
func (d *Day) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return fmt.Errorf("dates: malformed JSON day %s", s)
	}
	s = s[1 : len(s)-1]
	if s == "none" {
		*d = None
		return nil
	}
	parsed, err := Parse(s)
	if err != nil {
		return err
	}
	*d = parsed
	return nil
}

// MarshalJSON encodes m as "YYYY-MM".
func (m Month) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// UnmarshalJSON decodes "YYYY-MM".
func (m *Month) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) != 9 || s[0] != '"' || s[8] != '"' || s[5] != '-' {
		return fmt.Errorf("dates: malformed JSON month %s", s)
	}
	var year, month int
	if _, err := fmt.Sscanf(s[1:8], "%04d-%02d", &year, &month); err != nil {
		return err
	}
	if month < 1 || month > 12 {
		return fmt.Errorf("dates: invalid month %s", s)
	}
	*m = MonthOf(year, month)
	return nil
}
