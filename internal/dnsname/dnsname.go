// Package dnsname provides canonical DNS name handling for the pipeline:
// normalization, validation, label access, and registered-domain (eTLD+1)
// extraction against a built-in public-suffix list covering the zones in
// the study.
//
// Names are stored as lower-case ASCII with no trailing dot. DNS name
// comparison is case-insensitive (RFC 1035 §2.3.3), and zone files mix
// cases freely, so normalizing once at the boundary lets the rest of the
// pipeline compare names with ==, use them as map keys, and sort them
// byte-wise.
package dnsname

import (
	"errors"
	"fmt"
	"strings"
)

// Name is a canonical (lower-case, no trailing dot) DNS name.
type Name string

// Errors returned by Parse and friends.
var (
	ErrEmpty        = errors.New("dnsname: empty name")
	ErrTooLong      = errors.New("dnsname: name exceeds 253 octets")
	ErrBadLabel     = errors.New("dnsname: invalid label")
	ErrLabelTooLong = errors.New("dnsname: label exceeds 63 octets")
)

// MaxNameLength is the maximum presentation length of a name (RFC 1035).
const MaxNameLength = 253

// MaxLabelLength is the maximum length of a single label (RFC 1035).
const MaxLabelLength = 63

// Canonical lower-cases s and strips a single trailing dot. It performs no
// validation; use Parse for untrusted input.
func Canonical(s string) Name {
	s = strings.TrimSuffix(s, ".")
	// Fast path: already lower-case ASCII.
	lower := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			lower = false
			break
		}
	}
	if !lower {
		s = strings.ToLower(s)
	}
	return Name(s)
}

// Parse validates and canonicalizes a presentation-format name.
// It accepts letters, digits, and hyphens within labels, plus underscore
// (seen in operational zone data), and rejects empty labels, leading or
// trailing hyphens, and over-long names or labels.
func Parse(s string) (Name, error) {
	n := Canonical(s)
	if n == "" {
		return "", ErrEmpty
	}
	if len(n) > MaxNameLength {
		return "", ErrTooLong
	}
	rest := string(n)
	for rest != "" {
		var label string
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			label, rest = rest[:i], rest[i+1:]
			if rest == "" {
				return "", fmt.Errorf("%w: empty trailing label in %q", ErrBadLabel, s)
			}
		} else {
			label, rest = rest, ""
		}
		if err := checkLabel(label); err != nil {
			return "", fmt.Errorf("%w in %q", err, s)
		}
	}
	return n, nil
}

// MustParse is Parse for trusted literals; it panics on error.
func MustParse(s string) Name {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

func checkLabel(label string) error {
	if label == "" {
		return fmt.Errorf("%w: empty label", ErrBadLabel)
	}
	if len(label) > MaxLabelLength {
		return ErrLabelTooLong
	}
	if label[0] == '-' || label[len(label)-1] == '-' {
		return fmt.Errorf("%w: label %q begins or ends with hyphen", ErrBadLabel, label)
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		case c >= 'A' && c <= 'Z':
			// Canonical() lower-cased already; defensive.
		default:
			return fmt.Errorf("%w: byte %q in label %q", ErrBadLabel, c, label)
		}
	}
	return nil
}

// String returns the canonical presentation form.
func (n Name) String() string { return string(n) }

// Labels returns the labels of n from most- to least-specific
// ("ns1.foo.com" -> ["ns1", "foo", "com"]).
func (n Name) Labels() []string {
	if n == "" {
		return nil
	}
	return strings.Split(string(n), ".")
}

// NumLabels returns the number of labels in n.
func (n Name) NumLabels() int {
	if n == "" {
		return 0
	}
	return strings.Count(string(n), ".") + 1
}

// TLD returns the final label of n ("ns1.foo.com" -> "com").
func (n Name) TLD() Name {
	if i := strings.LastIndexByte(string(n), '.'); i >= 0 {
		return n[i+1:]
	}
	return n
}

// Parent returns the name with the first label removed, or "" for a TLD or
// empty name ("ns1.foo.com" -> "foo.com").
func (n Name) Parent() Name {
	if i := strings.IndexByte(string(n), '.'); i >= 0 {
		return n[i+1:]
	}
	return ""
}

// FirstLabel returns the leading label of n ("ns1.foo.com" -> "ns1").
func (n Name) FirstLabel() string {
	if i := strings.IndexByte(string(n), '.'); i >= 0 {
		return string(n[:i])
	}
	return string(n)
}

// IsSubdomainOf reports whether n is strictly below parent in the DNS tree.
func (n Name) IsSubdomainOf(parent Name) bool {
	if len(n) <= len(parent)+1 {
		return false
	}
	return strings.HasSuffix(string(n), "."+string(parent))
}

// InZone reports whether n equals zone or is a subdomain of zone.
func (n Name) InZone(zone Name) bool {
	return n == zone || n.IsSubdomainOf(zone)
}

// Join prepends a label (or dotted prefix) to n.
func Join(prefix string, n Name) Name {
	if n == "" {
		return Canonical(prefix)
	}
	return Canonical(prefix + "." + string(n))
}

// publicSuffixes holds the multi-label public suffixes relevant to the
// study's zones. Single-label TLDs need no entry: any unlisted final label
// is treated as a public suffix by itself, which matches how registries in
// the measured data operate.
var publicSuffixes = map[Name]bool{
	"co.uk":        true,
	"org.uk":       true,
	"ac.uk":        true,
	"com.au":       true,
	"net.au":       true,
	"co.jp":        true,
	"ne.jp":        true,
	"com.br":       true,
	"com.cn":       true,
	"in-addr.arpa": true,
	"as112.arpa":   true,
}

// RegisteredDomain returns the registrable domain of n: one label below
// the longest matching public suffix ("ns1.foo.com" -> "foo.com",
// "a.b.co.uk" -> "b.co.uk"). A name that is itself a public suffix (or a
// bare TLD) is returned unchanged with ok=false.
func RegisteredDomain(n Name) (Name, bool) {
	s := string(n)
	tld := strings.LastIndexByte(s, '.')
	if tld < 0 {
		return n, false
	}
	// suffix is where the longest public suffix of n starts: the final
	// label, unless a longer suffix at a label boundary is listed. Every
	// probe is a substring of n, so none allocates.
	suffix := tld + 1
	for dot := tld; dot >= 0; {
		dot = strings.LastIndexByte(s[:dot], '.')
		if publicSuffixes[n[dot+1:]] {
			suffix = dot + 1
		}
	}
	if suffix == 0 {
		return n, false // n is itself a public suffix
	}
	return n[strings.LastIndexByte(s[:suffix-1], '.')+1:], true
}

// SecondLevelLabel returns the label immediately below the public suffix:
// the "foo" of ns1.foo.com. ok is false when n has no registrable part.
func SecondLevelLabel(n Name) (string, bool) {
	reg, ok := RegisteredDomain(n)
	if !ok {
		return "", false
	}
	return reg.FirstLabel(), true
}

// Compare orders names byte-wise in canonical form, which groups names by
// suffix usefully enough for reporting.
func Compare(a, b Name) int { return strings.Compare(string(a), string(b)) }
