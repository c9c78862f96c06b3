// Package detect implements the paper's methodology for identifying
// sacrificial nameservers (§3):
//
//  1. Candidate extraction: nameservers that are unresolvable at the
//     moment a domain first delegates to them (§3.2.1).
//  2. Pattern mining: a common-substring tool over candidate names that
//     surfaces registrar renaming idioms (§3.2.2), plus removal of
//     registry test nameservers (the EMT- pattern).
//  3. Original-nameserver matching: for idioms that embed the renamed
//     host's second-level label, match each candidate against the
//     nameservers its affected domains used the day before (§3.2.3),
//     attributing the rename to a registrar via WHOIS history.
//  4. The single-repository property check, eliminating candidates whose
//     affected domains span EPP repositories (§3.1 property 3).
//
// The detector consumes only public-equivalent data: the longitudinal
// zone database, WHOIS history, and the IANA-style TLD-to-registry
// directory. It never reads simulator ground truth.
package detect

import (
	"sort"
	"strings"

	"repro/internal/dnsname"
)

// Pattern is one mined common substring with its support (the number of
// distinct candidate names containing it).
type Pattern struct {
	Substring string
	Support   int
}

// MinerConfig tunes the common-substring miner.
type MinerConfig struct {
	// MinLen is the shortest substring considered (default 8).
	MinLen int
	// MaxLen caps substring length (default 24).
	MaxLen int
	// MinSupport is the minimum number of distinct names a substring
	// must appear in to be reported (default 25).
	MinSupport int
	// Top bounds the number of reported patterns (default 50).
	Top int
}

func (c *MinerConfig) defaults() {
	if c.MinLen == 0 {
		c.MinLen = 8
	}
	if c.MaxLen == 0 {
		c.MaxLen = 24
	}
	if c.MinSupport == 0 {
		c.MinSupport = 25
	}
	if c.Top == 0 {
		c.Top = 50
	}
}

// MineSubstrings finds common substrings across candidate nameserver
// names — the tool of §3.2.2. Two families of strings are examined: the
// leading label of each name (where markers like DROPTHISHOST live) and
// the registered domain as a unit (where sink domains like
// LAMEDELEGATION.ORG live). Reported patterns are maximal: a substring
// wholly contained in a longer pattern with the same support is dropped.
//
// A substring found in MinSupport names has each of its MinLen-byte
// windows in at least as many, so a first pass counts each label's
// windows and the second counts only the substrings whose windows all
// reached MinSupport: most candidate labels are random, and none of
// their substrings, nor a marker's extension into a random tail, is
// ever stored. The mostlyRandom filter applies in the second pass only,
// since a window of a kept substring may itself be mostly digits.
func MineSubstrings(names []dnsname.Name, cfg MinerConfig) []Pattern {
	cfg.defaults()
	labels := make([]string, len(names))
	windows := supportCounter{}
	for i, n := range names {
		label := n.FirstLabel()
		if len(label) > 40 {
			label = label[:40]
		}
		labels[i] = label
		for j := 0; j+cfg.MinLen <= len(label); j++ {
			windows.add(label[j:j+cfg.MinLen], i)
		}
	}
	support := supportCounter{}
	var frequent []bool // frequent[j]: the window at j reached MinSupport
	for i, label := range labels {
		frequent = frequent[:0]
		for j := 0; j+cfg.MinLen <= len(label); j++ {
			frequent = append(frequent, windows[label[j:j+cfg.MinLen]].names >= cfg.MinSupport)
		}
		for j := range frequent {
			for l := cfg.MinLen; l <= cfg.MaxLen && j+l <= len(label) && frequent[j+l-cfg.MinLen]; l++ {
				if sub := label[j : j+l]; !mostlyRandom(sub) {
					support.add(sub, i)
				}
			}
		}
		if reg, ok := dnsname.RegisteredDomain(names[i]); ok {
			support.add(string(reg), i)
		}
	}
	var pats []Pattern
	for sub, sup := range support {
		if sup.names >= cfg.MinSupport {
			pats = append(pats, Pattern{Substring: sub, Support: sup.names})
		}
	}
	sort.Slice(pats, func(i, j int) bool {
		if pats[i].Support != pats[j].Support {
			return pats[i].Support > pats[j].Support
		}
		if len(pats[i].Substring) != len(pats[j].Substring) {
			return len(pats[i].Substring) > len(pats[j].Substring)
		}
		return pats[i].Substring < pats[j].Substring
	})
	// Keep maximal patterns only.
	var out []Pattern
	for _, p := range pats {
		subsumed := false
		for _, q := range out {
			if q.Support == p.Support && strings.Contains(q.Substring, p.Substring) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			out = append(out, p)
		}
		if len(out) >= cfg.Top {
			break
		}
	}
	return out
}

// supportCounter counts, for each string, the distinct names it was
// seen in. Names are fed in index order, so the last name a string was
// seen in is enough to count each name once.
type supportCounter map[string]seenIn

type seenIn struct{ names, last int }

func (c supportCounter) add(s string, name int) {
	if e, ok := c[s]; !ok || e.last != name {
		c[s] = seenIn{e.names + 1, name}
	}
}

// mostlyRandom rejects substrings dominated by digits or hex noise that
// cannot be a human-chosen marker. It keeps the miner's map small.
func mostlyRandom(s string) bool {
	digits := 0
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			digits++
		}
	}
	return digits*2 > len(s)
}
