package whois

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/dates"
	"repro/internal/dnsname"
)

// The archive format is one sponsorship record per line:
//
//	whois 1
//	W foo.com 2011-04-01 GoDaddy
//
// Registrar names may contain spaces; they occupy the rest of the line.

const archiveMagic = "whois 1"

// WriteArchive archives the history: its domains in name order, each
// domain's records in day order, so one history always writes the same
// bytes.
func (h *History) WriteArchive(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintln(bw, archiveMagic)
	domains := make([]dnsname.Name, 0, len(h.byDomain))
	for domain := range h.byDomain {
		domains = append(domains, domain)
	}
	slices.Sort(domains)
	for _, domain := range domains {
		for _, rec := range h.byDomain[domain] {
			fmt.Fprintf(bw, "W %s %s %s\n", domain, rec.Day, rec.Registrar)
		}
	}
	return bw.Flush()
}

// ReadFrom loads an archive produced by WriteArchive.
func ReadFrom(r io.Reader) (*History, error) {
	h := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("whois: empty archive")
	}
	if sc.Text() != archiveMagic {
		return nil, fmt.Errorf("whois: bad magic %q", sc.Text())
	}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, " ", 4)
		// The scanner drops one \r before each newline, so a registrar
		// ending in \r would not read back as WriteArchive wrote it.
		if len(parts) != 4 || parts[0] != "W" || strings.HasSuffix(parts[3], "\r") {
			return nil, fmt.Errorf("whois: line %d: malformed record %q", lineNo, line)
		}
		domain, err := dnsname.Parse(parts[1])
		if err != nil {
			return nil, fmt.Errorf("whois: line %d: %v", lineNo, err)
		}
		day, err := dates.Parse(parts[2])
		if err != nil {
			return nil, fmt.Errorf("whois: line %d: %v", lineNo, err)
		}
		h.Observe(domain, day, parts[3])
	}
	return h, sc.Err()
}
