package whois

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
)

func TestArchiveRoundTrip(t *testing.T) {
	h := New()
	h.Observe("foo.com", dates.FromYMD(2012, 1, 1), "Enom")
	h.Observe("foo.com", dates.FromYMD(2016, 5, 1), "Network Solutions") // space in name
	h.Observe("bar.net", dates.FromYMD(2010, 3, 4), "Tucows")

	var buf bytes.Buffer
	if err := h.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(back.byDomain); n != 2 {
		t.Fatalf("domains = %d", n)
	}
	if got := back.RegistrarOn("foo.com", dates.FromYMD(2017, 1, 1)); got != "Network Solutions" {
		t.Errorf("registrar = %q", got)
	}
	if got := back.RegistrarOn("foo.com", dates.FromYMD(2013, 1, 1)); got != "Enom" {
		t.Errorf("registrar = %q", got)
	}
}

// TestArchiveIsDeterministic: one history writes the same bytes every
// time, whatever order it was observed in, domains in name order, and
// reads back into a history that writes them again.
func TestArchiveIsDeterministic(t *testing.T) {
	observe := func(h *History, i int) {
		domain := dnsname.Name(fmt.Sprintf("d%03d.com", i))
		h.Observe(domain, dates.FromYMD(2010+i%7, 1, 1), "Enom")
		h.Observe(domain, dates.FromYMD(2018, 1+i%12, 1), "Network Solutions")
	}
	forward, backward := New(), New()
	for i := 0; i < 200; i++ {
		observe(forward, i)
		observe(backward, 199-i)
	}
	archive := func(h *History) []byte {
		var buf bytes.Buffer
		if err := h.WriteArchive(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := archive(forward)
	for i := 0; i < 5; i++ {
		if got := archive(forward); !bytes.Equal(got, want) {
			t.Fatalf("write %d of one history differs from the first", i+2)
		}
	}
	if got := archive(backward); !bytes.Equal(got, want) {
		t.Fatal("the same records observed in another order write other bytes")
	}
	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(lines) != 401 || !slices.IsSorted(lines[1:]) {
		t.Fatalf("%d lines, not one magic line and 400 records in order:\n%s", len(lines), want)
	}
	back, err := ReadFrom(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if got := archive(back); !bytes.Equal(got, want) {
		t.Fatal("the archive read back writes other bytes")
	}
}

func TestArchiveErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"nope\n",
		"whois 1\nW onlythree 2012-01-01\n",
		"whois 1\nW -bad-.com 2012-01-01 X\n",
		"whois 1\nW foo.com baddate X\n",
		"whois 1\nQ foo.com 2012-01-01 X\n",
		// A registrar ending in \r, which the archive cannot carry.
		"whois 1\nW foo.com 2012-01-01 X\r\r\n",
	} {
		if _, err := ReadFrom(strings.NewReader(in)); err == nil {
			t.Errorf("ReadFrom(%q) should fail", in)
		}
	}
}

// FuzzReadFrom holds ReadFrom to the decoder contract: it never panics,
// it allocates in proportion to its input (a scale-free 1 MiB for the
// scanner's buffer, then about 11 bytes a byte on a megabyte of one-line
// records), and an archive it accepts writes bytes that read back and
// write themselves again.
func FuzzReadFrom(f *testing.F) {
	h := New()
	h.Observe("foo.com", dates.FromYMD(2012, 1, 1), "Enom")
	h.Observe("foo.com", dates.FromYMD(2016, 5, 1), "Network Solutions")
	h.Observe("bar.net", dates.FromYMD(2010, 3, 4), "Tucows")
	var good bytes.Buffer
	if err := h.WriteArchive(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte("whois 1\r\nW FOO.com 2012-01-01 X\r\n\r\nW foo.com 2012-01-01 \n"))
	f.Add([]byte("whois 1\nW foo.com 2012-02-30 X\n"))
	f.Add([]byte("whois 1\nW foo.com 2012-01-01 X\r\r\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		before := totalAlloc()
		h, err := ReadFrom(bytes.NewReader(in))
		if got, bound := totalAlloc()-before, uint64(1<<20+32*len(in)); got > bound {
			t.Fatalf("ReadFrom allocated %d bytes for %d of input, bound %d", got, len(in), bound)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := h.WriteArchive(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrom(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading back what WriteArchive wrote: %v\n%q", err, first.Bytes())
		}
		if err := back.WriteArchive(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write, read, write is not stable:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
