package whois

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dates"
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

func TestArchiveErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"nope\n",
		"whois 1\nW onlythree 2012-01-01\n",
		"whois 1\nW -bad-.com 2012-01-01 X\n",
		"whois 1\nW foo.com baddate X\n",
		"whois 1\nQ foo.com 2012-01-01 X\n",
	} {
		if _, err := ReadFrom(strings.NewReader(in)); err == nil {
			t.Errorf("ReadFrom(%q) should fail", in)
		}
	}
}
