package whois

import (
	"testing"

	"repro/internal/dates"
)

func TestRegistrarOn(t *testing.T) {
	h := New()
	h.Observe("foo.com", dates.FromYMD(2012, 1, 1), "Enom")
	h.Observe("foo.com", dates.FromYMD(2016, 5, 1), "GoDaddy")

	cases := []struct {
		day  dates.Day
		want string
	}{
		{dates.FromYMD(2011, 1, 1), ""},
		{dates.FromYMD(2012, 1, 1), "Enom"},
		{dates.FromYMD(2014, 6, 1), "Enom"},
		{dates.FromYMD(2016, 5, 1), "GoDaddy"},
		{dates.FromYMD(2020, 1, 1), "GoDaddy"},
	}
	for _, c := range cases {
		if got := h.RegistrarOn("foo.com", c.day); got != c.want {
			t.Errorf("RegistrarOn(%s) = %q, want %q", c.day, got, c.want)
		}
	}
	if h.RegistrarOn("ghost.com", dates.FromYMD(2015, 1, 1)) != "" {
		t.Error("unknown domain should yield empty registrar")
	}
}

func TestOutOfOrderObservations(t *testing.T) {
	h := New()
	h.Observe("x.com", dates.FromYMD(2018, 1, 1), "Later")
	h.Observe("x.com", dates.FromYMD(2010, 1, 1), "Earlier")
	h.Observe("x.com", dates.FromYMD(2014, 1, 1), "Middle")
	recs := h.byDomain["x.com"]
	if len(recs) != 3 || recs[0].Registrar != "Earlier" || recs[1].Registrar != "Middle" || recs[2].Registrar != "Later" {
		t.Fatalf("records = %+v", recs)
	}
	if h.RegistrarOn("x.com", dates.FromYMD(2012, 6, 1)) != "Earlier" {
		t.Error("lookup between out-of-order inserts broken")
	}
}
