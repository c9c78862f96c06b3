package sim

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/dates"
	"repro/internal/dnsname"
	"repro/internal/idioms"
)

// sharedWorld runs one moderate simulation reused by read-only tests.
var (
	sharedOnce  sync.Once
	sharedW     *World
	sharedErr   error
	sharedScale = 5.0
)

func shared(t *testing.T) *World {
	t.Helper()
	sharedOnce.Do(func() {
		cfg := DefaultConfig(sharedScale)
		sharedW, sharedErr = NewWorld(cfg)
		if sharedErr == nil {
			sharedErr = sharedW.Run()
		}
	})
	if sharedErr != nil {
		t.Fatalf("shared world: %v", sharedErr)
	}
	return sharedW
}

func TestDeterminism(t *testing.T) {
	run := func() *Truth {
		cfg := DefaultConfig(3)
		cfg.End = dates.FromYMD(2013, 6, 30) // shortened run for speed
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w.Truth()
	}
	a, b := run(), run()
	if len(a.Renames) != len(b.Renames) || len(a.Hijacks) != len(b.Hijacks) || len(a.TestNS) != len(b.TestNS) {
		t.Fatalf("nondeterministic: %d/%d renames, %d/%d hijacks",
			len(a.Renames), len(b.Renames), len(a.Hijacks), len(b.Hijacks))
	}
	for i := range a.Renames {
		if a.Renames[i] != b.Renames[i] {
			t.Fatalf("rename %d differs: %+v vs %+v", i, a.Renames[i], b.Renames[i])
		}
	}
	for i := range a.Hijacks {
		if a.Hijacks[i] != b.Hijacks[i] {
			t.Fatalf("hijack %d differs", i)
		}
	}
}

func TestTruthConsistentWithZoneData(t *testing.T) {
	w := shared(t)
	db := w.ZoneDB().View()
	// A rename is invisible to daily zone files when every linked domain
	// was itself deleted later the same day (typically a brand-alt
	// expiring together with its provider). Tolerate a small fraction.
	invisible := 0
	for _, rn := range w.Truth().Renames {
		if db.NSFirstSeen(rn.New) == dates.None {
			invisible++
		}
		if rn.Linked <= 0 {
			t.Errorf("rename %s recorded with no linked domains", rn.New)
		}
	}
	if n := len(w.Truth().Renames); invisible > n/10 {
		t.Errorf("%d of %d renames never visible in zone data", invisible, n)
	}
	for _, hj := range w.Truth().Hijacks {
		first := db.DomainFirstSeen(hj.Domain)
		if first == dates.None {
			t.Errorf("hijack registration %s not visible in zone data", hj.Domain)
			continue
		}
		if first > hj.Day {
			t.Errorf("hijack %s: zone presence %s after registration %s", hj.Domain, first, hj.Day)
		}
	}
}

func TestRenamesArePlausibleIdioms(t *testing.T) {
	w := shared(t)
	for _, rn := range w.Truth().Renames {
		if rn.Idiom == "undetectable" {
			continue
		}
		id := idioms.Lookup(rn.Idiom)
		if id == nil {
			t.Errorf("rename with unknown idiom %q", rn.Idiom)
			continue
		}
		switch {
		case id.Sink != "":
			ok := rn.New.InZone(id.Sink)
			for _, alt := range id.AltSinks {
				ok = ok || rn.New.InZone(alt)
			}
			if !ok {
				t.Errorf("%s: sink rename %s outside sink", id.ID, rn.New)
			}
		case id.Marker != "":
			if !strings.Contains(string(rn.New), id.Marker) {
				t.Errorf("%s: marker missing in %s", id.ID, rn.New)
			}
		case id.OriginalBased:
			if !idioms.MatchesOriginal(rn.New, rn.Old) {
				t.Errorf("%s: %s does not match original %s", id.ID, rn.New, rn.Old)
			}
		}
	}
}

func TestHijackersAreSelective(t *testing.T) {
	w := shared(t)
	hijacks := w.Truth().Hijacks
	if len(hijacks) == 0 {
		t.Fatal("no hijacks at shared scale; calibration broken")
	}
	total := 0
	for _, hj := range hijacks {
		total += hj.Degree
	}
	if avg := float64(total) / float64(len(hijacks)); avg < 2 {
		t.Errorf("mean hijacked degree %.1f; selectivity looks broken", avg)
	}
}

func TestAccidentTimeline(t *testing.T) {
	w := shared(t)
	tr := w.Truth()
	if len(tr.AccidentNS) == 0 {
		t.Fatal("accident produced no sacrificial names")
	}
	db := w.ZoneDB().View()
	peak := map[dnsname.Name]bool{}
	after3 := map[dnsname.Name]bool{}
	for _, ns := range tr.AccidentNS {
		for _, e := range db.EdgesOf(ns) {
			spans := db.EdgeSpans(e.Domain, ns)
			if spans.Contains(accidentDay) {
				peak[e.Domain] = true
			}
			if spans.Contains(accidentDay.Add(3)) {
				after3[e.Domain] = true
			}
		}
	}
	if len(peak) == 0 {
		t.Fatal("no domains exposed by the accident")
	}
	frac := float64(len(after3)) / float64(len(peak))
	if frac > 0.15 {
		t.Errorf("%.0f%% still exposed after 3 days; recovery too slow", 100*frac)
	}
	// Accident names never enter the hijackable pool.
	for _, hj := range tr.Hijacks {
		for _, ns := range tr.AccidentNS {
			if reg, _ := dnsname.RegisteredDomain(ns); reg == hj.Domain {
				t.Errorf("accident name %s was hijacked", ns)
			}
		}
	}
}

func TestRestrictedTLDsExposed(t *testing.T) {
	// .edu/.gov domains must occasionally be rewritten by .com renames —
	// the Figure 2 scoping property.
	w := shared(t)
	db := w.ZoneDB().View()
	found := false
	for _, rn := range w.Truth().Renames {
		for _, e := range db.EdgesOf(rn.New) {
			tld := e.Domain.TLD()
			if tld == "edu" || tld == "gov" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no restricted-TLD domain was ever affected by a rename")
	}
}

func TestSinkDomainsStayRegistered(t *testing.T) {
	w := shared(t)
	db := w.ZoneDB().View()
	for _, sink := range []dnsname.Name{"lamedelegation.org", "delete-host.com", "deletedns.com"} {
		if !db.DomainRegisteredOn(sink, WindowEnd) {
			t.Errorf("sink %s not registered at window end", sink)
		}
	}
}

func TestDummynsDropCatch(t *testing.T) {
	w := shared(t)
	if len(w.Truth().SinkTransfers) != 1 || w.Truth().SinkTransfers[0] != "dummyns.com" {
		t.Fatalf("sink transfers = %v", w.Truth().SinkTransfers)
	}
	if got := w.WHOIS().RegistrarOn("dummyns.com", dates.FromYMD(2017, 1, 1)); got != "DropCatch LLC" {
		t.Errorf("dummyns.com registrar after drop-catch = %q", got)
	}
	if got := w.WHOIS().RegistrarOn("dummyns.com", dates.FromYMD(2014, 1, 1)); got != "Internet.bs" {
		t.Errorf("dummyns.com registrar before drop-catch = %q", got)
	}
}

func TestProtectedIdiomsOnlyAfterSwitch(t *testing.T) {
	w := shared(t)
	for _, rn := range w.Truth().Renames {
		id := idioms.Lookup(rn.Idiom)
		if id == nil {
			continue
		}
		if id.Class == idioms.Protected && rn.Day < remediationIdiomSwitch {
			t.Errorf("protected idiom %s used on %s, before the switch", rn.Idiom, rn.Day)
		}
		if id.Class != idioms.Protected && rn.Day > remediationIdiomSwitch.Add(5) {
			// Registrars that never switched may continue; only the three
			// notified ones must stop.
			switch rn.Registrar {
			case "GoDaddy", "Enom", "Internet.bs":
				t.Errorf("%s still used hijackable idiom %s on %s", rn.Registrar, rn.Idiom, rn.Day)
			}
		}
	}
}

func TestDisableFlags(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.End = dates.FromYMD(2017, 6, 30)
	cfg.Hijackers = false
	cfg.Accident = false
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	tr := w.Truth()
	if len(tr.Hijacks) != 0 {
		t.Errorf("hijacks with hijackers disabled: %d", len(tr.Hijacks))
	}
	if len(tr.AccidentNS) != 0 {
		t.Errorf("accident names with accident disabled: %d", len(tr.AccidentNS))
	}
}

func TestWhoisCoversRenamedProviders(t *testing.T) {
	// The detector depends on WHOIS knowing the registrar of the
	// ORIGINAL nameserver's domain the day before the rename.
	w := shared(t)
	missing := 0
	for _, rn := range w.Truth().Renames {
		if rn.Accident {
			continue
		}
		reg, ok := dnsname.RegisteredDomain(rn.Old)
		if !ok {
			continue
		}
		if w.WHOIS().RegistrarOn(reg, rn.Day-1) == "" {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d renames with no WHOIS history for the original domain", missing)
	}
}

func TestTruthSetHelpers(t *testing.T) {
	w := shared(t)
	tr := w.Truth()
	all := tr.SacrificialSet(true)
	hijackable := tr.HijackableSet()
	if len(hijackable) > len(all) {
		t.Error("hijackable set larger than sacrificial set")
	}
	for ns := range hijackable {
		if !all[ns] {
			t.Errorf("hijackable %s missing from sacrificial set", ns)
		}
	}
	withAccident := tr.SacrificialSet(false)
	if len(withAccident) != len(all)+len(tr.AccidentNS) {
		t.Errorf("accident exclusion arithmetic: %d vs %d + %d",
			len(withAccident), len(all), len(tr.AccidentNS))
	}
}
