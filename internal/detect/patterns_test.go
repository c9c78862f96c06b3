package detect

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dnsname"
	"repro/internal/sim"
)

// mineReference is the miner without the window pre-filter: every
// substring of every label, counted once per name. MineSubstrings must
// report exactly what it reports.
func mineReference(names []dnsname.Name, cfg MinerConfig) []Pattern {
	cfg.defaults()
	support := make(map[string]int)
	perName := make(map[string]bool)
	for _, n := range names {
		clear(perName)
		label := n.FirstLabel()
		if len(label) > 40 {
			label = label[:40]
		}
		for l := cfg.MinLen; l <= cfg.MaxLen && l <= len(label); l++ {
			for i := 0; i+l <= len(label); i++ {
				if sub := label[i : i+l]; !mostlyRandom(sub) {
					perName[sub] = true
				}
			}
		}
		if reg, ok := dnsname.RegisteredDomain(n); ok {
			perName[string(reg)] = true
		}
		for sub := range perName {
			support[sub]++
		}
	}
	var pats []Pattern
	for sub, sup := range support {
		if sup >= cfg.MinSupport {
			pats = append(pats, Pattern{Substring: sub, Support: sup})
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

// TestMineSubstringsMatchesReference holds the pre-filtered miner to
// the exhaustive one on the candidates of simulated worlds and on
// random labels drawn from small alphabets (so that substrings, digit
// runs and repeats within a label are common), under several configs.
func TestMineSubstringsMatchesReference(t *testing.T) {
	check := func(t *testing.T, names []dnsname.Name, cfg MinerConfig) {
		t.Helper()
		got, want := MineSubstrings(names, cfg), mineReference(names, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %+v: got %v\nwant %v", cfg, got, want)
		}
	}
	configs := []MinerConfig{{}, {MinSupport: 1, Top: 1000}, {MinLen: 3, MaxLen: 6, MinSupport: 2, Top: 1000},
		{MinLen: 4, MaxLen: 40, MinSupport: 3, Top: 1000}, {MinLen: 9, MaxLen: 5}}
	for _, seed := range []int64{1, 2} {
		cfg := sim.DefaultConfig(2)
		cfg.Seed = seed
		w, err := sim.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		_, cands, _ := NewDetector(w.ZoneDB(), nil, nil).extractCandidates(context.Background(), w.ZoneDB().View())
		names := make([]dnsname.Name, len(cands))
		for i, c := range cands {
			names[i] = c.ns
		}
		t.Run(fmt.Sprintf("sim-seed-%d", seed), func(t *testing.T) {
			if len(MineSubstrings(names, MinerConfig{})) == 0 {
				t.Fatal("no patterns mined from a simulated world")
			}
			for _, mc := range configs {
				check(t, names, mc)
			}
		})
	}
	rng := rand.New(rand.NewSource(1))
	for _, alphabet := range []string{"ab", "ab01", "xyz0123456789-"} {
		t.Run("random-"+alphabet, func(t *testing.T) {
			for round := 0; round < 8; round++ {
				names := make([]dnsname.Name, 1+rng.Intn(40))
				for i := range names {
					label := make([]byte, rng.Intn(48))
					for j := range label {
						label[j] = alphabet[rng.Intn(len(alphabet))]
					}
					names[i] = dnsname.Name(string(label) + ".example.biz")
				}
				for _, mc := range configs {
					check(t, names, mc)
				}
			}
		})
	}
}
