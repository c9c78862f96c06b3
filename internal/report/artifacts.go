package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/analysis"
	"repro/internal/dates"
	"repro/internal/detect"
	"repro/internal/dnsname"
)

// ArtifactOptions selects and parameterizes the printed artifacts.
type ArtifactOptions struct {
	// Only restricts output to the named artifacts (lower-case keys:
	// funnel, patterns, table1..table6, figure3..figure7, accident,
	// partial). Empty prints everything.
	Only []string
	// NotificationDay / FollowupDay parameterize Table 5.
	NotificationDay dates.Day
	FollowupDay     dates.Day
	// AccidentNS and EndOfData parameterize the §4 accident report;
	// leave AccidentNS empty to skip it.
	AccidentNS []dnsname.Name
	EndOfData  dates.Day
}

func (o *ArtifactOptions) wants(key string) bool {
	if len(o.Only) == 0 {
		return true
	}
	for _, k := range o.Only {
		if strings.EqualFold(strings.TrimSpace(k), key) {
			return true
		}
	}
	return false
}

// PrintArtifacts renders every requested table and figure to w. res may
// be nil when pattern output is not requested.
func PrintArtifacts(w io.Writer, a *analysis.Analysis, res *detect.Result, opts ArtifactOptions) {
	emit := func(t *Table) {
		t.Render(w)
		fmt.Fprintln(w)
	}
	if opts.wants("funnel") {
		f := a.Funnel()
		fmt.Fprintf(w, "== Candidate funnel (§3.2) ==\n")
		t := NewTable("stage", "count")
		t.AddRow("nameservers in zone data", f.TotalNameservers)
		t.AddRow("unresolvable at first reference", f.Candidates)
		t.AddRow("minus registry test nameservers", -f.TestNameservers)
		t.AddRow("minus single-repository violations", -f.SingleRepoViolations)
		t.AddRow("unclassified remainder", f.Unclassified)
		t.AddRow("sacrificial nameservers", f.Sacrificial)
		emit(t)
	}
	if opts.wants("patterns") && res != nil {
		fmt.Fprintf(w, "== Mined renaming patterns (§3.2.2) ==\n")
		t := NewTable("substring", "support")
		for _, p := range res.Patterns {
			t.AddRow(p.Substring, p.Support)
		}
		emit(t)
	}
	if opts.wants("table1") {
		fmt.Fprintf(w, "== Table 1: non-hijackable renaming idioms ==\n")
		emitIdiomTable(emit, a.Table1(), false)
	}
	if opts.wants("table2") {
		fmt.Fprintf(w, "== Table 2: hijackable renaming idioms ==\n")
		emitIdiomTable(emit, a.Table2(), true)
	}
	if opts.wants("table3") {
		t3 := a.Table3()
		fmt.Fprintf(w, "== Table 3: hijackable vs hijacked (window %s) ==\n", a.Window())
		t := NewTable("", "hijackable", "hijacked", "%")
		t.AddRow("sacrificial NS", t3.HijackableNS, t3.HijackedNS, 100*t3.NSFraction())
		t.AddRow("affected domains", t3.HijackableDomains, t3.HijackedDomains, 100*t3.DomainFraction())
		emit(t)
	}
	if opts.wants("figure3") {
		s := a.Figure3()
		fmt.Fprintf(w, "== Figure 3: new hijackable domains per month (total %d, trend %.3f/mo) ==\n%s\n\n",
			s.Total(), s.TrendSlope(), Sparkline(s.Counts))
	}
	if opts.wants("figure4") {
		s := a.Figure4()
		fmt.Fprintf(w, "== Figure 4: new hijacked domains per month (total %d) ==\n%s\n\n",
			s.Total(), Sparkline(s.Counts))
	}
	if opts.wants("figure5") {
		fmt.Fprintf(w, "== Figure 5: hijack value vs delegated domains ==\n")
		emitFigure5(w, a.Figure5(), emit)
	}
	if opts.wants("figure6") {
		nsCDF, domCDF := a.Figure6()
		fmt.Fprintf(w, "== Figure 6: time to exploit ==\n")
		CDFChart(w, fmt.Sprintf("sacrificial NS (n=%d)", nsCDF.N()), nsCDF.Quantile)
		CDFChart(w, fmt.Sprintf("vulnerable domains (n=%d)", domCDF.N()), domCDF.Quantile)
		fmt.Fprintln(w)
	}
	if opts.wants("figure7") {
		never, exp, hij := a.Figure7()
		fmt.Fprintf(w, "== Figure 7: exposure and hijack durations ==\n")
		CDFChart(w, fmt.Sprintf("hijackable, never hijacked (n=%d)", never.N()), never.Quantile)
		CDFChart(w, fmt.Sprintf("hijackable, hijacked (n=%d)", exp.N()), exp.Quantile)
		CDFChart(w, fmt.Sprintf("days hijacked (n=%d)", hij.N()), hij.Quantile)
		fmt.Fprintln(w)
	}
	if opts.wants("table4") {
		fmt.Fprintf(w, "== Table 4: top bulk hijackers ==\n")
		t := NewTable("hijacker NS domain", "NS", "domains")
		for _, r := range a.Table4(5) {
			t.AddRow(r.NSDomain, r.NS, r.Domains)
		}
		emit(t)
	}
	if opts.wants("table5") && opts.NotificationDay.Valid() && opts.NotificationDay != 0 {
		t5 := a.Table5(opts.NotificationDay, opts.FollowupDay)
		fmt.Fprintf(w, "== Table 5: remediation after notifications ==\n")
		t := NewTable("", "vuln NS", "hijacked NS", "vuln domains", "hijacked domains")
		t.AddRow(t5.Before.Date, t5.Before.VulnerableNS, t5.Before.HijackedNS, t5.Before.VulnerableDomains, t5.Before.HijackedDomains)
		t.AddRow(t5.After.Date, t5.After.VulnerableNS, t5.After.HijackedNS, t5.After.VulnerableDomains, t5.After.HijackedDomains)
		t.AddRow("delta", t5.DeltaNS(), "", t5.DeltaDomains(), "")
		t.AddRow("gross disappearance", t5.Remediated.NS, "", t5.Remediated.Domains, "")
		t.AddRow("organic baseline (yr earlier)", t5.Organic.NS, "", t5.Organic.Domains, "")
		emit(t)
		if rows := a.RemediationAttribution(opts.NotificationDay, opts.FollowupDay); len(rows) > 0 {
			fmt.Fprintf(w, "-- remediated domains by sponsoring registrar --\n")
			at := NewTable("registrar", "domains")
			for _, r := range rows {
				at.AddRow(r.Registrar, r.Domains)
			}
			emit(at)
		}
	}
	if opts.wants("table6") {
		fmt.Fprintf(w, "== Table 6: protected idioms after outreach ==\n")
		emitIdiomTable(emit, a.Table6(), false)
	}
	if opts.wants("accident") && len(opts.AccidentNS) > 0 {
		rep := a.Accident(opts.AccidentNS, opts.EndOfData)
		fmt.Fprintf(w, "== §4: Namecheap accidental deletion ==\n")
		t := NewTable("metric", "value")
		t.AddRow("accident day", rep.Day)
		t.AddRow("domains exposed at peak", rep.PeakDomains)
		t.AddRow("still exposed after 3 days", rep.AfterThreeDays)
		t.AddRow("residual at end of data", rep.Residual)
		emit(t)
	}
	if opts.wants("partial") && opts.NotificationDay.Valid() && opts.NotificationDay != 0 {
		p := a.Partial(opts.NotificationDay)
		fmt.Fprintf(w, "== §5.6: partially exposed domains on %s ==\n", p.Date)
		t := NewTable("population", "count")
		t.AddRow("fully exposed (all NS sacrificial)", p.FullyExposed)
		t.AddRow("partially exposed (working NS remain)", p.PartiallyExposed)
		t.AddRow("partially exposed AND hijacked", p.PartiallyHijacked)
		emit(t)
	}
}

func emitIdiomTable(emit func(*Table), it *analysis.IdiomTable, withExample bool) {
	var t *Table
	if withExample {
		t = NewTable("idiom", "registrar", "NS", "domains", "example")
	} else {
		t = NewTable("idiom", "registrar", "NS", "domains")
	}
	for _, r := range it.Rows {
		if withExample {
			t.AddRow(string(r.Idiom), r.Registrar, r.Nameservers, r.AffectedDomains, r.Example)
		} else {
			t.AddRow(string(r.Idiom), r.Registrar, r.Nameservers, r.AffectedDomains)
		}
	}
	if withExample {
		t.AddRow("TOTAL", "", it.TotalNameservers, it.TotalDomains, "")
	} else {
		t.AddRow("TOTAL", "", it.TotalNameservers, it.TotalDomains)
	}
	emit(t)
}

func emitFigure5(w io.Writer, pts []analysis.ScatterPoint, emit func(*Table)) {
	type bucket struct{ hijacked, total int }
	buckets := map[int]*bucket{}
	maxB := 0
	for _, p := range pts {
		b := 0
		for v := p.Value; v >= 10; v /= 10 {
			b++
		}
		g := buckets[b]
		if g == nil {
			g = &bucket{}
			buckets[b] = g
		}
		g.total++
		if p.Hijacked {
			g.hijacked++
		}
		if b > maxB {
			maxB = b
		}
	}
	t := NewTable("hijack value", "NS", "hijacked", "%")
	for b := 0; b <= maxB; b++ {
		g := buckets[b]
		if g == nil {
			continue
		}
		lo := 1
		for i := 0; i < b; i++ {
			lo *= 10
		}
		pct := 0.0
		if g.total > 0 {
			pct = 100 * float64(g.hijacked) / float64(g.total)
		}
		t.AddRow(fmt.Sprintf("[%d, %d) domain-days", lo, lo*10), g.total, g.hijacked, pct)
	}
	emit(t)
}
