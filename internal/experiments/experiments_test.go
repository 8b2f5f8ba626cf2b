package experiments

import (
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/monitor"
)

func TestFig13Shape(t *testing.T) {
	res := RunFig13()
	if len(res.Counts) < 30 {
		t.Fatalf("catalog has only %d models", len(res.Counts))
	}
	// Shape claims: a hub model dominates; a meaningful fraction of models
	// exceeds 5 related models; the distribution has a long tail.
	if res.MostDense != "Device" {
		t.Errorf("most connected model = %s, want Device (the hub)", res.MostDense)
	}
	if res.DenseCount < 10 {
		t.Errorf("hub connectivity = %d, want >= 10", res.DenseCount)
	}
	// The production catalog (250+ models) reports ~60%; this core
	// catalog is an order of magnitude smaller and correspondingly
	// sparser, so assert the long tail exists rather than the absolute
	// fraction (see EXPERIMENTS.md).
	if res.FracOver5 < 0.04 {
		t.Errorf("fraction over 5 related = %.2f, want >= 0.04", res.FracOver5)
	}
	// Every model with relations participates: min should be >= 0, median
	// modest.
	if percentile(res.Counts, 50) < 1 {
		t.Errorf("median relatedness = %d", percentile(res.Counts, 50))
	}
	out := res.Format()
	if !strings.Contains(out, "Figure 13") || !strings.Contains(out, "Device") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestTable3Distribution(t *testing.T) {
	cfg := Table3Config{TotalMessages: 100_000, Seed: 3}
	res := RunTable3(cfg)
	if res.Total < int64(cfg.TotalMessages)-5 {
		t.Fatalf("processed %d of %d messages", res.Total, cfg.TotalMessages)
	}
	// Rule counts match the paper exactly.
	wantRules := map[monitor.Urgency]int{
		monitor.Critical: 13, monitor.Major: 214, monitor.Minor: 310,
		monitor.Warning: 103, monitor.Notice: 79,
	}
	for u, want := range wantRules {
		if res.Rules[u] != want {
			t.Errorf("%s rules = %d, want %d", u, res.Rules[u], want)
		}
	}
	// Distribution shape: ignored dominates at ~96%, warnings next.
	ignoredPct := float64(res.Counts[monitor.Ignored]) / float64(res.Total)
	if ignoredPct < 0.95 || ignoredPct > 0.975 {
		t.Errorf("ignored fraction = %.4f, want ~0.9627", ignoredPct)
	}
	warningPct := float64(res.Counts[monitor.Warning]) / float64(res.Total)
	if warningPct < 0.025 || warningPct > 0.05 {
		t.Errorf("warning fraction = %.4f, want ~0.0365", warningPct)
	}
	if res.Counts[monitor.Critical] < 1 || res.Counts[monitor.Critical] > 10 {
		t.Errorf("critical events = %d, want a handful", res.Counts[monitor.Critical])
	}
	// Ordering: warning > minor > notice > major > critical.
	c := res.Counts
	if !(c[monitor.Warning] > c[monitor.Minor] && c[monitor.Minor] > c[monitor.Notice] &&
		c[monitor.Notice] > c[monitor.Major] && c[monitor.Major] >= c[monitor.Critical]) {
		t.Errorf("level ordering broken: %v", c)
	}
	if !strings.Contains(res.Format(), "IGNORED") {
		t.Error("format output missing IGNORED row")
	}
}

func TestTable2Mix(t *testing.T) {
	cfg := Table2Config{Hours: 6, Seed: 2} // quarter day is enough for shares
	res, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"snmp": 50.94, "cli": 11.25, "rpcxml": 4.87, "thrift": 12.21, "syslog": 20.73,
	}
	for k, w := range want {
		got := res.Shares[k]
		if got < w-4 || got > w+4 {
			t.Errorf("%s share = %.2f%%, want ~%.2f%%", k, got, w)
		}
	}
	// Ordering: SNMP > syslog > thrift > cli > rpcxml.
	s := res.Shares
	if !(s["snmp"] > s["syslog"] && s["syslog"] > s["thrift"] &&
		s["thrift"] > s["cli"] && s["cli"] > s["rpcxml"]) {
		t.Errorf("mechanism ordering broken: %v", s)
	}
	if res.PollErrors != 0 {
		t.Errorf("poll errors = %d", res.PollErrors)
	}
	if !strings.Contains(res.Format(), "SNMP (active)") {
		t.Error("format missing SNMP row")
	}
}

func TestFig14Churn(t *testing.T) {
	cfg := Fig14Config{Weeks: 52, Seed: 14}
	res := RunFig14(cfg)
	if len(res.Weekly) != 52 {
		t.Fatalf("weeks = %d", len(res.Weekly))
	}
	// The paper's core claim: models never stabilize — >50 lines/day.
	if res.MeanPerDay < 50 {
		t.Errorf("mean lines/day = %.1f, want > 50", res.MeanPerDay)
	}
	// Every week sees change.
	for w, n := range res.Weekly {
		if n == 0 {
			t.Errorf("week %d had zero churn", w)
		}
	}
	// Refactor weeks are spikes: max week well above median.
	if len(res.RefactorWeeks) > 0 {
		med := percentile(res.Weekly, 50)
		if res.MaxWeek < 2*med {
			t.Errorf("refactor spikes not visible: max %d vs median %d", res.MaxWeek, med)
		}
	}
	// Determinism.
	res2 := RunFig14(cfg)
	if res2.MeanPerDay != res.MeanPerDay {
		t.Error("fig14 is not deterministic")
	}
}

func TestFig15Distribution(t *testing.T) {
	if testing.Short() {
		t.Skip("design-change replay in -short mode")
	}
	cfg := Fig15Config{Months: 6, Seed: 15}
	res, err := RunFig15(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changes < 50 {
		t.Fatalf("only %d changes executed", res.Changes)
	}
	popdcMed := percentile(res.Totals["popdc"], 50)
	bbMed := percentile(res.Totals["backbone"], 50)
	// Shape: POP/DC changes are much larger than backbone changes.
	if popdcMed <= 3*bbMed {
		t.Errorf("popdc median %d should dominate backbone median %d", popdcMed, bbMed)
	}
	if bbMed < 5 || bbMed > 80 {
		t.Errorf("backbone median = %d, want O(20)", bbMed)
	}
	if popdcMed < 80 {
		t.Errorf("popdc median = %d, want O(120+)", popdcMed)
	}
	// High fan-out: biggest change touches hundreds+ of objects.
	if percentile(res.Totals["popdc"], 100) < 500 {
		t.Errorf("max popdc change = %d, want >= 500", percentile(res.Totals["popdc"], 100))
	}
	// Type ordering (paper): interface > circuit > v6 prefix > v4 prefix >
	// device, within each domain's totals combined.
	combined := map[string]int{}
	for _, domain := range []string{"popdc", "backbone"} {
		for k, v := range res.PerType[domain] {
			combined[k] += v
		}
	}
	if !(combined["interface"] > combined["circuit"] &&
		combined["circuit"] > combined["v6 prefix"] &&
		combined["v6 prefix"] > combined["v4 prefix"] &&
		combined["v4 prefix"] > combined["device"]) {
		t.Errorf("type ordering broken: %v", combined)
	}
	if !strings.Contains(res.Format(), "POP and DC") {
		t.Error("format output broken")
	}
}

func TestFig16Distribution(t *testing.T) {
	if testing.Short() {
		t.Skip("config-churn replay in -short mode")
	}
	res, err := RunFig16(DefaultFig16Config())
	if err != nil {
		t.Fatal(err)
	}
	bb := res.Samples["backbone"]
	pd := res.Samples["popdc"]
	if len(bb) < 20 || len(pd) < 20 {
		t.Fatalf("samples: backbone %d, popdc %d", len(bb), len(pd))
	}
	// Core claim: backbone changes are small and frequent, POP/DC large
	// and rare. Our configs are ~3-4x leaner than production, so the
	// paper's 500-line threshold maps to ~150 lines at this scale.
	bbUnder := fracUnder(bb, 150)
	pdUnder := fracUnder(pd, 150)
	if bbUnder < 0.85 {
		t.Errorf("backbone <150-line fraction = %.2f, want >= 0.85 (paper 0.9 at 500)", bbUnder)
	}
	if pdUnder > 0.6 {
		t.Errorf("POP/DC <150-line fraction = %.2f, want <= 0.6 (paper 0.5 at 500)", pdUnder)
	}
	// Crossover: the median POP/DC device-week exceeds the 90th
	// percentile backbone device-week.
	if percentile(pd, 50) <= percentile(bb, 90) {
		t.Errorf("popdc median (%d) should exceed backbone p90 (%d)",
			percentile(pd, 50), percentile(bb, 90))
	}
	if res.AvgLinesPerChange["popdc"] <= 2*res.AvgLinesPerChange["backbone"] {
		t.Errorf("lines/change: popdc %.1f should dominate backbone %.1f",
			res.AvgLinesPerChange["popdc"], res.AvgLinesPerChange["backbone"])
	}
	if res.AvgChangesPerWeek["backbone"] <= res.AvgChangesPerWeek["popdc"] {
		t.Errorf("changes/week: backbone %.2f should exceed popdc %.2f",
			res.AvgChangesPerWeek["backbone"], res.AvgChangesPerWeek["popdc"])
	}
	if !strings.Contains(res.Format(), "backbone") {
		t.Error("format output broken")
	}
}

func TestFig12Evolution(t *testing.T) {
	if testing.Short() {
		t.Skip("architecture evolution replay in -short mode")
	}
	cfg := Fig12Config{Weeks: 52, Seed: 12}
	res, err := RunFig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := cfg.Weeks - 1
	peak := func(gen string) (int, int) {
		max, at := 0, 0
		for w, n := range res.Weekly[gen] {
			if n > max {
				max, at = n, w
			}
		}
		return max, at
	}
	g1Max, g1At := peak("pop-gen1")
	if g1Max < 3 {
		t.Errorf("pop-gen1 never grew (max %d)", g1Max)
	}
	// Gen1 shrinks after its peak as merges proceed.
	if res.Weekly["pop-gen1"][last] >= g1Max {
		t.Errorf("pop-gen1 did not shrink: peak %d, final %d", g1Max, res.Weekly["pop-gen1"][last])
	}
	// Gen2 appears only after the merge window starts and ends above gen1.
	if res.Weekly["pop-gen2"][0] != 0 {
		t.Error("pop-gen2 existed at week 0")
	}
	if res.Weekly["pop-gen2"][last] <= res.Weekly["pop-gen1"][last] {
		t.Errorf("pop-gen2 (%d) should finish above pop-gen1 (%d)",
			res.Weekly["pop-gen2"][last], res.Weekly["pop-gen1"][last])
	}
	// DC generations coexist mid-window.
	mid := cfg.Weeks * 3 / 5
	if res.Weekly["dc-gen1"][mid] == 0 || res.Weekly["dc-gen2"][mid] == 0 || res.Weekly["dc-gen3"][mid] == 0 {
		t.Errorf("DC generations do not coexist at week %d: g1=%d g2=%d g3=%d", mid,
			res.Weekly["dc-gen1"][mid], res.Weekly["dc-gen2"][mid], res.Weekly["dc-gen3"][mid])
	}
	// Gen3 appears strictly after the window opens.
	for w := 0; w < cfg.Weeks/2-1; w++ {
		if res.Weekly["dc-gen3"][w] != 0 {
			t.Errorf("dc-gen3 existed at week %d, before its introduction", w)
			break
		}
	}
	// Gen1 DC count declines.
	if res.Weekly["dc-gen1"][last] >= res.Weekly["dc-gen1"][0] {
		t.Errorf("dc-gen1 did not decline: %d -> %d", res.Weekly["dc-gen1"][0], res.Weekly["dc-gen1"][last])
	}
	_ = g1At
	if !strings.Contains(res.Format(), "pop-gen2") {
		t.Error("format output broken")
	}
}

// TestSeedRobustness: the shape conclusions must hold across seeds, not
// just the default — medians ordering for Fig. 15 and the distribution
// orderings for Table 3.
func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed replay in -short mode")
	}
	for _, seed := range []int64{1, 7, 99} {
		res, err := RunFig15(Fig15Config{Months: 3, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		popdc := percentile(res.Totals["popdc"], 50)
		bb := percentile(res.Totals["backbone"], 50)
		if popdc <= bb {
			t.Errorf("seed %d: popdc median %d <= backbone median %d", seed, popdc, bb)
		}
		combined := map[string]int{}
		for _, domain := range []string{"popdc", "backbone"} {
			for k, v := range res.PerType[domain] {
				combined[k] += v
			}
		}
		if combined["interface"] <= combined["circuit"] || combined["v6 prefix"] <= combined["v4 prefix"] {
			t.Errorf("seed %d: type ordering broken: %v", seed, combined)
		}

		t3 := RunTable3(Table3Config{TotalMessages: 50_000, Seed: seed})
		ignored := float64(t3.Counts[monitor.Ignored]) / float64(t3.Total)
		if ignored < 0.95 {
			t.Errorf("seed %d: ignored fraction %.3f", seed, ignored)
		}
	}
}
