package monitor

import (
	"slices"
	"testing"

	"github.com/robotron-net/robotron/internal/netsim"
)

// Rule ordering semantics, pinned: when several rules match one line, the
// FIRST rule in insertion order wins — not the most severe. Engineers
// order the rule file, so a deliberately-early suppression or override
// rule shadows everything after it.
func TestClassifierOrderBeatsSeverity(t *testing.T) {
	c := NewClassifier()
	// The earlier rule is LESS severe; first-match-wins means it still
	// takes the line over the later Critical rule.
	c.MustAddRule(Rule{Name: "known-noise", Pattern: `TCAM_ERROR: unit 7`, Urgency: Notice})
	c.MustAddRule(Rule{Name: "tcam-critical", Pattern: `TCAM_ERROR`, Urgency: Critical})

	rule, u := c.Process(msg("d1", "TCAM_ERROR: unit 7 parity event"))
	if rule != "known-noise" || u != Notice {
		t.Fatalf("matched %s/%s, want known-noise/NOTICE (first rule wins)", rule, u)
	}
	rule, u = c.Process(msg("d1", "TCAM_ERROR: unit 2 parity event"))
	if rule != "tcam-critical" || u != Critical {
		t.Fatalf("matched %s/%s, want tcam-critical/CRITICAL", rule, u)
	}
	counts := c.Counts()
	if counts[Notice] != 1 || counts[Critical] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// Ignored lines — both unmatched lines and lines taken by an explicit
// suppression rule — are counted for Table 3 but never produce an alert.
func TestClassifierIgnoredCountedNotAlarmed(t *testing.T) {
	c := NewClassifier()
	autoRemediated := 0
	c.MustAddRule(Rule{
		Name: "suppress-lab", Pattern: `LINK_STATE: Interface lab`, Urgency: Ignored,
		AutoRemediate: func(m netsim.SyslogMessage) { autoRemediated++ },
	})
	c.MustAddRule(Rule{
		Name: "link-down", Pattern: `LINK_STATE: Interface .* changed state to down`, Urgency: Warning,
	})
	var alerts []Alert
	c.OnAlert(func(a Alert) { alerts = append(alerts, a) })

	// Unmatched line: counted Ignored, anonymous, no alert.
	rule, u := c.Process(msg("d1", "chassisd heartbeat ok"))
	if rule != "" || u != Ignored {
		t.Fatalf("unmatched line classified %q/%s", rule, u)
	}
	// Suppressed line: the Ignored rule shadows the later Warning rule,
	// the line is counted under Ignored, and no alert fires.
	rule, u = c.Process(msg("d1", "LINK_STATE: Interface lab0 changed state to down"))
	if rule != "suppress-lab" || u != Ignored {
		t.Fatalf("suppressed line classified %q/%s", rule, u)
	}
	// A production link-down still alerts.
	rule, u = c.Process(msg("d1", "LINK_STATE: Interface et1/1 changed state to down"))
	if rule != "link-down" || u != Warning {
		t.Fatalf("production line classified %q/%s", rule, u)
	}

	if counts := c.Counts(); counts[Ignored] != 2 || counts[Warning] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if len(alerts) != 1 || alerts[0].Rule != "link-down" {
		t.Fatalf("alerts = %+v, want exactly the production link-down", alerts)
	}
	if autoRemediated != 0 {
		t.Fatalf("suppressed line triggered auto-remediation")
	}
}

// TestClassifierRulePlans: AddRule matches a literal or an alternation of
// flag-free literals by substring search, and gates any other pattern on
// its literal prefix.
func TestClassifierRulePlans(t *testing.T) {
	cases := []struct {
		pattern  string
		literals []string
		prefix   string
	}{
		{`POWER_ALARM|TEMPERATURE_CRITICAL`, []string{"POWER_ALARM", "TEMPERATURE_CRITICAL"}, ""},
		{`DEVICE_REBOOT`, []string{"DEVICE_REBOOT"}, ""},
		{`SYN_MINOR_12:`, []string{"SYN_MINOR_12:"}, ""},
		{`LINK_STATE: Interface .* changed state to down`, nil, "LINK_STATE: Interface "},
		{`TCAM_ERROR|TCAM_EXHAUSTED`, nil, "TCAM_E"}, // the parser factors the common prefix out
		{`(?i)POWER_ALARM|TEMP`, nil, ""},
		{`(POWER_ALARM|TEMP)`, nil, ""},
		{`A|`, nil, ""},
		{`x|y`, nil, ""}, // a character class
		// The regexp matches U+FFFD against invalid UTF-8 too, which a
		// substring search would not; its literal prefix stops short of it.
		{"BAD_\uFFFD|X", nil, ""},
		{"BAD_\uFFFD.*", nil, "BAD_"},
	}
	for _, tc := range cases {
		c := NewClassifier()
		c.MustAddRule(Rule{Name: "r", Pattern: tc.pattern, Urgency: Minor})
		r := c.rules[0]
		if !slices.Equal(r.literals, tc.literals) || r.prefix != tc.prefix {
			t.Errorf("%q: literals %q prefix %q, want %q %q", tc.pattern, r.literals, r.prefix, tc.literals, tc.prefix)
		}
	}
}
