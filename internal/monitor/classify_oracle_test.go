package monitor_test

import (
	"regexp"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/experiments"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/vclock"
)

// netsimTexts drives a small wired fleet through every verb and event
// that emits syslog — commits of every kind, rollback, erase, manual and
// out-of-band drift, links and sessions moving both ways, reboot, OS
// upgrade, linecard pull — and returns each message text it emitted.
func netsimTexts(t *testing.T) []string {
	t.Helper()
	var (
		mu    sync.Mutex // a confirm timer emits from its own goroutine
		texts []string
	)
	fleet := netsim.NewFleet(vclock.RealClock())
	add := func(name string, v netsim.Vendor, cfg string) *netsim.Device {
		d, err := fleet.AddDevice(name, v, "psw", "pop1")
		if err != nil {
			t.Fatal(err)
		}
		d.SetSyslogSink(func(m netsim.SyslogMessage) {
			mu.Lock()
			texts = append(texts, m.Text)
			mu.Unlock()
		})
		if err := d.LoadConfig(cfg); err != nil {
			t.Fatal(err)
		}
		if err := d.Commit(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	a := add("a", netsim.Vendor1, "interface et1/1\n ip addr 10.0.0.0/31\nneighbor 10.0.0.1 remote-as 65000\n")
	b := add("b", netsim.Vendor2, "et-1/0/1 {\n addr 10.0.0.1/31\n}\nprotocols {\n bgp {\n  neighbor 10.0.0.0 {\n  }\n }\n}\n")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(fleet.Wire("a", "et1/1", "b", "et-1/0/1"))
	must(b.LoadConfig("et-1/0/1 {\n}\n"))
	must(b.CommitConfirmed(time.Millisecond))
	for deadline := time.Now().Add(30 * time.Second); b.ConfirmPending() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	must(b.LoadConfig("et-1/0/1 {\n}\n"))
	must(b.CommitConfirmed(time.Hour))
	must(b.Confirm())
	must(a.ApplyManualChange("snmp-server community rogue ro"))
	must(a.InjectRunningConfig("interface et1/1\n ip addr 10.0.0.0/31\n"))
	must(a.Rollback())
	b.Reboot()
	b.UpgradeOS("18.1R1")
	a.RemoveLinecard(1)
	a.SetDown(true)
	fleet.Recompute()
	a.SetDown(false)
	fleet.Recompute()
	fleet.Uncable("a", "et1/1")
	must(a.EraseConfig())
	mu.Lock()
	defer mu.Unlock()
	return slices.Clone(texts)
}

// TestClassifierMatchesRegexpOracle: the classifier's substring paths
// (literal alternations, the literal-prefix gate) classify every message
// text netsim emits, and Table 3's synthetic stream, exactly as trying
// each rule's pattern with regexp.MatchString in order would — under
// StandardRules and under Table 3's 719-rule set.
func TestClassifierMatchesRegexpOracle(t *testing.T) {
	texts := netsimTexts(t)
	for _, want := range []string{"CONFIG_CHANGED", "CONFIG_ROLLBACK", "LINK_STATE", "BGP_SESSION", "DEVICE_REBOOT", "OS_UPGRADE", "LINECARD_REMOVED"} {
		if !slices.ContainsFunc(texts, func(s string) bool { return regexp.MustCompile(want).MatchString(s) }) {
			t.Fatalf("netsim emitted no %s message: %q", want, texts)
		}
	}
	t3 := experiments.BuildTable3Classifier()
	for _, m := range experiments.Table3MessageStream(experiments.Table3Config{TotalMessages: 1000, Seed: 3}, t3.RuleCounts()) {
		texts = append(texts, m.Text)
	}
	texts = append(texts, "POWER_ALARM", "xTEMPERATURE_CRITICALx", "TEMPERATURE_", "LINK_STATE: Interface et1/1 changed state to up",
		"BGP_SESSION: neighbor  moved to Active", "", "\xff")

	std := monitor.NewClassifier()
	monitor.StandardRules(std)
	for _, set := range []struct {
		name string
		cls  *monitor.Classifier
	}{{"standard", std}, {"table3", t3}} {
		rules := set.cls.Rules()
		res := make([]*regexp.Regexp, len(rules))
		for i, r := range rules {
			res[i] = regexp.MustCompile(r.Pattern)
		}
		matched := 0
		for _, text := range texts {
			want := ""
			for i, re := range res {
				if re.MatchString(text) {
					want = rules[i].Name
					break
				}
			}
			if want != "" {
				matched++
			}
			got, _ := set.cls.Process(netsim.SyslogMessage{Severity: 5, Host: "d", App: "a", Text: text})
			if got != want {
				t.Errorf("%s rules: %q classified by %q, regexp order says %q", set.name, text, got, want)
			}
		}
		if matched == 0 {
			t.Errorf("%s rules matched none of %d texts", set.name, len(texts))
		}
	}
}
