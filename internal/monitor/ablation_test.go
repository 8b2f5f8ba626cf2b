package monitor

import (
	"fmt"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/vclock"
)

// Ablation: the classifier's literal fast path (DESIGN.md design choice).
// Production rule sets are dominated by literal markers; matching those
// with substring search instead of compiled regexes is what keeps a
// ~700-rule classifier viable at tens of millions of messages per day.
// Benchmark both paths over an identical rule population.

func buildAblationRules(n int, forceRegex bool) *Classifier {
	c := NewClassifier()
	for i := 0; i < n; i++ {
		pattern := fmt.Sprintf("SYN_RULE_%04d:", i)
		if forceRegex {
			// Case folding defeats both the literal path and the literal
			// prefix gate without changing what the rule matches on these
			// all-capital markers.
			pattern = fmt.Sprintf("(?i)SYN_RULE_%04d:", i)
		}
		c.MustAddRule(Rule{Name: fmt.Sprintf("r%d", i), Pattern: pattern, Urgency: Warning})
	}
	return c
}

func ablationMessages() []netsim.SyslogMessage {
	// Worst case: ignored messages scan the entire rule list.
	msgs := make([]netsim.SyslogMessage, 4)
	for i := range msgs {
		msgs[i] = netsim.SyslogMessage{
			Severity: 5, Host: "dev", App: "app",
			Text: fmt.Sprintf("LSP change: recomputed path %d, no rule matches this", i),
			Time: time.Unix(0, 0),
		}
	}
	return msgs
}

func BenchmarkClassifierLiteralPath(b *testing.B) {
	c := buildAblationRules(700, false)
	msgs := ablationMessages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Process(msgs[i%len(msgs)])
	}
}

// BenchmarkClassifierRegexPath runs the same rules' compiled regexps in
// order, first match wins, as classification did before it had substring
// paths. A case-folded rule set would defeat the substring paths too, but
// also the regexp package's own literal-prefix scan.
func BenchmarkClassifierRegexPath(b *testing.B) {
	c := buildAblationRules(700, false)
	msgs := ablationMessages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text := msgs[i%len(msgs)].Text
		for j := range c.rules {
			if c.rules[j].re.MatchString(text) {
				break
			}
		}
	}
}

// TestLiteralAndRegexPathsAgree: the fast path is an optimization, not a
// semantic change.
func TestLiteralAndRegexPathsAgree(t *testing.T) {
	lit := buildAblationRules(50, false)
	rex := buildAblationRules(50, true)
	cases := []string{
		"SYN_RULE_0007: hello",
		"prefix SYN_RULE_0049: suffix",
		"SYN_RULE_9999: unknown rule id",
		"no match at all",
		"SYN_RULE_007: short id does not match",
	}
	for _, text := range cases {
		m := netsim.SyslogMessage{Severity: 5, Host: "d", App: "a", Text: text, Time: time.Unix(0, 0)}
		r1, u1 := lit.Process(m)
		r2, u2 := rex.Process(m)
		if r1 != r2 || u1 != u2 {
			t.Errorf("paths disagree on %q: literal (%s,%s) vs regex (%s,%s)", text, r1, u1, r2, u2)
		}
	}
}

// TestAnycastCollectorGroup: multiple collectors (the paper's anycast
// members) share one classifier; messages land on any member and the
// aggregate counts converge.
func TestAnycastCollectorGroup(t *testing.T) {
	cls := NewClassifier()
	StandardRules(cls)
	var collectors []*Collector
	for i := 0; i < 3; i++ {
		col, err := NewCollector("127.0.0.1:0", cls)
		if err != nil {
			t.Fatal(err)
		}
		defer col.Close()
		collectors = append(collectors, col)
	}
	fleet := netsim.NewFleet(vclock.RealClock())
	const n = 9
	for i := 0; i < n; i++ {
		d, _ := fleet.AddDevice(fmt.Sprintf("dev%d", i), netsim.Vendor1, "psw", "pop1")
		// Each device is "routed" to a different anycast member.
		sink, err := netsim.UDPSyslogSink(collectors[i%len(collectors)].Addr())
		if err != nil {
			t.Fatal(err)
		}
		d.SetSyslogSink(sink)
		d.LoadConfig("interface ae0\n")
		d.Commit() // emits CONFIG_CHANGED
	}
	deadline := time.Now().Add(2 * time.Second)
	for cls.Total() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if cls.Counts()[Notice] != n {
		t.Errorf("anycast group classified %d notices, want %d", cls.Counts()[Notice], n)
	}
}
