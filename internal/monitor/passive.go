// Package monitor implements Robotron's monitoring stage (SIGCOMM '16,
// §5.4): passive monitoring (syslog collection and classification), active
// monitoring (the Job Manager / Engines / Backends pipeline of Fig. 11),
// and config monitoring (running configs compared against Robotron's
// golden configs).
package monitor

import (
	"fmt"
	"net"
	"regexp"
	"regexp/syntax"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/robotron-net/robotron/internal/netsim"
)

// Urgency is the alert level a syslog rule assigns (Table 3).
type Urgency int

const (
	Ignored Urgency = iota // no rule matched
	Notice
	Warning
	Minor
	Major
	Critical
)

var urgencyNames = map[Urgency]string{
	Ignored: "IGNORED", Notice: "NOTICE", Warning: "WARNING",
	Minor: "MINOR", Major: "MAJOR", Critical: "CRITICAL",
}

func (u Urgency) String() string { return urgencyNames[u] }

// Rule is one regex classification rule, "maintained by network engineers"
// (§5.4.1).
type Rule struct {
	Name    string
	Pattern string
	Urgency Urgency
	// AutoRemediate, if set, is invoked for matching messages instead of
	// paging a human ("remediated automatically or manually by engineers").
	AutoRemediate func(msg netsim.SyslogMessage)

	re *regexp.Regexp
	// literals is set when the pattern is a literal or an alternation of
	// literals ("POWER_ALARM|TEMPERATURE_CRITICAL"); such rules match by
	// substring search, which keeps classification cheap even with
	// hundreds of rules (Table 3's rule set is 719). Any other rule runs
	// re, and only on text holding prefix, the literal every match of re
	// begins with.
	literals []string
	prefix   string
}

// matches reports whether the rule matches a message text.
func (r *Rule) matches(text string) bool {
	if r.literals != nil {
		for _, l := range r.literals {
			if strings.Contains(text, l) {
				return true
			}
		}
		return false
	}
	return strings.Contains(text, r.prefix) && r.re.MatchString(text)
}

// literalAlternatives returns the alternatives of a pattern that parses to
// a literal or an alternation of literals, none case-folded; nil for any
// other pattern. A literal holding U+FFFD is left to the regexp, which
// also matches it against invalid UTF-8.
func literalAlternatives(pattern string) []string {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return nil
	}
	alts := []*syntax.Regexp{re}
	if re.Op == syntax.OpAlternate {
		alts = re.Sub
	}
	out := make([]string, 0, len(alts))
	for _, a := range alts {
		if a.Op != syntax.OpLiteral || a.Flags&syntax.FoldCase != 0 || slices.Contains(a.Rune, utf8.RuneError) {
			return nil
		}
		out = append(out, string(a.Rune))
	}
	return out
}

// Alert is one classified, non-ignored syslog event.
type Alert struct {
	Rule    string
	Urgency Urgency
	Message netsim.SyslogMessage
}

// Classifier matches syslog messages against an ordered rule list.
type Classifier struct {
	mu    sync.RWMutex
	rules []Rule
	// counts per urgency level, for Table 3.
	counts map[Urgency]int64
	// handlers receive alerts for matched, non-ignored messages.
	handlers []func(Alert)
}

// NewClassifier returns a classifier with no rules (everything IGNORED).
func NewClassifier() *Classifier {
	return &Classifier{counts: make(map[Urgency]int64)}
}

// AddRule compiles and installs a rule; rules match in insertion order and
// the first match wins.
func (c *Classifier) AddRule(r Rule) error {
	re, err := regexp.Compile(r.Pattern)
	if err != nil {
		return fmt.Errorf("monitor: rule %q: bad pattern: %w", r.Name, err)
	}
	r.re = re
	if r.literals = literalAlternatives(r.Pattern); r.literals == nil {
		r.prefix, _ = re.LiteralPrefix()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, existing := range c.rules {
		if existing.Name == r.Name {
			return fmt.Errorf("monitor: duplicate rule name %q", r.Name)
		}
	}
	c.rules = append(c.rules, r)
	return nil
}

// MustAddRule is AddRule that panics, for static rule sets.
func (c *Classifier) MustAddRule(r Rule) {
	if err := c.AddRule(r); err != nil {
		panic(err)
	}
}

// RuleCounts returns the number of installed rules per urgency (Table 3's
// "# of rules" column).
func (c *Classifier) RuleCounts() map[Urgency]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := map[Urgency]int{}
	for _, r := range c.rules {
		out[r.Urgency]++
	}
	return out
}

// OnAlert registers a handler invoked for each matched message.
func (c *Classifier) OnAlert(h func(Alert)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handlers = append(c.handlers, h)
}

// Process classifies one message, updates counters, and fires handlers /
// auto-remediation. It returns the matched rule name and urgency
// (IGNORED, "" when no rule matched).
func (c *Classifier) Process(msg netsim.SyslogMessage) (string, Urgency) {
	c.mu.RLock()
	var matched *Rule
	for i := range c.rules {
		if c.rules[i].matches(msg.Text) {
			matched = &c.rules[i]
			break
		}
	}
	handlers := c.handlers
	c.mu.RUnlock()

	c.mu.Lock()
	if matched == nil {
		c.counts[Ignored]++
	} else {
		c.counts[matched.Urgency]++
	}
	c.mu.Unlock()

	if matched == nil {
		return "", Ignored
	}
	// An explicit suppression rule (Urgency Ignored) classifies the line —
	// it is counted under its rule and shadows later, noisier rules — but
	// ignored lines never alert, auto-remediate, or reach backends.
	if matched.Urgency == Ignored {
		return matched.Name, Ignored
	}
	if matched.AutoRemediate != nil {
		matched.AutoRemediate(msg)
	}
	alert := Alert{Rule: matched.Name, Urgency: matched.Urgency, Message: msg}
	for _, h := range handlers {
		h(alert)
	}
	return matched.Name, matched.Urgency
}

// Counts returns per-urgency event counts (Table 3's "# of events").
func (c *Classifier) Counts() map[Urgency]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[Urgency]int64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// Total returns the total number of processed messages.
func (c *Classifier) Total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for _, v := range c.counts {
		t += v
	}
	return t
}

// StandardRules installs a rule set mirroring the Table 3 examples.
func StandardRules(c *Classifier) {
	for _, r := range []Rule{
		{Name: "critical-power", Pattern: `POWER_ALARM|TEMPERATURE_CRITICAL`, Urgency: Critical},
		{Name: "device-reboot", Pattern: `DEVICE_REBOOT`, Urgency: Critical},
		{Name: "linecard-removed", Pattern: `LINECARD_REMOVED`, Urgency: Major},
		{Name: "tcam-error", Pattern: `TCAM_ERROR`, Urgency: Major},
		{Name: "high-temp", Pattern: `TEMPERATURE_HIGH`, Urgency: Major},
		{Name: "tcam-exhausted", Pattern: `TCAM_EXHAUSTED`, Urgency: Minor},
		{Name: "ip-conflict", Pattern: `IP_CONFLICT`, Urgency: Minor},
		{Name: "bad-fpc", Pattern: `FPC_ERROR`, Urgency: Minor},
		{Name: "link-state", Pattern: `LINK_STATE: Interface .* changed state to down`, Urgency: Warning},
		{Name: "bgp-updown", Pattern: `BGP_SESSION: neighbor .* moved to Active`, Urgency: Warning},
		{Name: "config-rollback", Pattern: `CONFIG_ROLLBACK`, Urgency: Warning},
		{Name: "ssl-limit", Pattern: `SSL_CONN_LIMIT`, Urgency: Warning},
		{Name: "config-changed", Pattern: `CONFIG_CHANGED`, Urgency: Notice},
		{Name: "dhcp-snoop", Pattern: `DHCP_SNOOP_DENY`, Urgency: Notice},
		{Name: "mac-conflict", Pattern: `MAC_CONFLICT`, Urgency: Notice},
		{Name: "ntp-unreachable", Pattern: `NTP_UNREACHABLE`, Urgency: Notice},
	} {
		c.MustAddRule(r)
	}
}

// Collector receives syslog datagrams on a UDP socket — standing in for
// the BGP anycast address devices send to (§5.4.1) — parses them, and
// feeds the classifier. Multiple collectors can share one classifier.
type Collector struct {
	pc     net.PacketConn
	cls    *Classifier
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
}

// NewCollector starts a collector on addr (e.g. "127.0.0.1:0").
func NewCollector(addr string, cls *Classifier) (*Collector, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: collector: %w", err)
	}
	col := &Collector{pc: pc, cls: cls}
	col.wg.Add(1)
	go col.readLoop()
	return col, nil
}

// Addr returns the UDP address devices should be configured to log to.
func (col *Collector) Addr() string { return col.pc.LocalAddr().String() }

func (col *Collector) readLoop() {
	defer col.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, _, err := col.pc.ReadFrom(buf)
		if err != nil {
			return
		}
		msg, err := netsim.ParseSyslog(string(buf[:n]))
		if err != nil {
			continue // unparseable datagram
		}
		col.cls.Process(msg)
	}
}

// Close stops the collector.
func (col *Collector) Close() {
	col.mu.Lock()
	if col.closed {
		col.mu.Unlock()
		return
	}
	col.closed = true
	col.mu.Unlock()
	col.pc.Close()
	col.wg.Wait()
}

// UrgencyLevels lists all levels from most to least urgent, for stable
// report rendering.
func UrgencyLevels() []Urgency {
	return []Urgency{Critical, Major, Minor, Warning, Notice, Ignored}
}

// FormatTable3 renders classifier statistics in the layout of the paper's
// Table 3.
func FormatTable3(c *Classifier) string {
	counts := c.Counts()
	rules := c.RuleCounts()
	total := c.Total()
	var b []byte
	b = fmt.Appendf(b, "%-10s %12s %12s %10s\n", "Urgency", "# of events", "Percentage", "# of rules")
	for _, u := range UrgencyLevels() {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(counts[u]) / float64(total)
		}
		b = fmt.Appendf(b, "%-10s %12d %11.2f%% %10d\n", u, counts[u], pct, rules[u])
	}
	b = fmt.Appendf(b, "%-10s %12d %11.2f%% %10d\n", "Total", total, 100.0, len(sortedRuleNames(c)))
	return string(b)
}

func sortedRuleNames(c *Classifier) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, len(c.rules))
	for i, r := range c.rules {
		names[i] = r.Name
	}
	sort.Strings(names)
	return names
}
