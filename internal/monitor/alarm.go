package monitor

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
)

// The alarm engine closes the monitoring loop (§5.4): collected data is
// not just stored, it is *evaluated* against alarm rules derived from the
// same FBNet intent that produced the collection jobs. Each alarm walks a
// pending → firing → resolved lifecycle, is deduplicated while active,
// and — the part engineers actually use during an incident — is annotated
// at fire time with the operational events (design change, deploy,
// verify-gate verdict, reconcile journal) that immediately preceded it.

// AlarmState is one step of the alarm lifecycle.
type AlarmState string

const (
	AlarmPending  AlarmState = "pending"  // breached, waiting out PendingFor
	AlarmFiring   AlarmState = "firing"   // breached past PendingFor
	AlarmResolved AlarmState = "resolved" // previously firing, now clear
)

// AlarmKind selects the evaluation strategy of a rule.
type AlarmKind string

const (
	// KindThreshold compares the latest sample of a series to a value.
	KindThreshold AlarmKind = "threshold"
	// KindAbsence fires when a series that has reported before goes
	// silent for longer than Window.
	KindAbsence AlarmKind = "absence"
	// KindFlatline fires when the last two samples of a counter series
	// show no increase (a frozen octet counter on a supposedly-live port).
	KindFlatline AlarmKind = "flatline"
	// KindBGPState fires when the Derived BGP session (Device, Key=peer
	// address) is observed in any state other than Established.
	KindBGPState AlarmKind = "bgp-state"
	// KindFlap fires when at least FlapCount syslog alerts matching the
	// classifier rule named by Key arrive within Window.
	KindFlap AlarmKind = "flap"
)

// AlarmRule is one evaluable condition. Rules are typically derived from
// FBNet by DeriveJobs, not hand-written — monitoring config regenerates
// with the design, exactly like device config.
type AlarmRule struct {
	Name    string    // rule family, e.g. "bgp-session-down"
	Kind    AlarmKind //
	Device  string    // device the rule observes
	Key     string    // series key suffix, peer address, or syslog rule
	Urgency Urgency

	Op    string  // threshold: ==, !=, >=, <=, >, <
	Value float64 // threshold value

	Window    time.Duration // absence / flap look-back
	FlapCount int           // flap: alerts within Window to fire

	// PendingFor is how long a breach must persist before the alarm moves
	// from pending to firing; 0 fires on the first breached evaluation.
	PendingFor time.Duration
}

// alarmKey is the deduplication key — one active alarm per (rule, device,
// key) — and the order rules are evaluated and alarms listed in.
type alarmKey struct{ name, device, key string }

func (r *AlarmRule) key() alarmKey { return alarmKey{r.Name, r.Device, r.Key} }

func (a alarmKey) compare(b alarmKey) int {
	return cmp.Or(cmp.Compare(a.name, b.name), cmp.Compare(a.device, b.device), cmp.Compare(a.key, b.key))
}

// TimelineEntry is one event of the merged operational timeline: the
// design → generate → verify → deploy → alarm → reconcile stream, ordered
// and queryable (programmatically, via `robotron obs timeline`, and over
// HTTP /timeline).
type TimelineEntry struct {
	At     time.Time `json:"at"`
	Stage  string    `json:"stage"` // design, verify, deploy, monitor, alarm, reconcile
	Device string    `json:"device"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail"`
}

func (e TimelineEntry) String() string {
	return fmt.Sprintf("%s %-9s %-16s %-18s %s",
		e.At.UTC().Format(time.RFC3339), e.Stage, e.Device, e.Kind, e.Detail)
}

// Alarm is one lifecycle instance of a rule breach.
type Alarm struct {
	Rule    string     `json:"rule"`
	Device  string     `json:"device"`
	Key     string     `json:"key"`
	State   AlarmState `json:"state"`
	Urgency string     `json:"urgency"`
	Detail  string     `json:"detail"`

	Since      time.Time `json:"since"`       // first breached evaluation
	FiredAt    time.Time `json:"fired_at"`    // zero while pending
	ResolvedAt time.Time `json:"resolved_at"` // zero until resolved

	// Correlated is the look-back annotation captured at fire time: the
	// most recent operational events inside the correlation window,
	// answering "what changed right before this broke?".
	Correlated []TimelineEntry `json:"correlated,omitempty"`
}

// JournalEntry is the reconciler-journal shape the engine accepts without
// importing the reconcile package (which imports monitor).
type JournalEntry struct {
	At     time.Time
	Device string
	Type   string
	Detail string
}

// DefaultCorrelationWindow is how far back a firing alarm looks for its
// causing events.
const DefaultCorrelationWindow = 15 * time.Minute

// DefaultCorrelationLimit caps how many correlated events ride on one
// alarm (the most recent win).
const DefaultCorrelationLimit = 8

// AlarmEngine evaluates rules over the timeseries store, the Derived
// models, and the syslog alert stream, all on a shared clock.
type AlarmEngine struct {
	clock vclock.Clock
	ts    *TimeseriesBackend
	store *fbnet.Store

	mu       sync.Mutex
	runs     []ruleRun           // the rules, in key order
	version  uint64              // moves with every change to the rules
	active   map[alarmKey]*Alarm // pending + firing
	resolved ring[Alarm]         // resolved history, oldest first
	alerts   ring[Alert]         // recent syslog alerts, for flap rules
	journal  func() []JournalEntry

	// What the next pass evaluates besides due and flap runs (Evaluate):
	// every rule when full, else the rules of the devices marked in ts
	// after cursor, of those in dirty, and of those with an active alarm.
	full   bool
	cursor uint64
	dirty  map[string]bool // rules replaced, or a read failed
	picked map[string]bool // the devices a pass selects, reused

	// metrics, nil (no-op) until Instrument
	reg       *telemetry.Registry
	mFired    map[string]*telemetry.Counter
	mResolved map[string]*telemetry.Counter
	mFiring   *telemetry.Gauge
	mEvals    *telemetry.Counter
	mRules    *telemetry.Counter
}

// NewAlarmEngine builds an engine over the given stores. clock may be nil
// (wall clock); store may be nil (BGP-state rules never fire; correlation
// sees only the reconcile journal).
func NewAlarmEngine(clock vclock.Clock, ts *TimeseriesBackend, store *fbnet.Store) *AlarmEngine {
	if clock == nil {
		clock = vclock.RealClock()
	}
	return &AlarmEngine{
		clock:  clock,
		ts:     ts,
		store:  store,
		active: make(map[alarmKey]*Alarm),
		full:   true,
		dirty:  make(map[string]bool),
		picked: make(map[string]bool),
	}
}

// SetJournalSource installs the reconcile-journal reader used for the
// timeline and correlation.
func (ae *AlarmEngine) SetJournalSource(src func() []JournalEntry) {
	ae.mu.Lock()
	defer ae.mu.Unlock()
	ae.journal = src
}

// Subscribe attaches the engine to a classifier: every alert feeds the
// flap-rule history.
func (ae *AlarmEngine) Subscribe(cls *Classifier) {
	cls.OnAlert(ae.ObserveAlert)
}

// ObserveAlert records one syslog alert for flap evaluation.
func (ae *AlarmEngine) ObserveAlert(a Alert) {
	ae.mu.Lock()
	defer ae.mu.Unlock()
	ae.alerts.push(a)
}

// Instrument mirrors alarm lifecycle transitions onto reg.
func (ae *AlarmEngine) Instrument(reg *telemetry.Registry) {
	ae.mu.Lock()
	defer ae.mu.Unlock()
	ae.reg = reg
	reg.Help("robotron_alarms_fired_total", "alarms that reached the firing state, per rule")
	reg.Help("robotron_alarms_resolved_total", "firing alarms that resolved, per rule")
	reg.Help("robotron_alarms_firing", "alarms currently firing")
	reg.Help("robotron_alarm_evaluations_total", "alarm evaluation passes")
	reg.Help("robotron_alarm_rules_evaluated_total", "alarm rules evaluated: those of the devices whose inputs moved since the last pass")
	ae.mFired = make(map[string]*telemetry.Counter)
	ae.mResolved = make(map[string]*telemetry.Counter)
	ae.mFiring = reg.Gauge("robotron_alarms_firing")
	ae.mEvals = reg.Counter("robotron_alarm_evaluations_total")
	ae.mRules = reg.Counter("robotron_alarm_rules_evaluated_total")
}

// ruleRun is the rules of one family on one device, in key order. The
// engine holds its rules as runs in (family, device) order, which laid end
// to end are the rules in alarmKey order; replacing one device's rules
// rewrites the list of runs, not every rule.
type ruleRun struct {
	name, device string
	rules        []AlarmRule
	// flap: the run holds a flap rule, whose verdict moves with the alert
	// stream and the clock, so every pass evaluates it.
	flap bool
	// due is the run's slot in the deadline wheel: the latest instant none
	// of its absence rules, unbreached when last evaluated, has breached
	// yet; zero for none. A pass after it evaluates the run.
	due time.Time
}

// dueBy brings the run's deadline forward to at.
func (r *ruleRun) dueBy(at time.Time) {
	if r.due.IsZero() || at.Before(r.due) {
		r.due = at
	}
}

func (r *ruleRun) compare(name, device string) int {
	return cmp.Or(cmp.Compare(r.name, name), cmp.Compare(r.device, device))
}

// runsOf sorts rules into alarmKey order (a set already in it is not
// sorted again) and cuts them into runs. Each run gets a copy of its own,
// so replacing some devices' runs later frees what they held.
func runsOf(rules []AlarmRule) []ruleRun {
	byKey := func(a, b AlarmRule) int { return a.key().compare(b.key()) }
	if !slices.IsSortedFunc(rules, byKey) {
		rules = slices.Clone(rules)
		slices.SortFunc(rules, byKey)
	}
	var runs []ruleRun
	for i := 0; i < len(rules); {
		j := i + 1
		for j < len(rules) && rules[j].Name == rules[i].Name && rules[j].Device == rules[i].Device {
			j++
		}
		run := ruleRun{name: rules[i].Name, device: rules[i].Device, rules: slices.Clone(rules[i:j])}
		run.flap = slices.ContainsFunc(run.rules, func(r AlarmRule) bool { return r.Kind == KindFlap })
		runs = append(runs, run)
		i = j
	}
	return runs
}

// ReplaceRules swaps the full rule set, kept in alarmKey order, and the
// next pass evaluates every rule. Active alarms whose rule disappeared are
// dropped: the design no longer declares what they watched.
func (ae *AlarmEngine) ReplaceRules(rules []AlarmRule) { ae.replace(nil, rules) }

// ReplaceDeviceRules is ReplaceRules for some devices: the rules of every
// device named in devices or by one of the rules are swapped for rules,
// leaving the order ReplaceRules would. Of the active alarms, only those on
// these devices whose rule disappeared are dropped; every other alarm,
// its Since and FiredAt, stays as it is. The next pass evaluates these
// devices' rules.
func (ae *AlarmEngine) ReplaceDeviceRules(devices []string, rules []AlarmRule) {
	replaced := make(map[string]bool, len(devices))
	for _, d := range devices {
		replaced[d] = true
	}
	for _, r := range rules {
		replaced[r.Device] = true
	}
	ae.replace(replaced, rules)
}

// replace swaps the rules of the replaced devices — every rule when
// replaced is nil — for rules, merged by run among the runs kept.
func (ae *AlarmEngine) replace(replaced map[string]bool, rules []AlarmRule) {
	add := runsOf(rules)
	ae.mu.Lock()
	defer ae.mu.Unlock()
	out := make([]ruleRun, 0, len(ae.runs)+len(add))
	for _, run := range ae.runs {
		if replaced == nil || replaced[run.device] {
			continue
		}
		for len(add) > 0 && add[0].compare(run.name, run.device) < 0 {
			out, add = append(out, add[0]), add[1:]
		}
		out = append(out, run)
	}
	ae.runs = append(out, add...)
	ae.version++
	ae.dropOrphansLocked(replaced)
	ae.full = ae.full || replaced == nil
	for d := range replaced {
		ae.dirty[d] = true
	}
}

// dropOrphansLocked drops the active alarms — on the given devices, or on
// any when on is nil — whose rule is no longer installed.
func (ae *AlarmEngine) dropOrphansLocked(on map[string]bool) {
	for id, al := range ae.active {
		if on != nil && !on[id.device] || ae.hasRuleLocked(id) {
			continue
		}
		if al.State == AlarmFiring && ae.mFiring != nil {
			ae.mFiring.Dec()
		}
		delete(ae.active, id)
	}
}

func (ae *AlarmEngine) hasRuleLocked(id alarmKey) bool {
	i, ok := slices.BinarySearchFunc(ae.runs, id, func(r ruleRun, id alarmKey) int { return r.compare(id.name, id.device) })
	if ok {
		_, ok = slices.BinarySearchFunc(ae.runs[i].rules, id.key, func(r AlarmRule, key string) int { return cmp.Compare(r.Key, key) })
	}
	return ok
}

// Version moves with every change to the installed rules; see
// JobManager.Version.
func (ae *AlarmEngine) Version() uint64 {
	ae.mu.Lock()
	defer ae.mu.Unlock()
	return ae.version
}

// Rules returns the installed rule set, in alarmKey order.
func (ae *AlarmEngine) Rules() []AlarmRule {
	ae.mu.Lock()
	defer ae.mu.Unlock()
	var out []AlarmRule
	for _, run := range ae.runs {
		out = append(out, run.rules...)
	}
	return out
}

// Evaluate runs one pass at the engine clock's now, walking lifecycles
// forward, and returns the alarms currently firing, sorted by (rule,
// device, key). The result and every alarm's lifecycle are those of a pass
// over every rule, but a pass evaluates only the rules whose verdict can
// have moved since the last one (DESIGN.md §15.2): those of a device that
// was marked — a collection stored, observed BGP sessions changed — whose
// rules were replaced, whose last read failed, or that has an active
// alarm; a run whose absence deadline passed; and every flap rule. The
// first pass, and the first after ReplaceRules, evaluates every rule. The
// rules evaluated are walked in alarmKey order, as a full pass walks them.
func (ae *AlarmEngine) Evaluate() []Alarm {
	now := ae.clock.Now()
	ae.mu.Lock()
	defer ae.mu.Unlock()
	if ae.mEvals != nil {
		ae.mEvals.Inc()
	}
	picked := ae.pickLocked()
	// Every alarm that fires in this pass looks back over the same window:
	// assemble it on the first fire, and not at all on a quiet pass.
	correlated := sync.OnceValue(func() []TimelineEntry {
		tl := ae.timelineLocked(now.Add(-DefaultCorrelationWindow), now, false)
		if n := len(tl); n > DefaultCorrelationLimit {
			tl = tl[n-DefaultCorrelationLimit:]
		}
		return tl
	})
	// Observed BGP sessions are read once, at the pass's first bgp-state
	// rule, and kept no longer than the pass.
	sessions := sync.OnceValues(ae.sessionStates)
	evaluated := 0
	for i := range ae.runs {
		run := &ae.runs[i]
		if !ae.full && !run.flap && !picked[run.device] && (run.due.IsZero() || !now.After(run.due)) {
			continue
		}
		run.due = time.Time{}
		evaluated += len(run.rules)
		for j := range run.rules {
			r := &run.rules[j]
			breached, detail, err := ae.evalLocked(run, r, now, sessions)
			if err != nil {
				// A failed read says nothing about the rule: its alarm
				// stays as it is, and the next pass reads again.
				ae.dirty[r.Device] = true
				continue
			}
			if !breached && len(ae.active) == 0 {
				continue // the common quiet rule: nothing to walk forward
			}
			id := r.key()
			al := ae.active[id]
			switch {
			case breached && al == nil:
				al = &Alarm{
					Rule: r.Name, Device: r.Device, Key: r.Key,
					State: AlarmPending, Urgency: r.Urgency.String(),
					Detail: detail, Since: now,
				}
				ae.active[id] = al
				ae.maybeFireLocked(r, al, now, correlated)
			case breached:
				al.Detail = detail
				ae.maybeFireLocked(r, al, now, correlated)
			case al != nil && al.State == AlarmFiring:
				al.State = AlarmResolved
				al.ResolvedAt = now
				ae.resolved.push(*al)
				delete(ae.active, id)
				if ae.mFiring != nil {
					ae.mFiring.Dec()
					ae.ruleCounter(ae.mResolved, "robotron_alarms_resolved_total", r.Name).Inc()
				}
			case al != nil:
				// Pending breach cleared before PendingFor elapsed: no alarm.
				delete(ae.active, id)
			}
		}
	}
	ae.full = false
	ae.mRules.Add(int64(evaluated))
	return ae.firingLocked()
}

// pickLocked returns the devices whose rules this pass evaluates: those
// marked since the last pass, those left dirty, and those with an active
// alarm — a pending one advances with the clock, a firing one refreshes
// its Detail. The marks are taken before any rule reads its input, so a
// mark a pass misses is one whose change the next pass reads.
func (ae *AlarmEngine) pickLocked() map[string]bool {
	clear(ae.picked)
	ae.cursor = ae.ts.markedSince(ae.cursor, func(device string) { ae.picked[device] = true })
	for device := range ae.dirty {
		ae.picked[device] = true
	}
	clear(ae.dirty)
	for id := range ae.active {
		ae.picked[id.device] = true
	}
	return ae.picked
}

func (ae *AlarmEngine) maybeFireLocked(r *AlarmRule, al *Alarm, now time.Time, correlated func() []TimelineEntry) {
	if al.State != AlarmPending || now.Sub(al.Since) < r.PendingFor {
		return
	}
	al.State = AlarmFiring
	al.FiredAt = now
	al.Correlated = correlated()
	if ae.mFiring != nil {
		ae.mFiring.Inc()
		ae.ruleCounter(ae.mFired, "robotron_alarms_fired_total", r.Name).Inc()
	}
}

func (ae *AlarmEngine) ruleCounter(m map[string]*telemetry.Counter, metric, rule string) *telemetry.Counter {
	c, ok := m[rule]
	if !ok {
		c = ae.reg.Counter(metric, telemetry.Label{Key: "rule", Value: rule})
		m[rule] = c
	}
	return c
}

// sessionStates reads every observed BGP session's state, keyed (device,
// peer address); of several rows for one session the first in id order wins.
// It reads the stored rows in place (Peek), copying none of them.
func (ae *AlarmEngine) sessionStates() (map[[2]string]string, error) {
	if ae.store == nil {
		return nil, nil
	}
	rows, _, _, err := ae.store.Peek("DerivedBgpSession", nil)
	states := make(map[[2]string]string, len(rows))
	for i := len(rows) - 1; i >= 0; i-- {
		states[[2]string{rows[i].String("device_name"), rows[i].String("peer_addr")}] = rows[i].String("state")
	}
	return states, err
}

// evalLocked decides whether one rule of run is breached right now; an
// error means what the rule observes could not be read. An unbreached
// absence rule sets the run's deadline to the instant it would breach.
func (ae *AlarmEngine) evalLocked(run *ruleRun, r *AlarmRule, now time.Time, sessions func() (map[[2]string]string, error)) (bool, string, error) {
	switch r.Kind {
	case KindThreshold:
		last, _, n := ae.ts.tail(r.Device, r.Key)
		if n == 0 {
			return false, "", nil
		}
		if compareFloat(last.Value, r.Op, r.Value) {
			return true, fmt.Sprintf("%s = %g, breaching %s %g", r.Key, last.Value, r.Op, r.Value), nil
		}
	case KindAbsence:
		last, _, n := ae.ts.tail(r.Device, r.Key)
		if n == 0 {
			return false, "", nil // never reported: nothing to go silent
		}
		age := now.Sub(time.Unix(last.AtUnix, 0))
		if age > r.Window {
			return true, fmt.Sprintf("%s silent for %s (window %s)", r.Key, age.Round(time.Second), r.Window), nil
		}
		run.dueBy(time.Unix(last.AtUnix, 0).Add(r.Window))
	case KindFlatline:
		last, prev, n := ae.ts.tail(r.Device, r.Key)
		if n < 2 {
			return false, "", nil
		}
		if last.Value <= prev.Value {
			return true, fmt.Sprintf("%s flat at %g across the last two samples", r.Key, last.Value), nil
		}
	case KindBGPState:
		states, err := sessions() // empty when the read failed
		if st, observed := states[[2]string{r.Device, r.Key}]; observed && st != "Established" {
			return true, fmt.Sprintf("session to %s observed %s", r.Key, st), nil
		}
		return false, "", err
	case KindFlap:
		n := 0
		for i := range ae.alerts.buf {
			a := &ae.alerts.buf[i]
			if a.Rule != r.Key {
				continue
			}
			if r.Device != "" && a.Message.Host != r.Device {
				continue
			}
			if now.Sub(a.Message.Time) <= r.Window {
				n++
			}
		}
		if n >= r.FlapCount {
			return true, fmt.Sprintf("%d %q alerts within %s", n, r.Key, r.Window), nil
		}
	}
	return false, "", nil
}

func compareFloat(got float64, op string, want float64) bool {
	switch op {
	case "==":
		return got == want
	case "!=":
		return got != want
	case ">=":
		return got >= want
	case "<=":
		return got <= want
	case ">":
		return got > want
	case "<":
		return got < want
	}
	return false
}

func (ae *AlarmEngine) firingLocked() []Alarm {
	out := make([]Alarm, 0, len(ae.active))
	for _, al := range ae.active {
		if al.State == AlarmFiring {
			out = append(out, *al)
		}
	}
	sortAlarms(out)
	return out
}

func sortAlarms(xs []Alarm) {
	slices.SortFunc(xs, func(a, b Alarm) int {
		return alarmKey{a.Rule, a.Device, a.Key}.compare(alarmKey{b.Rule, b.Device, b.Key})
	})
}

// Firing returns the alarms currently firing without re-evaluating.
func (ae *AlarmEngine) Firing() []Alarm {
	ae.mu.Lock()
	defer ae.mu.Unlock()
	return ae.firingLocked()
}

// Snapshot returns every known alarm — pending, firing, and resolved
// history — sorted firing first, then pending, then resolved, each group
// by (rule, device, key).
func (ae *AlarmEngine) Snapshot() []Alarm {
	ae.mu.Lock()
	defer ae.mu.Unlock()
	var firing, pending []Alarm
	for _, al := range ae.active {
		if al.State == AlarmFiring {
			firing = append(firing, *al)
		} else {
			pending = append(pending, *al)
		}
	}
	sortAlarms(firing)
	sortAlarms(pending)
	resolved := ae.resolved.all()
	sortAlarms(resolved)
	out := append(firing, pending...)
	return append(out, resolved...)
}

// Timeline returns the merged operational stream between from and to
// (zero values mean unbounded), alarms included, ordered by time with
// deterministic tie-breaks.
func (ae *AlarmEngine) Timeline(from, to time.Time) []TimelineEntry {
	ae.mu.Lock()
	defer ae.mu.Unlock()
	return ae.timelineLocked(from, to, true)
}

// timelineLocked assembles the stream; withAlarms=false is the
// correlation flavor (an alarm must not correlate with itself).
func (ae *AlarmEngine) timelineLocked(from, to time.Time, withAlarms bool) []TimelineEntry {
	var out []TimelineEntry
	add := func(e TimelineEntry) {
		if !from.IsZero() && e.At.Before(from) {
			return
		}
		if !to.IsZero() && e.At.After(to) {
			return
		}
		out = append(out, e)
	}
	if ae.store != nil {
		if changes, err := ae.store.Find("DesignChange", nil); err == nil {
			for _, c := range changes {
				add(TimelineEntry{
					At: time.Unix(c.Int("created_unix"), 0), Stage: "design",
					Device: "-", Kind: "design-change",
					Detail: fmt.Sprintf("%s %s: %s (+%d ~%d -%d)",
						c.String("employee_id"), c.String("ticket_id"), c.String("description"),
						c.Int("num_created"), c.Int("num_modified"), c.Int("num_deleted")),
				})
			}
		}
		if events, err := ae.store.Find("OperationalEvent", nil); err == nil {
			for _, ev := range events {
				kind := ev.String("kind")
				stage := "monitor"
				switch kind {
				case "verify-gate":
					stage = "verify"
				case "deploy", "provision":
					stage = "deploy"
				}
				add(TimelineEntry{
					At: time.Unix(ev.Int("at_unix"), 0), Stage: stage,
					Device: ev.String("device_name"), Kind: kind,
					Detail: ev.String("urgency") + " " + ev.String("detail"),
				})
			}
		}
	}
	if ae.journal != nil {
		for _, je := range ae.journal() {
			add(TimelineEntry{
				At: je.At, Stage: "reconcile", Device: je.Device,
				Kind: je.Type, Detail: je.Detail,
			})
		}
	}
	if withAlarms {
		emit := func(al Alarm) {
			if !al.FiredAt.IsZero() {
				add(TimelineEntry{At: al.FiredAt, Stage: "alarm", Device: al.Device,
					Kind: al.Rule, Detail: "FIRING " + al.Detail})
			}
			if !al.ResolvedAt.IsZero() {
				add(TimelineEntry{At: al.ResolvedAt, Stage: "alarm", Device: al.Device,
					Kind: al.Rule, Detail: "RESOLVED " + al.Detail})
			}
		}
		for _, al := range ae.active {
			emit(*al)
		}
		for _, al := range ae.resolved.buf {
			emit(al)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].At.Equal(out[j].At) {
			return out[i].At.Before(out[j].At)
		}
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

// FormatAlarms renders alarms as a fixed-width table, firing first.
func FormatAlarms(alarms []Alarm) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-22s %-16s %-24s %-8s %s\n",
		"STATE", "RULE", "DEVICE", "KEY", "URGENCY", "DETAIL")
	for _, al := range alarms {
		fmt.Fprintf(&b, "%-8s %-22s %-16s %-24s %-8s %s\n",
			string(al.State), al.Rule, al.Device, al.Key, al.Urgency, al.Detail)
		for _, c := range al.Correlated {
			fmt.Fprintf(&b, "    ↳ %s\n", c)
		}
	}
	return b.String()
}
