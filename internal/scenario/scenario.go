// Package scenario is the declarative scenario harness: a scenario file
// declares a fleet, a fault schedule, a timed event sequence, and
// assertions; the engine builds the full Robotron stack (design → FBNet →
// generate → verify → deploy → monitor → reconcile) on a shared
// deterministic clock and executes the sequence, evaluating assertions
// after each event and at scenario end. Same file + same seed → the same
// run, byte for byte — the simulator-first methodology the reproduction
// leans on (cf. the Navarch fleet-simulator idiom): real control plane,
// simulated devices, declarative drills.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// File is one parsed scenario.
type File struct {
	Path        string // source path, used in error messages
	Name        string
	Description string
	Seed        int64         // fault + retry schedule seed
	Start       time.Time     // virtual start instant
	End         time.Duration // scenario length; 0 = ends with the last event
	Fleet       FleetSpec
	ExtraFleets []FleetSpec // additional sites = additional failure domains
	Reconciler  ReconcilerSpec
	Faults      FaultsSpec
	Service     *ServiceSpec // nil: single in-process store
	Deploy      DeploySpec
	Events      []EventSpec
	Assert      []AssertionSpec // final assertions, evaluated at End
}

// FleetSpec declares what the scenario provisions at t=0: a templated
// cluster, or (kind "backbone") named routers meshed on one site.
type FleetSpec struct {
	Site     string
	Kind     string // "pop" or "dc" (defaulted from the template), or "backbone"
	Region   string
	Cluster  string
	Template string   // pop-gen1, pop-gen2, dc-gen1, dc-gen2, dc-gen3
	Racks    int      // dc templates only: server racks with TORs
	Routers  []string // backbone only: router names, added in order
	Line     int
}

// ReconcilerSpec tunes the drift reconciler; zero values select the
// reconcile package defaults, damping_threshold -1 disables damping.
type ReconcilerSpec struct {
	DampingThreshold int
	DampingWindow    time.Duration
	BudgetMaxDevices int
	BudgetMaxFrac    float64
	MaxAttempts      int
	MaxCheckRetries  int
	ConfirmGrace     time.Duration
	BackoffBase      time.Duration
	BackoffMax       time.Duration
}

// FaultsSpec arms the seeded fault engine. Faults are always disabled
// while the baseline cluster provisions; Armed selects the state after
// provisioning, and chaos events flip it mid-run.
type FaultsSpec struct {
	Armed bool
	Rules []FaultRuleSpec
}

// FaultRuleSpec is one injection rule (see netsim.FaultRule).
type FaultRuleSpec struct {
	Kind        string
	Probability float64
	Verbs       []string
	Devices     []string
	Latency     time.Duration
	MaxCount    int64
	Line        int
}

// ServiceSpec declares a replicated store tier; the first region is the
// initial master.
type ServiceSpec struct {
	Regions  []string
	Replicas int
	Line     int
}

// DeploySpec tunes deployment transport. Parallelism defaults to 1:
// single-threaded deploys keep the whole run on one goroutine under the
// virtual clock, which is what makes journals byte-identical across runs.
type DeploySpec struct {
	RetryAttempts int
	Parallelism   int
}

// Event actions.
const (
	ActDrift         = "drift"          // out-of-band running-config edit
	ActDeploy        = "deploy"         // generate + verify + deploy
	ActChaos         = "chaos"          // arm/disarm the fault engine
	ActCorruptDesign = "corrupt-design" // break an FBNet invariant
	ActFirewall      = "firewall"       // fleet-wide design change (ACL)
	ActKillMaster    = "kill-master"    // fail the master store
	ActPromote       = "promote"        // promote the best replica
	ActRelease       = "release"        // operator releases a quarantined device
	ActResetBreaker  = "reset-breaker"  // operator re-arms a tripped loop
	ActSweep         = "sweep"          // one full-fleet conformance sweep
	ActConverge      = "converge"       // sweep+advance loop until settled
	ActWait          = "wait"           // advance to `at`, then just assert
	ActSnapshot      = "snapshot"       // record mgmt-op and golden baselines
	ActCollect       = "collect"        // one monitoring cycle + alarm evaluation
	ActDesign        = "design"         // backbone design change (op) + physical sync
	ActCut           = "cut"            // fiber cut on a device's first cabled port
)

// Design ops.
const (
	OpAddRouter      = "add-router"      // device: the new router's name
	OpAddCircuit     = "add-circuit"     // devices: [a, z]
	OpMigrateCircuit = "migrate-circuit" // devices: [a, z] names the circuit; to: the new z
)

// EventSpec is one timed step of the sequence.
type EventSpec struct {
	At     time.Duration // offset from scenario start; non-decreasing
	Action string
	Idx    int // position in the events list (0-based), for reporting
	Line   int

	Device  string   // drift, release, cut, design add-router
	Devices []string // deploy (["all"] targets the whole fleet); design circuit ends
	Text    string   // drift: the injected line
	Cut     string   // drift: remove golden lines containing this substring

	DryRun       bool  // deploy: stage + diff + discard, commit nothing
	MayFail      bool  // deploy: tolerate failure (chaos leaves drift behind)
	ExpectReject bool  // deploy: the verify gate MUST reject it
	Atomic       bool  // deploy: all devices commit or all roll back
	Phases       []int // deploy: percent per phase, behind the metric health gate

	Op string // design: add-router, add-circuit, migrate-circuit
	To string // design migrate-circuit: the circuit's new far end

	Armed bool // chaos

	What string // corrupt-design: "flip-asn"

	FirewallName string // firewall

	Rounds int           // converge: max sweep+advance rounds
	Step   time.Duration // converge: virtual time per round

	Shard string // reset-breaker: re-arm only this failure domain (a site)

	Expect []AssertionSpec // evaluated right after the action
}

// Assertion types.
const (
	AssertDeviceState   = "device-state"
	AssertRunningGolden = "running-matches-golden"
	AssertNoCandidates  = "no-candidates"
	AssertNoConfirms    = "no-pending-confirms"
	AssertBreaker       = "breaker"
	AssertMetric        = "metric"
	AssertJournal       = "journal"
	AssertVerify        = "verify-verdict"
	AssertFaultsFired   = "faults-fired"
	AssertNoNewMgmtOps  = "no-new-mgmt-ops"
	AssertGoldenStable  = "golden-unchanged"
	AssertAlarm         = "alarm"
	AssertAudit         = "audit"
)

// AssertionSpec is one declarative check.
type AssertionSpec struct {
	Type string
	Idx  int
	Line int

	Device string // device-state, running-matches-golden, ...; "all" = fleet

	State string // device-state: a reconcile state or "converged-or-quarantined"

	SkipQuarantined bool // running-matches-golden: quarantined devices exempt

	Metric string   // metric: registry name
	Labels []string // metric: "key=value" pairs
	Op     string   // metric: ==, !=, >=, <=, >, <
	Value  float64  // metric: threshold

	Event    string // journal: event type (quarantined, budget-trip, ...)
	MinCount int    // journal, alarm, audit: at least this many (default 1)

	Clean       bool   // audit: the Desired-vs-Derived audit finds nothing
	AnomalyKind string // audit: anomalies of this kind exist (on Device, if set)

	Verdict string // verify-verdict: "rejected" or "passed"

	Tripped bool   // breaker: wanted breaker state
	Shard   string // breaker: check one failure domain's breaker, not the loop

	MinKinds int // faults-fired: distinct fault kinds
	MinTotal int // faults-fired: total injections (default 1)

	Rule             string // alarm: rule name (bgp-session-down, ...)
	CorrelatesKind   string // alarm: a correlated event of this kind must exist
	CorrelatesDevice string // alarm: ... naming this device
}

// templateDevices maps each template to its fixed device groups
// (prefix, count); rack TORs are appended per FleetSpec.Racks.
var templateDevices = map[string][]struct {
	Prefix string
	Count  int
}{
	"pop-gen1": {{"pr", 2}, {"psw", 4}},
	"pop-gen2": {{"pr", 4}, {"psw", 8}},
	"dc-gen1":  {{"dr", 4}, {"fsw", 16}},
	"dc-gen2":  {{"dr", 4}, {"fsw", 16}},
	"dc-gen3":  {{"dr", 4}, {"ssw", 4}, {"fsw", 16}},
}

// kindBackbone is the fleet kind with no cluster template: named routers
// meshed on one site.
const kindBackbone = "backbone"

// templateKind maps templates to the site kind they imply.
var templateKind = map[string]string{
	"pop-gen1": "pop", "pop-gen2": "pop",
	"dc-gen1": "dc", "dc-gen2": "dc", "dc-gen3": "dc",
}

// FleetDevices predicts the device names a fleet spec materializes,
// without building anything: the design templates name devices
// <prefix><n>.<cluster> and rack TORs tor<n>.<cluster>. The validator
// checks device references against this set, and the engine's "all"
// resolves to it (sorted) at run time.
func FleetDevices(f FleetSpec) []string {
	if f.Kind == kindBackbone {
		return f.Routers
	}
	scope := strings.ReplaceAll(f.Cluster, "/", "-")
	var out []string
	for _, g := range templateDevices[f.Template] {
		for n := 1; n <= g.Count; n++ {
			out = append(out, fmt.Sprintf("%s%d.%s", g.Prefix, n, scope))
		}
	}
	for r := 1; r <= f.Racks; r++ {
		out = append(out, fmt.Sprintf("tor%d.%s", r, scope))
	}
	return out
}

// defaultStart anchors virtual time when the file does not: a fixed
// instant, never the wall clock, so runs are reproducible by default.
var defaultStart = time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

// Parse parses scenario source. The result is syntactically decoded but
// not yet validated; callers almost always want Load or Validate next.
func Parse(path, src string) (*File, error) {
	root, err := parseYAML(path, src)
	if err != nil {
		return nil, err
	}
	d := &decoder{path: path}
	f := d.decodeFile(root)
	if d.err != nil {
		return nil, d.err
	}
	f.Path = path
	return f, nil
}

// --- decoding ---

// decoder walks the node tree into the typed model, rejecting unknown
// fields and ill-typed scalars with file:line positions. The first error
// wins; later decode calls no-op.
type decoder struct {
	path string
	err  error
}

func (d *decoder) errorf(line int, format string, args ...any) {
	if d.err == nil {
		d.err = &parseError{d.path, line, fmt.Sprintf(format, args...)}
	}
}

// fields checks n is a mapping using only the allowed keys.
func (d *decoder) fields(n *node, context string, allowed ...string) bool {
	if d.err != nil {
		return false
	}
	if n.kind != mapNode {
		d.errorf(n.line, "%s must be a mapping, got a %s", context, n.kind)
		return false
	}
	for _, k := range n.keys {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			d.errorf(n.children[k].line, "unknown field %q in %s (allowed: %s)",
				k, context, strings.Join(allowed, ", "))
			return false
		}
	}
	return true
}

func (d *decoder) scalar(n *node, key string) (*node, bool) {
	c, ok := n.children[key]
	if !ok {
		return nil, false
	}
	if c.kind != scalarNode {
		d.errorf(c.line, "field %q must be a scalar, got a %s", key, c.kind)
		return nil, false
	}
	return c, true
}

func (d *decoder) str(n *node, key string) string {
	c, ok := d.scalar(n, key)
	if !ok {
		return ""
	}
	return c.scalar
}

func (d *decoder) integer(n *node, key string) int64 {
	c, ok := d.scalar(n, key)
	if !ok {
		return 0
	}
	v, err := strconv.ParseInt(c.scalar, 10, 64)
	if err != nil {
		d.errorf(c.line, "field %q: %q is not an integer", key, c.scalar)
	}
	return v
}

func (d *decoder) float(n *node, key string) float64 {
	c, ok := d.scalar(n, key)
	if !ok {
		return 0
	}
	v, err := strconv.ParseFloat(c.scalar, 64)
	if err != nil {
		d.errorf(c.line, "field %q: %q is not a number", key, c.scalar)
	}
	return v
}

func (d *decoder) boolean(n *node, key string) bool {
	c, ok := d.scalar(n, key)
	if !ok {
		return false
	}
	switch c.scalar {
	case "true":
		return true
	case "false":
		return false
	}
	d.errorf(c.line, "field %q: %q is not a boolean (true/false)", key, c.scalar)
	return false
}

func (d *decoder) duration(n *node, key string) time.Duration {
	c, ok := d.scalar(n, key)
	if !ok {
		return 0
	}
	if c.scalar == "0" {
		return 0
	}
	v, err := time.ParseDuration(c.scalar)
	if err != nil {
		d.errorf(c.line, "field %q: %q is not a duration (use 30s, 5m, 1h30m)", key, c.scalar)
		return 0
	}
	if v < 0 {
		d.errorf(c.line, "field %q: duration must not be negative", key)
	}
	return v
}

func (d *decoder) strings(n *node, key string) []string {
	c, ok := n.children[key]
	if !ok {
		return nil
	}
	switch c.kind {
	case scalarNode: // a single value is a one-element list
		return []string{c.scalar}
	case listNode:
		out := make([]string, 0, len(c.items))
		for _, it := range c.items {
			if it.kind != scalarNode {
				d.errorf(it.line, "field %q: list elements must be scalars", key)
				return nil
			}
			out = append(out, it.scalar)
		}
		return out
	}
	d.errorf(c.line, "field %q must be a list or scalar, got a %s", key, c.kind)
	return nil
}

func (d *decoder) decodeFile(root *node) *File {
	if !d.fields(root, "scenario",
		"name", "description", "seed", "start", "end",
		"fleet", "extra_fleets", "reconciler", "faults", "service", "deploy",
		"events", "assert") {
		return nil
	}
	f := &File{Seed: 1, Start: defaultStart}
	f.Name = d.str(root, "name")
	f.Description = d.str(root, "description")
	if _, ok := root.children["seed"]; ok {
		f.Seed = d.integer(root, "seed")
	}
	if c, ok := d.scalar(root, "start"); ok {
		t, err := time.Parse(time.RFC3339, c.scalar)
		if err != nil {
			d.errorf(c.line, "field \"start\": %q is not an RFC 3339 time", c.scalar)
		}
		f.Start = t.UTC()
	}
	if _, ok := root.children["end"]; ok {
		f.End = d.duration(root, "end")
	}
	if c, ok := root.children["fleet"]; ok {
		f.Fleet = d.decodeFleet(c)
	} else {
		d.errorf(root.line, "scenario is missing the required \"fleet\" section")
	}
	if c, ok := root.children["extra_fleets"]; ok {
		if c.kind != listNode {
			d.errorf(c.line, "field \"extra_fleets\" must be a list, got a %s", c.kind)
			return nil
		}
		for _, it := range c.items {
			f.ExtraFleets = append(f.ExtraFleets, d.decodeFleet(it))
			if d.err != nil {
				return nil
			}
		}
	}
	if c, ok := root.children["reconciler"]; ok {
		f.Reconciler = d.decodeReconciler(c)
	}
	if c, ok := root.children["faults"]; ok {
		f.Faults = d.decodeFaults(c)
	}
	if c, ok := root.children["service"]; ok {
		s := d.decodeService(c)
		f.Service = &s
	}
	if c, ok := root.children["deploy"]; ok {
		f.Deploy = d.decodeDeploy(c)
	}
	if c, ok := root.children["events"]; ok {
		f.Events = d.decodeEvents(c)
	}
	if c, ok := root.children["assert"]; ok {
		f.Assert = d.decodeAssertList(c, "assert")
	}
	if d.err != nil {
		return nil
	}
	return f
}

func (d *decoder) decodeFleet(n *node) FleetSpec {
	if !d.fields(n, "fleet", "site", "kind", "region", "cluster", "template", "racks", "routers") {
		return FleetSpec{}
	}
	f := FleetSpec{Line: n.line, Region: "apac"}
	f.Site = d.str(n, "site")
	if _, ok := n.children["kind"]; ok {
		f.Kind = d.str(n, "kind")
	}
	if _, ok := n.children["region"]; ok {
		f.Region = d.str(n, "region")
	}
	f.Cluster = d.str(n, "cluster")
	f.Template = d.str(n, "template")
	f.Racks = int(d.integer(n, "racks"))
	f.Routers = d.strings(n, "routers")
	if f.Kind == "" {
		f.Kind = templateKind[f.Template]
	}
	return f
}

func (d *decoder) decodeReconciler(n *node) ReconcilerSpec {
	if !d.fields(n, "reconciler",
		"damping_threshold", "damping_window", "budget_max_devices",
		"budget_max_fraction", "max_attempts", "max_check_retries",
		"confirm_grace", "backoff_base", "backoff_max") {
		return ReconcilerSpec{}
	}
	return ReconcilerSpec{
		DampingThreshold: int(d.integer(n, "damping_threshold")),
		DampingWindow:    d.duration(n, "damping_window"),
		BudgetMaxDevices: int(d.integer(n, "budget_max_devices")),
		BudgetMaxFrac:    d.float(n, "budget_max_fraction"),
		MaxAttempts:      int(d.integer(n, "max_attempts")),
		MaxCheckRetries:  int(d.integer(n, "max_check_retries")),
		ConfirmGrace:     d.duration(n, "confirm_grace"),
		BackoffBase:      d.duration(n, "backoff_base"),
		BackoffMax:       d.duration(n, "backoff_max"),
	}
}

func (d *decoder) decodeFaults(n *node) FaultsSpec {
	if !d.fields(n, "faults", "armed", "rules") {
		return FaultsSpec{}
	}
	f := FaultsSpec{}
	if _, ok := n.children["armed"]; ok {
		f.Armed = d.boolean(n, "armed")
	}
	rules, ok := n.children["rules"]
	if !ok {
		return f
	}
	if rules.kind != listNode {
		d.errorf(rules.line, "field \"rules\" must be a list, got a %s", rules.kind)
		return f
	}
	for _, it := range rules.items {
		if !d.fields(it, "fault rule", "kind", "probability", "verbs", "devices", "latency", "max_count") {
			return f
		}
		f.Rules = append(f.Rules, FaultRuleSpec{
			Line:        it.line,
			Kind:        d.str(it, "kind"),
			Probability: d.float(it, "probability"),
			Verbs:       d.strings(it, "verbs"),
			Devices:     d.strings(it, "devices"),
			Latency:     d.duration(it, "latency"),
			MaxCount:    d.integer(it, "max_count"),
		})
	}
	return f
}

func (d *decoder) decodeService(n *node) ServiceSpec {
	if !d.fields(n, "service", "regions", "replicas") {
		return ServiceSpec{}
	}
	s := ServiceSpec{Line: n.line, Replicas: 1}
	s.Regions = d.strings(n, "regions")
	if _, ok := n.children["replicas"]; ok {
		s.Replicas = int(d.integer(n, "replicas"))
	}
	return s
}

func (d *decoder) decodeDeploy(n *node) DeploySpec {
	if !d.fields(n, "deploy", "retry_attempts", "parallelism") {
		return DeploySpec{}
	}
	return DeploySpec{
		RetryAttempts: int(d.integer(n, "retry_attempts")),
		Parallelism:   int(d.integer(n, "parallelism")),
	}
}

func (d *decoder) decodeEvents(n *node) []EventSpec {
	if n.kind != listNode {
		d.errorf(n.line, "field \"events\" must be a list, got a %s", n.kind)
		return nil
	}
	out := make([]EventSpec, 0, len(n.items))
	for i, it := range n.items {
		ev := d.decodeEvent(it, i)
		if d.err != nil {
			return nil
		}
		out = append(out, ev)
	}
	return out
}

func (d *decoder) decodeEvent(n *node, idx int) EventSpec {
	if !d.fields(n, "event",
		"at", "action", "device", "devices", "line", "cut", "dryrun", "may_fail",
		"expect_reject", "atomic", "phases", "op", "to", "armed", "what", "name",
		"rounds", "step", "shard", "expect") {
		return EventSpec{}
	}
	ev := EventSpec{Idx: idx, Line: n.line}
	if _, ok := n.children["at"]; ok {
		ev.At = d.duration(n, "at")
	} else {
		d.errorf(n.line, "event %d is missing the required \"at\" offset", idx)
		return ev
	}
	ev.Action = d.str(n, "action")
	ev.Device = d.str(n, "device")
	ev.Devices = d.strings(n, "devices")
	ev.Text = d.str(n, "line")
	ev.Cut = d.str(n, "cut")
	if _, ok := n.children["dryrun"]; ok {
		ev.DryRun = d.boolean(n, "dryrun")
	}
	if _, ok := n.children["may_fail"]; ok {
		ev.MayFail = d.boolean(n, "may_fail")
	}
	if _, ok := n.children["expect_reject"]; ok {
		ev.ExpectReject = d.boolean(n, "expect_reject")
	}
	if _, ok := n.children["atomic"]; ok {
		ev.Atomic = d.boolean(n, "atomic")
	}
	for _, p := range d.strings(n, "phases") {
		pct, err := strconv.Atoi(p)
		if err != nil {
			d.errorf(n.children["phases"].line, "field \"phases\": %q is not an integer percent", p)
		}
		ev.Phases = append(ev.Phases, pct)
	}
	ev.Op = d.str(n, "op")
	ev.To = d.str(n, "to")
	if _, ok := n.children["armed"]; ok {
		ev.Armed = d.boolean(n, "armed")
	}
	ev.What = d.str(n, "what")
	ev.FirewallName = d.str(n, "name")
	ev.Rounds = int(d.integer(n, "rounds"))
	ev.Step = d.duration(n, "step")
	ev.Shard = d.str(n, "shard")
	if c, ok := n.children["expect"]; ok {
		ev.Expect = d.decodeAssertList(c, "expect")
	}
	return ev
}

func (d *decoder) decodeAssertList(n *node, context string) []AssertionSpec {
	if n.kind != listNode {
		d.errorf(n.line, "field %q must be a list, got a %s", context, n.kind)
		return nil
	}
	out := make([]AssertionSpec, 0, len(n.items))
	for i, it := range n.items {
		a := d.decodeAssertion(it, i)
		if d.err != nil {
			return nil
		}
		out = append(out, a)
	}
	return out
}

func (d *decoder) decodeAssertion(n *node, idx int) AssertionSpec {
	if !d.fields(n, "assertion",
		"type", "device", "state", "skip_quarantined", "metric", "labels",
		"op", "value", "event", "min_count", "verdict", "tripped", "shard",
		"min_kinds", "min_total", "rule", "correlates_kind", "correlates_device",
		"clean", "anomaly_kind") {
		return AssertionSpec{}
	}
	a := AssertionSpec{Idx: idx, Line: n.line, MinCount: 1, MinTotal: 1}
	a.Type = d.str(n, "type")
	a.Device = d.str(n, "device")
	a.State = d.str(n, "state")
	if _, ok := n.children["skip_quarantined"]; ok {
		a.SkipQuarantined = d.boolean(n, "skip_quarantined")
	}
	a.Metric = d.str(n, "metric")
	a.Labels = d.strings(n, "labels")
	a.Op = d.str(n, "op")
	if _, ok := n.children["value"]; ok {
		a.Value = d.float(n, "value")
	}
	a.Event = d.str(n, "event")
	if _, ok := n.children["min_count"]; ok {
		a.MinCount = int(d.integer(n, "min_count"))
	}
	a.Verdict = d.str(n, "verdict")
	if _, ok := n.children["tripped"]; ok {
		a.Tripped = d.boolean(n, "tripped")
	}
	a.Shard = d.str(n, "shard")
	if _, ok := n.children["min_kinds"]; ok {
		a.MinKinds = int(d.integer(n, "min_kinds"))
	}
	if _, ok := n.children["min_total"]; ok {
		a.MinTotal = int(d.integer(n, "min_total"))
	}
	a.Rule = d.str(n, "rule")
	a.CorrelatesKind = d.str(n, "correlates_kind")
	a.CorrelatesDevice = d.str(n, "correlates_device")
	if _, ok := n.children["clean"]; ok {
		a.Clean = d.boolean(n, "clean")
	}
	a.AnomalyKind = d.str(n, "anomaly_kind")
	return a
}
