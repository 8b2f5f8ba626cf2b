package scenario

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/robotron-net/robotron/internal/audit"
)

// Static validation: everything checkable without building a world.
// `robotron sim validate` runs exactly this, so a scenario that decodes
// and validates cleanly fails at run time only for scenario-level
// reasons (an assertion not holding), never for spec-level ones.
//
// Error messages are deterministic (file:line: message) and
// golden-tested; the first violation wins.

var validFaultKinds = map[string]bool{
	"transient": true, "latency": true, "garbled": true,
	"drop-before": true, "drop-after": true, "reboot": true,
}

var validStates = map[string]bool{
	"detected": true, "backoff": true, "remediating": true,
	"confirming": true, "converged": true, "quarantined": true,
	"converged-or-quarantined": true,
}

var validOps = map[string]bool{
	"==": true, "!=": true, ">=": true, "<=": true, ">": true, "<": true,
}

var validActions = map[string]bool{
	ActDrift: true, ActDeploy: true, ActChaos: true, ActCorruptDesign: true,
	ActFirewall: true, ActKillMaster: true, ActPromote: true, ActRelease: true,
	ActResetBreaker: true, ActSweep: true, ActConverge: true, ActWait: true,
	ActSnapshot: true, ActCollect: true, ActDesign: true, ActCut: true,
}

var validAsserts = map[string]bool{
	AssertDeviceState: true, AssertRunningGolden: true, AssertNoCandidates: true,
	AssertNoConfirms: true, AssertBreaker: true, AssertMetric: true,
	AssertJournal: true, AssertVerify: true, AssertFaultsFired: true,
	AssertNoNewMgmtOps: true, AssertGoldenStable: true, AssertAlarm: true,
	AssertAudit: true,
}

var validAnomalyKinds = map[string]bool{
	string(audit.DeviceSilent): true, string(audit.CircuitMissing): true,
	string(audit.CircuitUnexpected): true, string(audit.InterfaceDown): true,
	string(audit.BGPDown): true, string(audit.ConfigDeviates): true,
	string(audit.OSMismatch): true,
}

var validAlarmStates = map[string]bool{
	"pending": true, "firing": true, "resolved": true,
}

func sortedKeys(m map[string]bool) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// Validate checks a decoded scenario statically. The returned error (a
// *parseError) carries the file and line of the first violation.
func Validate(f *File) error {
	e := func(line int, format string, args ...any) error {
		return &parseError{f.Path, line, fmt.Sprintf(format, args...)}
	}
	if f.Name == "" {
		return e(1, "scenario is missing the required \"name\"")
	}
	if strings.ContainsAny(f.Name, " \t") {
		return e(1, "scenario name %q must not contain whitespace", f.Name)
	}

	// Fleets: the world everything else references. Each fleet is one
	// site, and each site is one reconciler failure domain (shard).
	fl := f.Fleet
	fleets := append([]FleetSpec{fl}, f.ExtraFleets...)
	seenSites, seenClusters := map[string]bool{}, map[string]bool{}
	for i, ff := range fleets {
		ctx := "fleet"
		if i > 0 {
			ctx = fmt.Sprintf("extra fleet %d", i-1)
		}
		if err := validateFleet(e, ff, ctx); err != nil {
			return err
		}
		if seenSites[ff.Site] {
			return e(ff.Line, "%s: site %q is declared twice (each fleet is its own failure domain)", ctx, ff.Site)
		}
		if seenClusters[ff.Cluster] {
			return e(ff.Line, "%s: cluster %q is declared twice", ctx, ff.Cluster)
		}
		seenSites[ff.Site] = true
		seenClusters[ff.Cluster] = true
	}

	known, knownSites := map[string]bool{}, map[string]bool{}
	for _, ff := range fleets {
		knownSites[ff.Site] = true
		for _, name := range FleetDevices(ff) {
			known[name] = true
		}
	}
	provisions := fmt.Sprintf("template %s, cluster %s", fl.Template, fl.Cluster)
	if fl.Kind == kindBackbone {
		provisions = "backbone routers " + strings.Join(fl.Routers, ", ")
	}
	checkDevice := func(line int, name, context string) error {
		if name != "all" && !known[name] {
			return e(line, "%s references device %q, which the fleet (%s) does not provision",
				context, name, provisions)
		}
		return nil
	}
	// Assertion device fields additionally accept the "site:<x>"
	// failure-domain selector; event device fields stay device-only.
	checkAssertDevice := func(line int, name, context string) error {
		if site, ok := strings.CutPrefix(name, "site:"); ok {
			if !knownSites[site] {
				return e(line, "%s references site %q, which no fleet declares (known: %s)",
					context, site, sortedKeys(knownSites))
			}
			return nil
		}
		return checkDevice(line, name, context)
	}
	checkShard := func(line int, shard, context string) error {
		if shard != "" && !knownSites[shard] {
			return e(line, "%s: shard %q is not a declared site (known: %s)", context, shard, sortedKeys(knownSites))
		}
		return nil
	}

	// Reconciler knobs.
	rc := f.Reconciler
	if rc.DampingThreshold < -1 {
		return e(fl.Line, "reconciler damping_threshold must be >= -1 (-1 disables damping)")
	}
	if rc.BudgetMaxFrac < 0 || rc.BudgetMaxFrac > 1 {
		return e(fl.Line, "reconciler budget_max_fraction must be within [0, 1]")
	}

	// Fault rules.
	for i, r := range f.Faults.Rules {
		ctx := fmt.Sprintf("fault rule %d", i)
		if !validFaultKinds[r.Kind] {
			return e(r.Line, "%s: unknown fault kind %q (known: %s)", ctx, r.Kind, sortedKeys(validFaultKinds))
		}
		if r.Probability <= 0 || r.Probability > 1 {
			return e(r.Line, "%s: probability %g is outside (0, 1]", ctx, r.Probability)
		}
		if r.Kind == "latency" && r.Latency <= 0 {
			return e(r.Line, "%s: latency faults need a positive \"latency\"", ctx)
		}
		if r.Kind != "latency" && r.Latency > 0 {
			return e(r.Line, "%s: \"latency\" is only valid on latency faults", ctx)
		}
		if r.MaxCount < 0 {
			return e(r.Line, "%s: max_count must not be negative", ctx)
		}
		for _, dev := range r.Devices {
			if err := checkDevice(r.Line, dev, ctx); err != nil {
				return err
			}
		}
	}
	if f.Faults.Armed && len(f.Faults.Rules) == 0 {
		return e(fl.Line, "faults are armed but no rules are declared")
	}

	// Service tier.
	if s := f.Service; s != nil {
		if len(s.Regions) < 2 {
			return e(s.Line, "service needs at least 2 regions (a master and a failover candidate)")
		}
		seen := map[string]bool{}
		for _, r := range s.Regions {
			if seen[r] {
				return e(s.Line, "service region %q is declared twice", r)
			}
			seen[r] = true
		}
		if s.Replicas < 1 {
			return e(s.Line, "service replicas must be >= 1")
		}
	}

	if f.Deploy.RetryAttempts < 0 {
		return e(fl.Line, "deploy retry_attempts must not be negative")
	}
	if f.Deploy.Parallelism < 0 {
		return e(fl.Line, "deploy parallelism must not be negative")
	}

	// Events: known actions, per-action fields, ordered offsets, none
	// after end.
	last := time.Duration(0)
	for i := range f.Events {
		ev := &f.Events[i]
		ctx := fmt.Sprintf("event %d", i)
		if ev.Action == "" {
			return e(ev.Line, "%s is missing the required \"action\"", ctx)
		}
		if !validActions[ev.Action] {
			return e(ev.Line, "%s: unknown action %q (known: %s)", ctx, ev.Action, sortedKeys(validActions))
		}
		if ev.At < last {
			return e(ev.Line, "%s: offset %v is before the previous event's %v (events must be in time order)", ctx, ev.At, last)
		}
		last = ev.At
		if f.End > 0 && ev.At > f.End {
			return e(ev.Line, "%s: offset %v is after the scenario end %v", ctx, ev.At, f.End)
		}
		if err := validateEventFields(e, ev, ctx, f); err != nil {
			return err
		}
		if ev.Shard != "" {
			if ev.Action != ActResetBreaker {
				return e(ev.Line, "%s: field \"shard\" is only valid for action %q", ctx, ActResetBreaker)
			}
			if err := checkShard(ev.Line, ev.Shard, ctx); err != nil {
				return err
			}
		}
		if ev.Action == ActDesign && ev.Op == OpAddRouter {
			// The file is the source of later device references: a router
			// added here is known to every event and assertion after it.
			if known[ev.Device] {
				return e(ev.Line, "%s: add-router %q is already provisioned", ctx, ev.Device)
			}
			known[ev.Device] = true
		}
		if ev.Device != "" {
			if err := checkDevice(ev.Line, ev.Device, ctx); err != nil {
				return err
			}
		}
		for _, dev := range ev.Devices {
			if err := checkDevice(ev.Line, dev, ctx); err != nil {
				return err
			}
		}
		for j := range ev.Expect {
			a := &ev.Expect[j]
			if err := validateAssertion(e, a, fmt.Sprintf("%s expect %d", ctx, j), f, checkAssertDevice, checkShard); err != nil {
				return err
			}
		}
	}

	for i := range f.Assert {
		a := &f.Assert[i]
		if err := validateAssertion(e, a, fmt.Sprintf("assert %d", i), f, checkAssertDevice, checkShard); err != nil {
			return err
		}
	}
	if len(f.Events) == 0 && len(f.Assert) == 0 {
		return e(1, "scenario declares no events and no assertions; nothing to do")
	}
	return nil
}

// validateFleet checks one fleet spec; ctx is "fleet" for the primary
// and "extra fleet N" for the additional failure domains.
func validateFleet(e func(int, string, ...any) error, fl FleetSpec, ctx string) error {
	if fl.Site == "" {
		return e(fl.Line, "%s is missing the required \"site\"", ctx)
	}
	if fl.Kind == kindBackbone {
		if fl.Cluster != "" || fl.Template != "" || fl.Racks != 0 {
			return e(fl.Line, "%s kind backbone takes \"routers\", not cluster/template/racks", ctx)
		}
		if len(fl.Routers) == 0 {
			return e(fl.Line, "%s kind backbone needs at least one name in \"routers\"", ctx)
		}
		seen := map[string]bool{}
		for _, name := range fl.Routers {
			if seen[name] || name == "all" {
				return e(fl.Line, "%s router name %q is reserved or declared twice", ctx, name)
			}
			seen[name] = true
		}
		return nil
	}
	if len(fl.Routers) > 0 {
		return e(fl.Line, "%s \"routers\" is only valid with kind backbone", ctx)
	}
	if fl.Cluster == "" {
		return e(fl.Line, "%s is missing the required \"cluster\"", ctx)
	}
	if _, ok := templateDevices[fl.Template]; !ok {
		return e(fl.Line, "%s template %q is not one of pop-gen1, pop-gen2, dc-gen1, dc-gen2, dc-gen3", ctx, fl.Template)
	}
	if fl.Racks < 0 {
		return e(fl.Line, "%s racks must not be negative", ctx)
	}
	if fl.Racks > 0 && templateKind[fl.Template] != "dc" {
		return e(fl.Line, "%s template %q does not take racks (racks are for dc templates)", ctx, fl.Template)
	}
	if fl.Kind != templateKind[fl.Template] {
		return e(fl.Line, "%s kind %q contradicts template %q (implies %q)", ctx, fl.Kind, fl.Template, templateKind[fl.Template])
	}
	return nil
}

// validateEventFields enforces each action's required and forbidden
// fields, so a typo'd spec fails validate, not a 30-second run.
func validateEventFields(e func(int, string, ...any) error, ev *EventSpec, ctx string, f *File) error {
	need := func(have bool, field string) error {
		if !have {
			return e(ev.Line, "%s: action %q needs %q", ctx, ev.Action, field)
		}
		return nil
	}
	reject := func(have bool, field string) error {
		if have {
			return e(ev.Line, "%s: field %q is not valid for action %q", ctx, field, ev.Action)
		}
		return nil
	}
	// Fields that only specific actions accept.
	if ev.Action != ActDrift {
		if err := reject(ev.Text != "", "line"); err != nil {
			return err
		}
		if err := reject(ev.Cut != "", "cut"); err != nil {
			return err
		}
	}
	if ev.Action != ActDeploy {
		for _, c := range []struct {
			field string
			have  bool
		}{
			{"devices", len(ev.Devices) > 0 && ev.Action != ActDesign}, {"dryrun", ev.DryRun},
			{"may_fail", ev.MayFail}, {"expect_reject", ev.ExpectReject},
			{"atomic", ev.Atomic}, {"phases", len(ev.Phases) > 0},
		} {
			if err := reject(c.have, c.field); err != nil {
				return err
			}
		}
	}
	if ev.Action != ActDrift && ev.Action != ActRelease && ev.Action != ActCut && ev.Action != ActDesign {
		if err := reject(ev.Device != "", "device"); err != nil {
			return err
		}
	}
	if ev.Action != ActDesign {
		if err := reject(ev.Op != "", "op"); err != nil {
			return err
		}
		if err := reject(ev.To != "", "to"); err != nil {
			return err
		}
	}
	if ev.Action != ActCorruptDesign {
		if err := reject(ev.What != "", "what"); err != nil {
			return err
		}
	}
	if ev.Action != ActFirewall {
		if err := reject(ev.FirewallName != "", "name"); err != nil {
			return err
		}
	}
	if ev.Action != ActConverge {
		if err := reject(ev.Rounds != 0, "rounds"); err != nil {
			return err
		}
		if err := reject(ev.Step != 0, "step"); err != nil {
			return err
		}
	}

	switch ev.Action {
	case ActDrift:
		if err := need(ev.Device != "", "device"); err != nil {
			return err
		}
		if ev.Text == "" && ev.Cut == "" {
			return e(ev.Line, "%s: drift needs \"line\" (inject) or \"cut\" (remove), or both", ctx)
		}
		if ev.Device == "all" {
			return e(ev.Line, "%s: drift targets one device, not \"all\"", ctx)
		}
	case ActDeploy:
		if err := need(len(ev.Devices) > 0, "devices"); err != nil {
			return err
		}
		if ev.ExpectReject && ev.MayFail {
			return e(ev.Line, "%s: expect_reject and may_fail are mutually exclusive", ctx)
		}
		for _, pct := range ev.Phases {
			if pct <= 0 || pct > 100 {
				return e(ev.Line, "%s: phase percent %d is outside (0, 100]", ctx, pct)
			}
		}
	case ActRelease, ActCut:
		if err := need(ev.Device != "", "device"); err != nil {
			return err
		}
		if ev.Device == "all" {
			return e(ev.Line, "%s: %s targets one device, not \"all\"", ctx, ev.Action)
		}
	case ActDesign:
		return validateDesignOp(e, ev, ctx, f)
	case ActCorruptDesign:
		if ev.What != "flip-asn" {
			return e(ev.Line, "%s: unknown corruption %q (known: flip-asn)", ctx, ev.What)
		}
	case ActFirewall:
		if err := need(ev.FirewallName != "", "name"); err != nil {
			return err
		}
	case ActConverge:
		if ev.Rounds <= 0 {
			return e(ev.Line, "%s: converge needs a positive \"rounds\"", ctx)
		}
		if ev.Step <= 0 {
			return e(ev.Line, "%s: converge needs a positive \"step\" duration", ctx)
		}
	case ActKillMaster, ActPromote:
		if f.Service == nil {
			return e(ev.Line, "%s: action %q needs a \"service\" section", ctx, ev.Action)
		}
	case ActChaos:
		if len(f.Faults.Rules) == 0 {
			return e(ev.Line, "%s: chaos event without fault rules", ctx)
		}
	}
	return nil
}

// validateDesignOp checks the design action: backbone changes need a
// backbone fleet, add-router names the new device, the circuit ops name
// two distinct routers (and migrate-circuit a third as the new far end).
// That the named routers exist is the event loop's device check.
func validateDesignOp(e func(int, string, ...any) error, ev *EventSpec, ctx string, f *File) error {
	if f.Fleet.Kind != kindBackbone {
		return e(ev.Line, "%s: action %q needs a fleet of kind backbone", ctx, ActDesign)
	}
	ends := len(ev.Devices) == 2 && ev.Devices[0] != ev.Devices[1] && ev.Devices[0] != "all" && ev.Devices[1] != "all"
	switch ev.Op {
	case OpAddRouter:
		if ev.Device == "" || ev.Device == "all" || len(ev.Devices) > 0 || ev.To != "" {
			return e(ev.Line, "%s: add-router needs \"device\" (the new router's name) and nothing else", ctx)
		}
	case OpAddCircuit:
		if !ends || ev.Device != "" || ev.To != "" {
			return e(ev.Line, "%s: add-circuit needs \"devices\": two distinct routers, and nothing else", ctx)
		}
	case OpMigrateCircuit:
		if !ends || ev.Device != "" || ev.To == "" || ev.To == ev.Devices[0] || ev.To == ev.Devices[1] {
			return e(ev.Line, "%s: migrate-circuit needs \"devices\": the circuit's two routers, and \"to\": a third", ctx)
		}
	default:
		return e(ev.Line, "%s: unknown design op %q (known: %s, %s, %s)", ctx, ev.Op, OpAddCircuit, OpAddRouter, OpMigrateCircuit)
	}
	return nil
}

func validateAssertion(e func(int, string, ...any) error, a *AssertionSpec, ctx string, f *File, checkDevice, checkShard func(int, string, string) error) error {
	if a.Type == "" {
		return e(a.Line, "%s is missing the required \"type\"", ctx)
	}
	if !validAsserts[a.Type] {
		return e(a.Line, "%s: unknown assertion type %q (known: %s)", ctx, a.Type, sortedKeys(validAsserts))
	}
	if a.Device != "" {
		if err := checkDevice(a.Line, a.Device, ctx); err != nil {
			return err
		}
	}
	if a.Shard != "" {
		if a.Type != AssertBreaker {
			return e(a.Line, "%s: field \"shard\" is only valid on breaker assertions", ctx)
		}
		if err := checkShard(a.Line, a.Shard, ctx); err != nil {
			return err
		}
	}
	switch a.Type {
	case AssertDeviceState:
		if a.Device == "" {
			return e(a.Line, "%s: device-state needs \"device\" (a name or \"all\")", ctx)
		}
		if !validStates[a.State] {
			return e(a.Line, "%s: unknown state %q (known: %s)", ctx, a.State, sortedKeys(validStates))
		}
	case AssertRunningGolden, AssertNoCandidates, AssertNoConfirms, AssertNoNewMgmtOps, AssertGoldenStable:
		if a.Device == "" {
			return e(a.Line, "%s: %s needs \"device\" (a name or \"all\")", ctx, a.Type)
		}
	case AssertMetric:
		if a.Metric == "" {
			return e(a.Line, "%s: metric assertion needs \"metric\"", ctx)
		}
		if !validOps[a.Op] {
			return e(a.Line, "%s: unknown op %q (known: !=, <, <=, ==, >, >=)", ctx, a.Op)
		}
		for _, l := range a.Labels {
			if k, v, ok := strings.Cut(l, "="); !ok || k == "" || v == "" {
				return e(a.Line, "%s: label %q is not key=value", ctx, l)
			}
		}
	case AssertJournal:
		if a.Event == "" {
			return e(a.Line, "%s: journal assertion needs \"event\"", ctx)
		}
		if a.MinCount < 1 {
			return e(a.Line, "%s: min_count must be >= 1", ctx)
		}
	case AssertVerify:
		if a.Verdict != "rejected" && a.Verdict != "passed" {
			return e(a.Line, "%s: verdict must be \"rejected\" or \"passed\", got %q", ctx, a.Verdict)
		}
	case AssertFaultsFired:
		if a.MinKinds < 1 && a.MinTotal < 1 {
			return e(a.Line, "%s: faults-fired needs min_kinds or min_total >= 1", ctx)
		}
	case AssertAudit:
		if a.Clean == (a.AnomalyKind != "") {
			return e(a.Line, "%s: audit needs exactly one of \"clean: true\" or \"anomaly_kind\"", ctx)
		}
		if a.AnomalyKind != "" && !validAnomalyKinds[a.AnomalyKind] {
			return e(a.Line, "%s: unknown anomaly kind %q (known: %s)", ctx, a.AnomalyKind, sortedKeys(validAnomalyKinds))
		}
		if a.MinCount < 1 {
			return e(a.Line, "%s: min_count must be >= 1", ctx)
		}
	case AssertAlarm:
		if a.Rule == "" {
			return e(a.Line, "%s: alarm assertion needs \"rule\"", ctx)
		}
		if a.State != "" && !validAlarmStates[a.State] {
			return e(a.Line, "%s: unknown alarm state %q (known: %s)", ctx, a.State, sortedKeys(validAlarmStates))
		}
		if a.MinCount < 1 {
			return e(a.Line, "%s: min_count must be >= 1", ctx)
		}
		if a.CorrelatesDevice != "" && a.CorrelatesKind == "" {
			return e(a.Line, "%s: correlates_device needs correlates_kind", ctx)
		}
	}
	if a.Type != AssertAudit && (a.Clean || a.AnomalyKind != "") {
		return e(a.Line, "%s: fields \"clean\" and \"anomaly_kind\" are only valid on audit assertions", ctx)
	}
	if a.Type != AssertAlarm {
		if a.Rule != "" {
			return e(a.Line, "%s: field \"rule\" is only valid on alarm assertions", ctx)
		}
		if a.CorrelatesKind != "" || a.CorrelatesDevice != "" {
			return e(a.Line, "%s: correlates_* fields are only valid on alarm assertions", ctx)
		}
	}
	return nil
}

// Load reads, parses, and validates a scenario file.
func Load(path string) (*File, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Parse(path, string(src))
	if err != nil {
		return nil, err
	}
	if err := Validate(f); err != nil {
		return nil, err
	}
	return f, nil
}
