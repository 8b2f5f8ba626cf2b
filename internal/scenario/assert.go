package scenario

import (
	"fmt"
	"strings"

	"github.com/robotron-net/robotron/internal/audit"
	"github.com/robotron-net/robotron/internal/confdiff"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/telemetry"
)

// Assertion evaluation. Every check observes through the public APIs
// the operator would use — reconciler states, the telemetry registry's
// programmatic snapshot, the journal, FBNet audit events — with fault
// injection paused so the observer neither perturbs nor is perturbed by
// the chaos schedule. A failure names the first violated assertion with
// its event index and device, and attaches the most useful context:
// the confdiff hunk for config mismatches, the journal tail for state
// machine surprises.

// checkAll evaluates an assertion list; eventIdx -1 marks the final
// block. The first failure wins.
func (e *engine) checkAll(asserts []AssertionSpec, eventIdx int) error {
	if len(asserts) == 0 {
		return nil
	}
	resume := e.pauseFaults()
	defer resume()
	for i := range asserts {
		a := &asserts[i]
		if err := e.check(a, eventIdx, i); err != nil {
			return err
		}
	}
	return nil
}

// resolveDevices expands "all" to the sorted fleet and "site:<x>" to
// that site's sorted devices (the failure-domain selector).
func (e *engine) resolveDevices(name string) []string {
	if name == "all" {
		return e.devices
	}
	if site, ok := strings.CutPrefix(name, "site:"); ok {
		return e.sites[site]
	}
	return []string{name}
}

func (e *engine) check(a *AssertionSpec, eventIdx, assertIdx int) error {
	fail := func(device, format string, args ...any) *RunError {
		return &RunError{Scenario: e.file.Name, EventIdx: eventIdx, AssertIdx: assertIdx,
			Kind: a.Type, Device: device, Msg: fmt.Sprintf(format, args...)}
	}
	switch a.Type {
	case AssertDeviceState:
		states := e.r.Reconciler.States()
		for _, name := range e.resolveDevices(a.Device) {
			got := states[name]
			if got == "" {
				got = reconcile.StateConverged // never entered the loop
			}
			ok := string(got) == a.State ||
				(a.State == "converged-or-quarantined" &&
					(got == reconcile.StateConverged || got == reconcile.StateQuarantined))
			if !ok {
				err := fail(name, "state is %q, want %q", got, a.State)
				err.Context = e.journalTail(name)
				return err
			}
		}
	case AssertRunningGolden:
		states := e.r.Reconciler.States()
		for _, name := range e.resolveDevices(a.Device) {
			if a.SkipQuarantined && states[name] == reconcile.StateQuarantined {
				continue
			}
			d, ok := e.r.Fleet.Device(name)
			if !ok {
				return fail(name, "device missing from fleet")
			}
			golden, err := e.r.Generator.Golden(name)
			if err != nil {
				return fail(name, "no golden config: %v", err)
			}
			// Out-of-band read: asserting must not open a management
			// session, or it would skew a later no-new-mgmt-ops check.
			if running := d.PeekRunningConfig(); running != golden {
				ferr := fail(name, "running config deviates from golden")
				ferr.Context = diffHunk(golden, running)
				return ferr
			}
		}
	case AssertNoCandidates:
		for _, name := range e.resolveDevices(a.Device) {
			if d, ok := e.r.Fleet.Device(name); ok && d.HasCandidate() {
				return fail(name, "a staged candidate config is present")
			}
		}
	case AssertNoConfirms:
		for _, name := range e.resolveDevices(a.Device) {
			if d, ok := e.r.Fleet.Device(name); ok && d.ConfirmPending() {
				return fail(name, "a provisional commit-confirm is still pending")
			}
		}
	case AssertBreaker:
		if a.Shard != "" {
			if got := e.r.Reconciler.ShardTripped(a.Shard); got != a.Tripped {
				err := fail("", "shard %s breaker tripped=%v, want %v", a.Shard, got, a.Tripped)
				err.Context = e.journalTail("")
				return err
			}
			break
		}
		if got := e.r.Reconciler.Tripped(); got != a.Tripped {
			err := fail("", "breaker tripped=%v, want %v", got, a.Tripped)
			err.Context = e.journalTail("")
			return err
		}
	case AssertMetric:
		labels := make(telemetry.Labels, 0, len(a.Labels))
		for _, l := range a.Labels {
			k, v, _ := strings.Cut(l, "=")
			labels = append(labels, telemetry.L(k, v)...)
		}
		got, ok := e.reg.Value(a.Metric, labels...)
		if !ok {
			return fail("", "metric %s%s is not registered", a.Metric, labels.String())
		}
		if !compare(got, a.Op, a.Value) {
			return fail("", "metric %s%s = %g, want %s %g", a.Metric, labels.String(), got, a.Op, a.Value)
		}
	case AssertJournal:
		n := 0
		for _, je := range e.r.Reconciler.Journal().Events() {
			if string(je.Type) != a.Event {
				continue
			}
			if a.Device != "" && a.Device != "all" && je.Device != a.Device {
				continue
			}
			n++
		}
		if n < a.MinCount {
			err := fail(a.Device, "journal has %d %q event(s), want >= %d", n, a.Event, a.MinCount)
			err.Context = e.journalTail(a.Device)
			return err
		}
	case AssertVerify:
		events, err := e.r.Store.Find("OperationalEvent", fbnet.Eq("kind", "verify-gate"))
		if err != nil {
			return fail("", "audit query: %v", err)
		}
		found := false
		for _, ev := range events {
			urgency := ev.String("urgency")
			if a.Verdict == "rejected" && urgency == "CRITICAL" {
				found = true
			}
			if a.Verdict == "passed" && urgency == "NOTICE" {
				found = true
			}
		}
		if !found {
			return fail("", "no %q verify-gate verdict on the audit record (%d gate event(s))", a.Verdict, len(events))
		}
	case AssertFaultsFired:
		if e.policy == nil {
			return fail("", "faults-fired asserted but no fault rules are declared")
		}
		counts := e.policy.Counts()
		kinds := 0
		for _, n := range counts {
			if n > 0 {
				kinds++
			}
		}
		total := e.policy.Total()
		if kinds < a.MinKinds || total < int64(a.MinTotal) {
			return fail("", "fault engine too quiet: %d kind(s) fired, %d total (want >= %d kinds, >= %d total)",
				kinds, total, a.MinKinds, a.MinTotal)
		}
	case AssertNoNewMgmtOps:
		if e.opsBase == nil {
			return fail("", "no-new-mgmt-ops needs a prior snapshot event")
		}
		for _, name := range e.resolveDevices(a.Device) {
			d, ok := e.r.Fleet.Device(name)
			if !ok {
				return fail(name, "device missing from fleet")
			}
			if got, base := d.MgmtOps(), e.opsBase[name]; got != base {
				return fail(name, "management ops %d -> %d: the fleet was touched", base, got)
			}
		}
	case AssertAlarm:
		wantState := a.State
		if wantState == "" {
			wantState = string(monitor.AlarmFiring)
		}
		n := 0
		var correlated bool
		for _, al := range e.r.Alarms.Snapshot() {
			if al.Rule != a.Rule || string(al.State) != wantState {
				continue
			}
			if a.Device != "" && a.Device != "all" && al.Device != a.Device {
				continue
			}
			n++
			for _, c := range al.Correlated {
				if a.CorrelatesKind != "" && c.Kind != a.CorrelatesKind {
					continue
				}
				if a.CorrelatesDevice != "" && c.Device != a.CorrelatesDevice {
					continue
				}
				correlated = true
			}
		}
		if n < a.MinCount {
			err := fail(a.Device, "%d %q alarm(s) in state %q, want >= %d", n, a.Rule, wantState, a.MinCount)
			err.Context = alarmContext(e.r.Alarms.Snapshot())
			return err
		}
		if a.CorrelatesKind != "" && !correlated {
			err := fail(a.Device, "no %q alarm correlates with a %q event%s",
				a.Rule, a.CorrelatesKind, correlatesDeviceSuffix(a.CorrelatesDevice))
			err.Context = alarmContext(e.r.Alarms.Snapshot())
			return err
		}
	case AssertAudit:
		rep, err := e.adhocAudit()
		if err != nil {
			return fail(a.Device, "audit: %v", err)
		}
		if a.Clean {
			if !rep.Clean() {
				ferr := fail("", "audit found %d anomaly(ies), want a clean network", len(rep.Anomalies))
				ferr.Context = auditContext(rep)
				return ferr
			}
			break
		}
		n := 0
		for _, an := range rep.Anomalies {
			if string(an.Kind) == a.AnomalyKind && (a.Device == "" || a.Device == "all" || an.Device == a.Device) {
				n++
			}
		}
		if n < a.MinCount {
			ferr := fail(a.Device, "audit found %d %q anomaly(ies), want >= %d", n, a.AnomalyKind, a.MinCount)
			ferr.Context = auditContext(rep)
			return ferr
		}
	case AssertGoldenStable:
		if e.goldenBase == nil {
			return fail("", "golden-unchanged needs a prior snapshot event")
		}
		for _, name := range e.resolveDevices(a.Device) {
			golden, err := e.r.Generator.Golden(name)
			if err != nil {
				return fail(name, "no golden config: %v", err)
			}
			if base := e.goldenBase[name]; golden != base {
				ferr := fail(name, "golden intent moved since the snapshot")
				ferr.Context = diffHunk(base, golden)
				return ferr
			}
		}
	}
	return nil
}

// adhocAudit is the paper's on-demand audit path (§5.4.2): ad-hoc jobs
// collect what the audit reads and the intent-derived periodic jobs do
// not carry — LLDP adjacency and OS version, fleet-wide — derived
// circuits are rebuilt from the adjacencies, and Desired is audited
// against Derived. Interface and BGP state come from whatever the last
// collect event stored.
func (e *engine) adhocAudit() (audit.Report, error) {
	for _, job := range []monitor.JobSpec{
		{Name: "adhoc-audit-lldp", Engine: monitor.EngineCLI, Data: monitor.DataLLDP},
		{Name: "adhoc-audit-version", Engine: monitor.EngineThrift, Data: monitor.DataVersion},
	} {
		job.Devices, job.Backends = e.devices, []string{"fbnet-derived"}
		if _, err := e.r.JobManager.RunOnce(job); err != nil {
			return audit.Report{}, err
		}
	}
	if _, err := monitor.DeriveCircuits(e.r.Store); err != nil {
		return audit.Report{}, err
	}
	return e.r.Audit()
}

// auditContext renders an audit report for a failure message.
func auditContext(rep audit.Report) string {
	if rep.Clean() {
		return "audit: (clean)"
	}
	lines := make([]string, 0, len(rep.Anomalies))
	for _, an := range rep.Anomalies {
		lines = append(lines, "  "+an.String())
	}
	return "audit anomalies:\n" + strings.Join(lines, "\n")
}

func compare(got float64, op string, want float64) bool {
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

func correlatesDeviceSuffix(dev string) string {
	if dev == "" {
		return ""
	}
	return " naming device " + dev
}

// alarmContext renders the full alarm snapshot for a failure message.
func alarmContext(alarms []monitor.Alarm) string {
	if len(alarms) == 0 {
		return "alarms: (none)"
	}
	return "alarms:\n" + monitor.FormatAlarms(alarms)
}

// journalTail renders the last few reconciler journal entries (for one
// device, or loop-wide), the context an operator wants first.
func (e *engine) journalTail(device string) string {
	events := e.r.Reconciler.Journal().Events()
	var lines []string
	for _, je := range events {
		if device != "" && device != "all" && je.Device != device && je.Device != "" {
			continue
		}
		lines = append(lines, "  "+je.String())
	}
	const tail = 8
	if len(lines) > tail {
		lines = append([]string{fmt.Sprintf("  ... (%d earlier entries)", len(lines)-tail)}, lines[len(lines)-tail:]...)
	}
	if len(lines) == 0 {
		return "journal tail: (empty)"
	}
	return "journal tail:\n" + strings.Join(lines, "\n")
}

// diffHunk renders the changed lines between want and got (golden vs
// running), capped so a failure message stays readable.
func diffHunk(want, got string) string {
	d := confdiff.Compute(want, got)
	var lines []string
	for _, ed := range d.Edits {
		if ed.Kind == confdiff.Equal {
			continue
		}
		for _, l := range ed.Lines {
			lines = append(lines, ed.Kind.String()+l)
		}
	}
	const maxLines = 12
	truncated := ""
	if len(lines) > maxLines {
		truncated = fmt.Sprintf("\n  ... (%d more changed lines)", len(lines)-maxLines)
		lines = lines[:maxLines]
	}
	if len(lines) == 0 {
		return "confdiff: configs differ only in trailing whitespace"
	}
	return "confdiff (-golden +running):\n  " + strings.Join(lines, "\n  ") + truncated
}
