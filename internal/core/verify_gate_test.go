package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/verify"
)

// TestVerifyGateRejectsBeforeAnyManagementSession is the end-to-end
// contract of the pre-deploy gate: when intent verification fails, the
// rejection happens before a single management session is opened — no
// staged candidates, no pending commit-confirms, not one management
// operation issued, and the golden intent untouched.
func TestVerifyGateRejectsBeforeAnyManagementSession(t *testing.T) {
	r := newRobotron(t)
	if _, err := r.Designer.EnsureSite("pop1", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	res, err := r.ProvisionCluster(testCtx("pop"), "pop1", "pop1-c1", design.POPGen1())
	if err != nil {
		t.Fatalf("clean cluster rejected by the gate: %v", err)
	}

	// Snapshot the fleet's management footprint and golden intent.
	opsBefore := map[string]int64{}
	goldenBefore := map[string]string{}
	for _, name := range res.Devices {
		d, ok := r.Fleet.Device(name)
		if !ok {
			t.Fatalf("device %s missing from fleet", name)
		}
		opsBefore[name] = d.MgmtOps()
		g, err := r.Generator.Golden(name)
		if err != nil {
			t.Fatal(err)
		}
		goldenBefore[name] = g
	}

	// Break one invariant in FBNet: flip a session's remote AS.
	ss, err := r.Store.Find("BgpV6Session", fbnet.Eq("session_type", "ebgp"))
	if err != nil || len(ss) == 0 {
		t.Fatalf("no ebgp sessions: %v", err)
	}
	if _, err := r.Store.Mutate(func(m *fbnet.Mutation) error {
		return m.Update("BgpV6Session", ss[0].ID, map[string]any{"remote_as": int64(65999)})
	}); err != nil {
		t.Fatal(err)
	}

	_, err = r.GenerateAndDeploy(res.Devices, deploy.Options{}, "e1")
	if err == nil {
		t.Fatal("broken intent deployed without rejection")
	}
	var rej *verify.RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("error is not a gate rejection: %v", err)
	}
	if rej.Result.Pass() || len(rej.Result.Violations) == 0 {
		t.Fatalf("rejection carries no violations: %+v", rej.Result)
	}

	// The fleet never heard about it: no candidate staged, no rollback
	// timer armed, zero additional management operations.
	for _, name := range res.Devices {
		d, _ := r.Fleet.Device(name)
		if d.HasCandidate() {
			t.Errorf("%s has a staged candidate after gate rejection", name)
		}
		if d.ConfirmPending() {
			t.Errorf("%s has a pending commit-confirm after gate rejection", name)
		}
		if got := d.MgmtOps(); got != opsBefore[name] {
			t.Errorf("%s management ops %d -> %d: gate rejection touched the device", name, opsBefore[name], got)
		}
	}
	// The golden intent did not move either: a rejected deployment leaves
	// the repository exactly as it was.
	for _, name := range res.Devices {
		g, err := r.Generator.Golden(name)
		if err != nil {
			t.Fatal(err)
		}
		if g != goldenBefore[name] {
			t.Errorf("%s golden config changed despite gate rejection", name)
		}
	}

	// The decision is on the audit record and in telemetry.
	events, err := r.Store.Find("OperationalEvent", fbnet.Eq("kind", "verify-gate"))
	if err != nil {
		t.Fatal(err)
	}
	rejected := false
	for _, e := range events {
		if e.String("urgency") == "CRITICAL" && strings.Contains(e.String("detail"), "rejected") {
			rejected = true
		}
	}
	if !rejected {
		t.Errorf("no CRITICAL verify-gate audit event recorded; events: %d", len(events))
	}
	if got := r.Telemetry.Counter("robotron_verify_rejections_total").Value(); got != 1 {
		t.Errorf("rejections counter = %d, want 1", got)
	}
	if got := r.Telemetry.Histogram("robotron_verify_seconds").Count(); got < 2 {
		t.Errorf("gate latency observations = %d, want >= 2 (provision + rejected deploy)", got)
	}
	if got := r.Telemetry.Counter("robotron_verify_violations_total",
		telemetry.L("invariant", string(verify.BGPSymmetry))...).Value(); got == 0 {
		t.Error("bgp-symmetry violation counter not incremented")
	}

	// The trace says what the gate run cost: it followed the flipped
	// session through the binlog (a delta, a few re-evaluated checks) on
	// the model the provisioning run had built — not a rebuild.
	trace, _ := r.Tracer.Last()
	sp, ok := trace.Find("verify")
	if !ok {
		t.Fatalf("rejected deploy's trace has no verify span: %+v", trace)
	}
	if sp.Attrs["rebuilt"] != "false" || sp.Attrs["delta_entries"] == "" || sp.Attrs["delta_entries"] == "0" ||
		sp.Attrs["rechecked"] == "" || sp.Attrs["rechecked"] == "0" {
		t.Errorf("verify span attrs = %v, want rebuilt=false and non-zero delta_entries and rechecked", sp.Attrs)
	}

	// The escape hatch: with the gate off (-no-verify), the same deploy
	// goes through — explicitly accepted risk, not a hidden default.
	r.VerifyIntent = false
	if _, err := r.GenerateAndDeploy(res.Devices, deploy.Options{}, "e1"); err != nil {
		t.Fatalf("deploy with gate disabled failed: %v", err)
	}
	// Even a bypassed gate leaves a WARNING on the operational record.
	events, err = r.Store.Find("OperationalEvent", fbnet.Eq("kind", "verify-gate"))
	if err != nil {
		t.Fatal(err)
	}
	bypassed := false
	for _, e := range events {
		if e.String("urgency") == "WARNING" && strings.Contains(e.String("detail"), "BYPASSED") {
			bypassed = true
		}
	}
	if !bypassed {
		t.Error("no WARNING verify-gate audit event recorded for the bypassed deploy")
	}
}

// TestVerifyGateOptionDisables: every new instance has the gate on, and
// the VerifyIntent field — what `sim run -no-verify` clears — is the one
// switch: with it off the gate checks nothing and records the bypass.
func TestVerifyGateOptionDisables(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.VerifyIntent || !newRobotron(t).VerifyIntent {
		t.Error("gate is not on by default")
	}
	r.VerifyIntent = false
	if err := r.verifyGate(map[string]string{"dev1": "garbage"}, nil); err != nil {
		t.Fatalf("gate with VerifyIntent cleared: %v", err)
	}
	events, err := r.Store.Find("OperationalEvent", fbnet.Eq("kind", "verify-gate"))
	if err != nil || len(events) != 1 || !strings.Contains(events[0].String("detail"), "BYPASSED") {
		t.Errorf("bypassed gate recorded %v, %v; want one BYPASSED event", events, err)
	}
}
