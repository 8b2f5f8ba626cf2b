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
// contract of the pre-deploy gate, for both ways into the rollout: when
// intent verification fails, the rejection happens before a single
// management session is opened — no staged candidates, no pending
// commit-confirms, not one management operation issued, the golden intent
// untouched, and no deploy recorded. A turn-up is gated network-wide: a
// broken session in a cluster already serving rejects a new cluster whose
// own configs are clean, and the new cluster stays unpromoted.
func TestVerifyGateRejectsBeforeAnyManagementSession(t *testing.T) {
	for _, tc := range []struct {
		name string
		// roll pushes one change through an entry point: a turn-up adds
		// the named cluster, an incremental change redeploys the cluster
		// already serving.
		roll   func(r *Robotron, serving []string, cluster string) error
		turnUp bool
	}{
		{"incremental change", func(r *Robotron, serving []string, _ string) error {
			_, err := r.GenerateAndDeploy(serving, deploy.Options{}, "e1")
			return err
		}, false},
		{"turn-up", func(r *Robotron, _ []string, cluster string) error {
			_, err := r.ProvisionCluster(testCtx("pop"), "pop1", cluster, design.POPGen1())
			return err
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) { testGateRejects(t, tc.roll, tc.turnUp) })
	}
}

func testGateRejects(t *testing.T, roll func(*Robotron, []string, string) error, turnUp bool) {
	r := newRobotron(t)
	if _, err := r.Designer.EnsureSite("pop1", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	res, err := r.ProvisionCluster(testCtx("pop"), "pop1", "pop1-c1", design.POPGen1())
	if err != nil {
		t.Fatalf("clean cluster rejected by the gate: %v", err)
	}

	// Snapshot the fleet's management footprint, golden intent and
	// deploy record. A device that joins the fleet later starts at zero
	// operations and no golden.
	opsBefore := map[string]int64{}
	goldenBefore := map[string]string{}
	for _, d := range r.Fleet.Devices() {
		opsBefore[d.Name()] = d.MgmtOps()
		g, err := r.Generator.Golden(d.Name())
		if err != nil {
			t.Fatal(err)
		}
		goldenBefore[d.Name()] = g
	}
	deploysBefore := deployRecords(t, r)

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

	const newCluster = "pop1-c2" // the cluster a rejected turn-up would add
	err = roll(r, res.Devices, newCluster)
	if err == nil {
		t.Fatal("broken intent rolled out without rejection")
	}
	var rej *verify.RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("error is not a gate rejection: %v", err)
	}
	if rej.Result.Pass() || len(rej.Result.Violations) == 0 {
		t.Fatalf("rejection carries no violations: %+v", rej.Result)
	}

	// The fleet never heard about it: no candidate staged, no rollback
	// timer armed, zero additional management operations — on the devices
	// already serving and on any the rejected turn-up added to the fleet.
	for _, d := range r.Fleet.Devices() {
		name := d.Name()
		if d.HasCandidate() {
			t.Errorf("%s has a staged candidate after gate rejection", name)
		}
		if d.ConfirmPending() {
			t.Errorf("%s has a pending commit-confirm after gate rejection", name)
		}
		if got := d.MgmtOps(); got != opsBefore[name] {
			t.Errorf("%s management ops %d -> %d: gate rejection touched the device", name, opsBefore[name], got)
		}
		// The golden intent did not move either: a rejected change leaves
		// the repository exactly as it was.
		g, err := r.Generator.Golden(name)
		if want, had := goldenBefore[name]; had && (err != nil || g != want) {
			t.Errorf("%s golden config changed despite gate rejection (err %v)", name, err)
		} else if !had && err == nil {
			t.Errorf("%s got a golden config from a rejected turn-up", name)
		}
	}
	if turnUp {
		if len(r.Fleet.Devices()) == len(opsBefore) {
			t.Errorf("rejected turn-up of %s added no device to the fleet; the gate was not reached", newCluster)
		}
		c, err := r.Store.Find("Cluster", fbnet.Eq("name", newCluster))
		if err != nil || len(c) != 1 {
			t.Fatalf("cluster %s: %v, %v", newCluster, c, err)
		}
		if st := c[0].String("status"); st == "production" {
			t.Errorf("cluster %s promoted to %s despite gate rejection", newCluster, st)
		}
	}
	if got := deployRecords(t, r); got != deploysBefore {
		t.Errorf("provision/deploy events %d -> %d: a rejected change was recorded as rolled out", deploysBefore, got)
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
		t.Errorf("gate latency observations = %d, want >= 2 (provision + rejected change)", got)
	}
	if got := r.Telemetry.Counter("robotron_verify_violations_total",
		telemetry.L("invariant", string(verify.BGPSymmetry))...).Value(); got == 0 {
		t.Error("bgp-symmetry violation counter not incremented")
	}

	// The trace says what the gate run cost: a few re-evaluated checks on
	// the model the provisioning run had built — not a rebuild — and no
	// binlog entry: the change's generate stage (and a turn-up's SyncFleet
	// before it) has already read the delta through the same model.
	trace, _ := r.Tracer.Last()
	sp, ok := trace.Find("verify")
	if !ok {
		t.Fatalf("rejected change's trace has no verify span: %+v", trace)
	}
	if sp.Attrs["rebuilt"] != "false" || sp.Attrs["rechecked"] == "" || sp.Attrs["rechecked"] == "0" ||
		sp.Attrs["delta_entries"] != "0" {
		t.Errorf("verify span attrs = %v, want rebuilt=false, non-zero rechecked and no delta entries", sp.Attrs)
	}

	// The escape hatch: with the gate off (-no-verify), an equivalent
	// change goes through — explicitly accepted risk, not a hidden default.
	r.VerifyIntent = false
	if err := roll(r, res.Devices, "pop1-c3"); err != nil {
		t.Fatalf("change with gate disabled failed: %v", err)
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
		t.Error("no WARNING verify-gate audit event recorded for the bypassed change")
	}
}

// deployRecords counts the rollouts on the operational record.
func deployRecords(t *testing.T, r *Robotron) int {
	t.Helper()
	n := 0
	for _, kind := range []string{"provision", "deploy"} {
		events, err := r.Store.Find("OperationalEvent", fbnet.Eq("kind", kind))
		if err != nil {
			t.Fatal(err)
		}
		n += len(events)
	}
	return n
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
