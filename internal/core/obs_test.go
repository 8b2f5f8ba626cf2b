package core

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/vclock"
)

// TestObsEndpointsMatchSnapshot: /alarms and /timeline serve exactly what
// the programmatic API reports — the acceptance contract for the CLI and
// HTTP surfaces being views over one alarm engine.
func TestObsEndpointsMatchSnapshot(t *testing.T) {
	vc := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	r, err := New(Options{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.EnsureSite("pop1", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ProvisionCluster(testCtx("pop"), "pop1", "pop1-c1", design.POPGen1()); err != nil {
		t.Fatal(err)
	}
	// Provisioning derived the monitoring config automatically.
	if len(r.Alarms.Rules()) == 0 {
		t.Fatal("no alarm rules derived after provisioning")
	}
	// Baseline samples, then six silent minutes: every device trips its
	// derived device-unreachable absence rule.
	if _, err := r.ObserveOnce(); err != nil {
		t.Fatal(err)
	}
	vc.Advance(6 * time.Minute)
	if firing := r.Alarms.Evaluate(); len(firing) == 0 {
		t.Fatal("expected device-unreachable alarms after silence")
	}

	srv, err := r.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var httpAlarms []monitor.Alarm
	getJSON(t, "http://"+srv.Addr+"/alarms", &httpAlarms)
	wantAlarms := r.Alarms.Snapshot()
	if !jsonEqual(t, httpAlarms, wantAlarms) {
		t.Errorf("/alarms diverges from Alarms.Snapshot(): %d vs %d entries", len(httpAlarms), len(wantAlarms))
	}
	if len(httpAlarms) == 0 {
		t.Error("/alarms served an empty snapshot while alarms are firing")
	}

	var httpTimeline []monitor.TimelineEntry
	getJSON(t, "http://"+srv.Addr+"/timeline", &httpTimeline)
	wantTimeline := r.Alarms.Timeline(time.Time{}, time.Time{})
	if !jsonEqual(t, httpTimeline, wantTimeline) {
		t.Errorf("/timeline diverges from Alarms.Timeline(): %d vs %d entries", len(httpTimeline), len(wantTimeline))
	}
	// The timeline must contain the provisioning deploy record and the
	// fired alarms.
	stages := map[string]bool{}
	for _, e := range httpTimeline {
		stages[e.Stage] = true
	}
	for _, want := range []string{"deploy", "alarm"} {
		if !stages[want] {
			t.Errorf("timeline missing stage %q (got %v)", want, stages)
		}
	}
}

// TestObsReconcileEndpointMatchesSnapshot: /reconcile serves exactly what
// Reconciler.Snapshot() reports, shards are the provisioned site (the
// failure domain comes from FBNet membership, not name parsing), and a
// device drift shows up as backlog in the served document.
func TestObsReconcileEndpointMatchesSnapshot(t *testing.T) {
	clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	r, err := New(Options{
		EnableReconciler: true,
		Reconcile:        reconcile.Config{Clock: clk},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Reconciler.Stop)
	if _, err := r.Designer.EnsureSite("pop1", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	res, err := r.ProvisionCluster(testCtx("pop"), "pop1", "pop1-c1", design.POPGen1())
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-band drift on one device, surfaced by a sweep: the snapshot
	// gains a tracked device and an open backlog entry under site pop1.
	dev, ok := r.Fleet.Device(res.Devices[0])
	if !ok {
		t.Fatalf("device %s not in fleet", res.Devices[0])
	}
	golden, err := r.Generator.Golden(res.Devices[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.InjectRunningConfig(golden + "rogue line\n"); err != nil {
		t.Fatal(err)
	}
	if n := r.Reconciler.Sweep(); n == 0 {
		t.Fatal("sweep checked no devices")
	}

	srv, err := r.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var httpSnap reconcile.Snapshot
	getJSON(t, "http://"+srv.Addr+"/reconcile", &httpSnap)
	want := r.Reconciler.Snapshot()
	if !jsonEqual(t, httpSnap, want) {
		t.Errorf("/reconcile diverges from Reconciler.Snapshot():\nhttp: %+v\napi:  %+v", httpSnap, want)
	}
	if len(httpSnap.Shards) != 1 || httpSnap.Shards[0].Shard != "pop1" {
		t.Fatalf("shards = %+v, want exactly site pop1", httpSnap.Shards)
	}
	sh := httpSnap.Shards[0]
	if sh.Open != 1 || sh.Devices < 1 || sh.Tripped {
		t.Errorf("pop1 shard = %+v, want open=1 breaker closed", sh)
	}
	if sh.Budget <= 0 {
		t.Errorf("pop1 budget = %d, want > 0 (ShardFleetSize wired)", sh.Budget)
	}
	// The fleet-wide fields are the shards' sum and any open breaker.
	if httpSnap.Open != sh.Open || httpSnap.Tripped != sh.Tripped {
		t.Errorf("snapshot open=%d tripped=%v, want pop1's open=%d tripped=%v",
			httpSnap.Open, httpSnap.Tripped, sh.Open, sh.Tripped)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s decode: %v", url, err)
	}
}

func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}
