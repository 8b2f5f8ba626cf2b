package core

import (
	"encoding/json"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
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
		Clock:            clk,
		EnableReconciler: true,
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

// runDerivedJobs runs each derived job of the given devices once, as the
// benchmark's rack change does after its deploy.
func runDerivedJobs(t *testing.T, r *Robotron, devices []string) {
	t.Helper()
	for _, spec := range r.JobManager.Jobs() {
		if len(spec.Devices) != 1 || !slices.Contains(devices, spec.Devices[0]) {
			continue
		}
		if _, err := r.JobManager.RunOnce(monitor.JobSpec{
			Name: "adhoc-" + spec.Name, Period: spec.Period, Engine: spec.Engine,
			Data: spec.Data, Devices: spec.Devices, Backends: spec.Backends,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAlarmsEvaluateWhatTheRackChangeMoved: after a rack is added,
// deployed with its cluster's fsws, and those devices' derived jobs run
// once, a pass evaluates exactly the rules installed on them and on the
// device with an active alarm, and fires what a pass over every rule
// fires.
func TestAlarmsEvaluateWhatTheRackChangeMoved(t *testing.T) {
	clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	r, err := New(Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"dc1", "dc2"} {
		if _, err := r.Designer.EnsureSite(site, "dc", "apac"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ProvisionCluster(testCtx("dc"), site, site+"-c1", design.DCGen3(4)); err != nil {
			t.Fatal(err)
		}
	}
	// A device of the other site reports once and goes silent: its
	// device-unreachable alarm stays active through the rack change.
	const silent = "dr1.dc2-c1"
	runDerivedJobs(t, r, []string{silent})
	clk.Advance(6 * time.Minute)
	if firing := r.Alarms.Evaluate(); len(firing) != 1 || firing[0].Device != silent {
		t.Fatalf("after %s went silent the firing alarms are %+v, want its device-unreachable", silent, firing)
	}

	if _, err := r.Designer.AddRack(testCtx("dc"), "dc1-c1", "TOR_Vendor1", "fsw", 4, true, false); err != nil {
		t.Fatal(err)
	}
	tors, err := r.Store.Find("Device", fbnet.Eq("role", "tor"))
	if err != nil {
		t.Fatal(err)
	}
	fsws, err := r.Store.Find("Device", fbnet.Eq("role", "fsw"))
	if err != nil {
		t.Fatal(err)
	}
	touched := []string{tors[len(tors)-1].String("name")} // ids ascend: the newest
	for _, f := range fsws {
		if name := f.String("name"); strings.HasSuffix(name, ".dc1-c1") {
			touched = append(touched, name)
		}
	}
	if len(touched) != 17 {
		t.Fatalf("the rack change touches %v, want a TOR and 16 fsws", touched)
	}
	if err := r.SyncFleet(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GenerateAndDeploy(touched, deploy.Options{}, "e1"); err != nil {
		t.Fatal(err)
	}
	runDerivedJobs(t, r, touched)

	want := int64(0)
	evaluated := append(slices.Clone(touched), silent)
	for _, rule := range r.Alarms.Rules() {
		if slices.Contains(evaluated, rule.Device) {
			want++
		}
	}
	counter := r.Telemetry.Counter("robotron_alarm_rules_evaluated_total")
	before := counter.Value()
	firing := r.Alarms.Evaluate()
	if got := counter.Value() - before; got != want {
		t.Errorf("the pass evaluated %d rules, want the %d installed on the TOR, its cluster's fsws and %s", got, want, silent)
	}
	r.Alarms.ReplaceRules(r.Alarms.Rules())
	before = counter.Value()
	if full := r.Alarms.Evaluate(); !reflect.DeepEqual(firing, full) {
		t.Errorf("the pass fired\n%+v\nwant what a pass over every rule fires\n%+v", firing, full)
	}
	if got := counter.Value() - before; got != int64(len(r.Alarms.Rules())) {
		t.Errorf("the forced full pass evaluated %d rules, want all %d", got, len(r.Alarms.Rules()))
	}
}
