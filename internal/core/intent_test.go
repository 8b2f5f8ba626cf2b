package core

import (
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/verify"
)

// The resident model's view (verify.Intent) is the only way core resolves
// Desired topology; these tests pin what that buys and what it must not
// cost: no store reads on a warm instance, one rebuild however many
// readers there are, and an error — never a stale answer — when the store
// is down.

// plannedQueries sums robotron_fbnet_queries_planned_total over its
// strategy label, the way bench/ reads fbnet.queries_per_op.
func plannedQueries(r *Robotron) int64 {
	var n int64
	for _, strategy := range []string{"indexed", "scan"} {
		n += r.Telemetry.Counter("robotron_fbnet_queries_planned_total", telemetry.L("strategy", strategy)...).Value()
	}
	return n
}

// newTwoSites provisions a POP and a two-rack DC cluster.
func newTwoSites(t *testing.T) *Robotron {
	t.Helper()
	r := newRobotron(t)
	for _, s := range []struct {
		site, kind, cluster string
		tpl                 design.TopologyTemplate
	}{
		{"pop1", "pop", "pop1-c1", design.POPGen1()},
		{"dc1", "dc", "dc1-c1", design.DCGen3(2)},
	} {
		if _, err := r.Designer.EnsureSite(s.site, s.kind, "apac"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ProvisionCluster(testCtx(s.kind), s.site, s.cluster, s.tpl); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestDeriveMonitoringAndSyncFleetPlanNoQueries: on a warm instance a rack
// change is materialized into the fleet and into the monitoring config
// from the binlog delta alone — neither call plans a single FBNet query —
// and each call visits what the rack touched: the new TOR and the fsws it
// uplinks to, and the uplinks. Repeated, they visit nothing.
func TestDeriveMonitoringAndSyncFleetPlanNoQueries(t *testing.T) {
	r := newTwoSites(t)
	// Provisioning ends by promoting the cluster's circuits, after its own
	// sync: the plant catches up on their status first.
	if err := r.SyncFleet(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.AddRack(testCtx("dc"), "dc1-c1", "TOR_Vendor1", "fsw", 4, true, false); err != nil {
		t.Fatal(err)
	}
	tors, err := r.Store.Find("Device", fbnet.Eq("role", "tor"))
	if err != nil || len(tors) != 3 {
		t.Fatalf("tors after AddRack = %d (%v), want 3", len(tors), err)
	}
	tor := tors[2].String("name") // ids ascend: the newest
	if _, racked := r.Fleet.Device(tor); racked {
		t.Fatalf("%s in the fleet before SyncFleet", tor)
	}
	rulesBefore := len(r.Alarms.Rules())
	counter := func(name string, labels ...telemetry.Label) func() int64 {
		c := r.Telemetry.Counter(name, labels...)
		before := c.Value()
		return func() int64 { return c.Value() - before }
	}
	derived := counter("robotron_monitor_derived_devices_total")
	visitedDevices := counter("robotron_fleet_sync_visited_total", telemetry.L("kind", "device")...)
	visitedCircuits := counter("robotron_fleet_sync_visited_total", telemetry.L("kind", "circuit")...)

	before := plannedQueries(r)
	if err := r.SyncFleet(); err != nil {
		t.Fatal(err)
	}
	if err := r.DeriveMonitoring(); err != nil {
		t.Fatal(err)
	}
	if n := plannedQueries(r) - before; n != 0 {
		t.Errorf("SyncFleet + DeriveMonitoring planned %d FBNet queries on a warm instance, want 0", n)
	}

	// And the answer is current: the new TOR is racked, cabled on every
	// uplink, polled and alarmed on.
	if _, ok := r.Fleet.Device(tor); !ok {
		t.Fatalf("%s not in the fleet after SyncFleet", tor)
	}
	var circuits []verify.Circuit
	if err := r.Verifier.Intent(func(in verify.Intent) error {
		circuits = in.Circuits()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	uplinks, cabled := 0, 0
	fsws := map[string]bool{}
	for _, c := range circuits {
		if c.ADevice == tor || c.ZDevice == tor {
			uplinks++
			fsws[c.ADevice], fsws[c.ZDevice] = true, true
			if _, _, ok := r.Fleet.CableOf(c.ADevice, c.AInterface); ok {
				cabled++
			}
		}
	}
	delete(fsws, tor)
	if uplinks == 0 || cabled != uplinks || len(fsws) != 4 {
		t.Errorf("%s has %d of %d uplinks cabled, to %d fsws; want all, to 4", tor, cabled, uplinks, len(fsws))
	}
	if got := derived(); got != 5 {
		t.Errorf("DeriveMonitoring re-derived %d devices, want the TOR and its 4 fsws", got)
	}
	if d, c := visitedDevices(), visitedCircuits(); d != 5 || c != int64(uplinks) {
		t.Errorf("SyncFleet visited %d devices and %d circuits, want the TOR and its 4 fsws, and the %d uplinks", d, c, uplinks)
	}
	if err := r.SyncFleet(); err != nil {
		t.Fatal(err)
	}
	if err := r.DeriveMonitoring(); err != nil {
		t.Fatal(err)
	}
	if d, c, n := visitedDevices(), visitedCircuits(), derived(); d != 5 || c != int64(uplinks) || n != 5 {
		t.Errorf("repeated with nothing changed, the calls visited %d devices, %d circuits and re-derived %d more", d-5, c-int64(uplinks), n-5)
	}
	jobs := 0
	for _, j := range r.JobManager.Jobs() {
		if strings.HasSuffix(j.Name, "-"+tor) {
			jobs++
		}
	}
	if jobs != 3 {
		t.Errorf("%s has %d derived jobs, want counters + interfaces + bgp", tor, jobs)
	}
	if got := len(r.Alarms.Rules()); got <= rulesBefore {
		t.Errorf("rules %d -> %d after adding a rack", rulesBefore, got)
	}
}

// TestVerifyGateIntentCountsSyncsOnce: the gate and the derivations share
// one model, so a fresh instance rebuilds once whoever reads first, and the
// delta counter is the binlog read exactly once, whoever paid for it.
func TestVerifyGateIntentCountsSyncsOnce(t *testing.T) {
	r := newRobotron(t)
	if _, err := r.Designer.EnsureSite("dc1", "dc", "apac"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.BuildCluster(testCtx("dc"), "dc1", "dc1-c1", design.DCGen3(1)); err != nil {
		t.Fatal(err)
	}
	db := r.Store.DB()
	loadedAt := db.Seq()
	if err := r.SyncFleet(); err != nil { // first reader: rebuilds
		t.Fatal(err)
	}
	if _, err := r.Designer.AddRack(testCtx("dc"), "dc1-c1", "TOR_Vendor1", "fsw", 4, true, false); err != nil {
		t.Fatal(err)
	}
	if err := r.SyncFleet(); err != nil { // pays for the rack's delta
		t.Fatal(err)
	}
	synced := db.Seq()
	res, err := r.Verifier.Check(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilt || res.DeltaEntries != 0 || db.Seq() != synced {
		t.Errorf("Check after SyncFleet: rebuilt=%v delta=%d, want a run that paid for nothing", res.Rebuilt, res.DeltaEntries)
	}
	if res.Rechecked == 0 {
		t.Error("Check re-evaluated nothing: the marks SyncFleet's sync left were lost")
	}
	if got := r.Telemetry.Counter("robotron_verify_model_rebuilds_total").Value(); got != 1 {
		t.Errorf("model rebuilds = %d, want 1", got)
	}
	want := int64(synced - loadedAt)
	if got := r.Telemetry.Counter("robotron_verify_delta_entries_total").Value(); got != want || want == 0 {
		t.Errorf("delta entries = %d, want the %d binlog entries since the model was loaded", got, want)
	}
}

// TestVerifyGateIntentFailsClosedOnDownStore: with the store down, a warm
// model could answer from memory; it must not.
func TestVerifyGateIntentFailsClosedOnDownStore(t *testing.T) {
	r := newTwoSites(t)
	r.Store.DB().SetDown(true)
	defer r.Store.DB().SetDown(false)
	if err := r.SyncFleet(); err == nil {
		t.Error("SyncFleet answered with the store down")
	}
	if err := r.DeriveMonitoring(); err == nil {
		t.Error("DeriveMonitoring answered with the store down")
	}
	if _, err := r.ApplyRecabling(); err == nil {
		t.Error("ApplyRecabling answered with the store down")
	}
}
