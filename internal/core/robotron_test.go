package core

import (
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/audit"
	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/netsim"
)

func testCtx(domain string) design.ChangeContext {
	return design.ChangeContext{
		EmployeeID: "e1", TicketID: "T-1", Description: "test",
		Domain: domain, NowUnix: 1_700_000_000,
	}
}

func newRobotron(t testing.TB) *Robotron {
	t.Helper()
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// provisionPOP runs the full life cycle for a 4-post POP and installs
// monitoring.
func provisionPOP(t testing.TB, r *Robotron) ProvisionResult {
	t.Helper()
	if _, err := r.Designer.EnsureSite("pop1", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	res, err := r.ProvisionCluster(testCtx("pop"), "pop1", "pop1-c1", design.POPGen1())
	if err != nil {
		t.Fatal(err)
	}
	installAuditJobs(t, r)
	return res
}

// installAuditJobs adds the periodic jobs the audit reads and the
// intent-derived set does not carry: LLDP adjacency and OS version. They
// target the whole fleet as of each execution, so clusters provisioned
// later are covered.
func installAuditJobs(t testing.TB, r *Robotron) {
	t.Helper()
	for _, j := range []monitor.JobSpec{
		{Name: "cli-lldp", Period: 10 * time.Minute, Engine: monitor.EngineCLI,
			Data: monitor.DataLLDP, AllDevices: true, Backends: []string{"fbnet-derived"}},
		{Name: "thrift-version", Period: 30 * time.Minute, Engine: monitor.EngineThrift,
			Data: monitor.DataVersion, AllDevices: true, Backends: []string{"fbnet-derived"}},
	} {
		if err := r.JobManager.AddJob(j); err != nil {
			t.Fatal(err)
		}
	}
}

// circuitAEnd names a circuit's a-side (device, interface) from the
// circuit_id convention "aDev:aIf--zDev:zIf".
func circuitAEnd(c fbnet.Object) (dev, iface string) {
	a, _, _ := strings.Cut(c.String("circuit_id"), "--")
	dev, iface, _ = strings.Cut(a, ":")
	return dev, iface
}

// TestFullLifeCycle drives design → generation → deployment → monitoring
// → audit end to end and expects a clean network.
func TestFullLifeCycle(t *testing.T) {
	r := newRobotron(t)
	res := provisionPOP(t, r)
	if len(res.Devices) != 6 {
		t.Fatalf("devices = %v", res.Devices)
	}
	// The simulated network converged: all links up, BGP established.
	for _, name := range res.Devices {
		d, _ := r.Fleet.Device(name)
		ifaces, err := d.ShowInterfaces()
		if err != nil {
			t.Fatal(err)
		}
		for _, ifc := range ifaces {
			if strings.HasPrefix(ifc.Name, "et") && ifc.OperStatus != "up" {
				t.Errorf("%s %s is %s after provisioning", name, ifc.Name, ifc.OperStatus)
			}
		}
		peers, _ := d.ShowBGPSummary()
		if len(peers) == 0 {
			t.Errorf("%s has no BGP peers", name)
		}
		for _, p := range peers {
			if p.State != "Established" {
				t.Errorf("%s peer %s is %s", name, p.PeerAddr, p.State)
			}
		}
	}
	// One monitoring cycle populates Derived models; the audit is clean.
	if err := r.CollectOnce(); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.Store.Count("DerivedDevice"); n != 6 {
		t.Errorf("DerivedDevice = %d", n)
	}
	if n, _ := r.Store.Count("DerivedCircuit"); n != 16 {
		t.Errorf("DerivedCircuit = %d, want 16", n)
	}
	rep, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("fresh network has anomalies: %v", rep.Anomalies[:min(5, len(rep.Anomalies))])
	}
}

// TestFiberCutDetectedByAudit cuts a cable and expects the audit to flag
// the missing circuit and down interfaces.
func TestFiberCutDetectedByAudit(t *testing.T) {
	r := newRobotron(t)
	res := provisionPOP(t, r)
	_ = res
	// Cut one circuit's fiber.
	circuits, _ := r.Store.Find("Circuit", fbnet.Eq("status", "production"))
	if len(circuits) == 0 {
		t.Fatal("no circuits")
	}
	aDev, aIf := circuitAEnd(circuits[0])
	if !r.Fleet.Uncable(aDev, aIf) {
		t.Fatal("uncable failed")
	}
	if err := r.CollectOnce(); err != nil {
		t.Fatal(err)
	}
	rep, _ := r.Audit()
	byKind := rep.ByKind()
	if byKind[audit.CircuitMissing] != 1 {
		t.Errorf("circuit-missing = %d, want 1 (%v)", byKind[audit.CircuitMissing], byKind)
	}
	if byKind[audit.InterfaceDown] != 2 {
		t.Errorf("interface-down = %d, want 2", byKind[audit.InterfaceDown])
	}
}

// TestDriftDetectionAndRestore covers the §8 automation-fallback story:
// manual change → config monitoring alert → restore to golden, here by
// redeploying the generated config (the reconciler's remediation does the
// same when it is enabled).
func TestDriftDetectionAndRestore(t *testing.T) {
	r := newRobotron(t)
	res := provisionPOP(t, r)
	victim := res.Devices[0]
	d, _ := r.Fleet.Device(victim)
	if err := d.ApplyManualChange("username backdoor secret"); err != nil {
		t.Fatal(err)
	}
	// The syslog-triggered check already fired through the classifier.
	devs := r.ConfigMon.Deviations()
	if len(devs) != 1 || devs[0].Device != victim {
		t.Fatalf("deviations = %+v", devs)
	}
	if !strings.Contains(devs[0].Diff, "+ username backdoor secret") {
		t.Errorf("diff = %q", devs[0].Diff)
	}
	if _, err := r.GenerateAndDeploy([]string{victim}, deploy.Options{}, "restore"); err != nil {
		t.Fatal(err)
	}
	cfg, _ := d.RunningConfig()
	if strings.Contains(cfg, "backdoor") {
		t.Error("manual change survived restore")
	}
	obj, err := r.Store.FindOne("DerivedConfig", fbnet.Eq("device_name", victim))
	if err != nil {
		t.Fatal(err)
	}
	if !obj.Bool("conforms") {
		t.Error("conformance not restored")
	}
}

// TestIncrementalUpdateFlow exercises GenerateAndDeploy after a design
// change: growing a bundle regenerates both ends' configs.
func TestIncrementalUpdateFlow(t *testing.T) {
	r := newRobotron(t)
	r.Designer.EnsureSite("bb-site", "backbone", "nam")
	if _, err := r.Designer.AddBackboneRouter(testCtx("backbone"), "bb1", "bb-site", "Backbone_Vendor2", "bb"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.AddBackboneRouter(testCtx("backbone"), "bb2", "bb-site", "Backbone_Vendor2", "bb"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb2", 2); err != nil {
		t.Fatal(err)
	}
	if err := r.SyncFleet(); err != nil {
		t.Fatal(err)
	}
	// Bring the routers up with their initial configs.
	rep, err := r.GenerateAndDeploy([]string{"bb1", "bb2"}, deploy.Options{}, "e1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed()) != 0 {
		t.Fatalf("failures: %+v", rep.Failed())
	}
	baselineCfg, _ := func() (string, error) {
		d, _ := r.Fleet.Device("bb1")
		return d.RunningConfig()
	}()
	// Design change: grow the bundle; regenerate and deploy atomically.
	if _, err := r.Designer.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb2", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.SyncFleet(); err != nil {
		t.Fatal(err)
	}
	rep, err = r.GenerateAndDeploy([]string{"bb1", "bb2"}, deploy.Options{Atomic: true}, "e1")
	if err != nil {
		t.Fatal(err)
	}
	d, _ := r.Fleet.Device("bb1")
	cfg, _ := d.RunningConfig()
	if cfg == baselineCfg {
		t.Error("config unchanged after bundle growth")
	}
	// Golden was updated.
	golden, err := r.Generator.Golden("bb1")
	if err != nil || golden != cfg {
		t.Errorf("golden not updated: %v", err)
	}
}

// TestStaleConfigScenario reproduces the §8 "Stale Configs" incident
// shape: a config generated before a later design change is deployed and
// config monitoring flags the device as deviating from (current) golden
// intent... here we assert the deployment-then-regeneration mismatch is
// at least visible via dryrun.
func TestStaleConfigScenario(t *testing.T) {
	r := newRobotron(t)
	r.Designer.EnsureSite("bb-site", "backbone", "nam")
	r.Designer.AddBackboneRouter(testCtx("backbone"), "bb1", "bb-site", "Backbone_Vendor2", "bb")
	r.Designer.AddBackboneRouter(testCtx("backbone"), "bb2", "bb-site", "Backbone_Vendor2", "bb")
	r.SyncFleet()
	if _, err := r.GenerateAndDeploy([]string{"bb1", "bb2"}, deploy.Options{}, "engineerA"); err != nil {
		t.Fatal(err)
	}
	// Engineer A generates a config...
	stale, err := r.Generator.GenerateDevice("bb1")
	if err != nil {
		t.Fatal(err)
	}
	// ...then engineer B lands a design change (a third mesh member).
	if _, err := r.Designer.AddBackboneRouter(testCtx("backbone"), "bb3", "bb-site", "Backbone_Vendor2", "bb"); err != nil {
		t.Fatal(err)
	}
	fresh, err := r.Generator.GenerateDevice("bb1")
	if err != nil {
		t.Fatal(err)
	}
	if stale == fresh {
		t.Fatal("design change did not affect bb1's config (mesh dependency broken)")
	}
	// Engineer A, unaware, pushes the stale config a week later. It
	// commits cleanly — the device can't know it's stale.
	d, _ := r.Fleet.Device("bb1")
	if err := d.LoadConfig(stale); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	// But config monitoring compares against golden built from *current*
	// intent and flags the deviation — the §8 mitigation.
	if _, err := r.Generator.CommitGolden("bb1", fresh, "robotron", "regenerated from current design"); err != nil {
		t.Fatal(err)
	}
	dev, err := r.ConfigMon.CheckDevice("bb1")
	if err != nil {
		t.Fatal(err)
	}
	if dev == nil {
		t.Fatal("stale config not detected by config monitoring")
	}
	if !strings.Contains(dev.Diff, "neighbor") {
		t.Errorf("deviation diff should show the missing mesh neighbor:\n%s", dev.Diff)
	}
}

// TestPhasedDeploymentWithHealthGates runs a POP-wide phased change with a
// metric gate.
func TestPhasedDeploymentWithHealthGates(t *testing.T) {
	r := newRobotron(t)
	res := provisionPOP(t, r)
	// Template change: bump MTU comment via template edit, then phase the
	// rollout 25% -> 100% by role.
	body, _ := r.Repo.GetHead("templates/vendor1/device.tmpl")
	body = strings.Replace(body, "logging host", "service sequence-numbers\nlogging host", 1)
	if _, err := r.Repo.Commit("templates/vendor1/device.tmpl", body, "e1", "add sequence numbers"); err != nil {
		t.Fatal(err)
	}
	var phases []string
	rep, err := r.GenerateAndDeploy(res.Devices, deploy.Options{
		Phases: []deploy.Phase{
			{Name: "canary", Percent: 50, Role: "pr"},
			{Name: "rest"},
		},
		Notify: func(format string, args ...any) { phases = append(phases, format) },
	}, "e1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed()) != 0 {
		t.Errorf("failures: %+v", rep.Failed())
	}
	// Vendor1 devices now carry the new line; vendor2 untouched content-wise.
	d, _ := r.Fleet.Device(res.Devices[0])
	for _, name := range res.Devices {
		dd, _ := r.Fleet.Device(name)
		cfg, _ := dd.RunningConfig()
		if dd.Vendor() == "vendor1" && !strings.Contains(cfg, "service sequence-numbers") {
			t.Errorf("%s missing template change", name)
		}
	}
	_ = d
}

// TestMonitoringPipelineRealTime runs the periodic job manager briefly.
func TestMonitoringPipelineRealTime(t *testing.T) {
	r := newRobotron(t)
	provisionPOP(t, r)
	// Re-install jobs with tiny periods for the real-time path.
	jm := monitor.NewJobManager(monitor.FleetDeviceResolver(r.Fleet))
	jm.RegisterBackend(monitor.NewTimeseriesBackend())
	jm.AddJob(monitor.JobSpec{Name: "fast", Period: 5 * time.Millisecond,
		Engine: monitor.EngineSNMP, Data: monitor.DataCounters,
		Devices: monitor.SortedDeviceNames(r.Fleet), Backends: []string{"timeseries"}})
	jm.Start()
	deadline := time.Now().Add(2 * time.Second)
	for jm.Stats().Counts()[monitor.EngineSNMP] < 12 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	jm.Stop()
	if jm.Stats().Counts()[monitor.EngineSNMP] < 12 {
		t.Errorf("snmp events = %d", jm.Stats().Counts()[monitor.EngineSNMP])
	}
}

// TestSyncFleetDetectsMiscabling: if the physical world contradicts the
// design, SyncFleet refuses.
func TestSyncFleetDetectsMiscabling(t *testing.T) {
	r := newRobotron(t)
	r.Designer.EnsureSite("bb-site", "backbone", "nam")
	r.Designer.AddBackboneRouter(testCtx("backbone"), "bb1", "bb-site", "Backbone_Vendor2", "bb")
	r.Designer.AddBackboneRouter(testCtx("backbone"), "bb2", "bb-site", "Backbone_Vendor2", "bb")
	r.Designer.AddBackboneRouter(testCtx("backbone"), "bb3", "bb-site", "Backbone_Vendor2", "bb")
	if _, err := r.Designer.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb2", 1); err != nil {
		t.Fatal(err)
	}
	// A tech cables bb1's port to bb3 instead.
	cir, _ := r.Store.FindOne("Circuit", nil)
	aDev, aIf := circuitAEnd(cir)
	// Pre-create the devices so we can miswire before SyncFleet.
	if err := r.SyncFleet(); err != nil {
		t.Fatal(err)
	}
	r.Fleet.Uncable(aDev, aIf)
	if err := r.Fleet.Wire(aDev, aIf, "bb3", "et-1/0/9"); err != nil {
		t.Fatal(err)
	}
	err := r.SyncFleet()
	if err == nil || !strings.Contains(err.Error(), "cabled to") {
		t.Errorf("miscabling not detected: %v", err)
	}
}

// TestShardBudgetChecksAllocateNothing: the reconciler's budget checks
// read the fleet's size and a per-site count memoized until that size
// changes — no sorted copy of the fleet per check.
func TestShardBudgetChecksAllocateNothing(t *testing.T) {
	r := newRobotron(t)
	provisionPOP(t, r)
	sizes := &shardSizes{fleet: r.Fleet}
	if got := sizes.size("pop1"); got != 6 {
		t.Fatalf("pop1 shard has %d devices, want 6", got)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = sizes.size("pop1"), r.Fleet.Len() }); n != 0 {
		t.Errorf("a budget check allocates %v times, want 0", n)
	}
	if _, err := r.Fleet.AddDevice("tor9.pop1-c1", netsim.Vendor1, "tor", "pop1"); err != nil {
		t.Fatal(err)
	}
	if got := sizes.size("pop1"); got != 7 {
		t.Errorf("after the fleet grew, the pop1 shard has %d devices, want 7", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
