package design

import (
	"fmt"
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/verify"
)

func testCtx(domain string) ChangeContext {
	return ChangeContext{
		EmployeeID: "e12345", TicketID: "T-100",
		Description: "test change", Domain: domain, NowUnix: 1_700_000_000,
	}
}

func newTestDesigner(t testing.TB) *Designer {
	t.Helper()
	db := relstore.NewDB("master", nil)
	store, err := fbnet.Open(db, fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDesigner(store, DefaultPools())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnsureStandardHardware(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTemplateValidation(t *testing.T) {
	good := POPGen1()
	if err := good.Validate(); err != nil {
		t.Errorf("POPGen1 should validate: %v", err)
	}
	for _, tpl := range []TopologyTemplate{POPGen2(), DCGen1(4), DCGen2(4), DCGen3(4)} {
		if err := tpl.Validate(); err != nil {
			t.Errorf("%s should validate: %v", tpl.Name, err)
		}
	}
	cases := []struct {
		name   string
		mutate func(*TopologyTemplate)
	}{
		{"empty name", func(tpl *TopologyTemplate) { tpl.Name = "" }},
		{"zero count", func(tpl *TopologyTemplate) { tpl.Devices[0].Count = 0 }},
		{"missing profile", func(tpl *TopologyTemplate) { tpl.Devices[0].HwProfile = "" }},
		{"missing prefix", func(tpl *TopologyTemplate) { tpl.Devices[0].NamePrefix = "" }},
		{"link to missing role", func(tpl *TopologyTemplate) { tpl.Links[0].ZRole = "ghost" }},
		{"self link", func(tpl *TopologyTemplate) { tpl.Links[0].ZRole = tpl.Links[0].ARole }},
		{"zero circuits", func(tpl *TopologyTemplate) { tpl.Links[0].CircuitsPerLink = 0 }},
		{"no address family", func(tpl *TopologyTemplate) { tpl.Addressing = AddressingSpec{} }},
		{"duplicate role", func(tpl *TopologyTemplate) {
			tpl.Devices = append(tpl.Devices, tpl.Devices[0])
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tpl := POPGen1()
			c.mutate(&tpl)
			if err := tpl.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

// TestBuildPOPGen1Creates94Objects reproduces the paper's §5.1.1 claim:
// materializing the 4-post POP template creates 94 objects of the Fig. 7
// types (devices, circuits, physical and aggregated interfaces, prefixes,
// BGP sessions).
func TestBuildPOPGen1Creates94Objects(t *testing.T) {
	d := newTestDesigner(t)
	if _, err := d.EnsureSite("pop1", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	res, err := d.BuildCluster(testCtx("pop"), "pop1", "pop1-c1", POPGen1())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ref := range res.Stats.Created {
		counts[ref.Model]++
	}
	fig7 := counts["Device"] + counts["Circuit"] + counts["PhysicalInterface"] +
		counts["AggregatedInterface"] + counts["V6Prefix"] + counts["BgpV6Session"]
	if fig7 != 94 {
		t.Errorf("Fig. 7 object count = %d (%v), want 94", fig7, counts)
	}
	if counts["Device"] != 6 || counts["Circuit"] != 16 || counts["PhysicalInterface"] != 32 ||
		counts["AggregatedInterface"] != 16 || counts["V6Prefix"] != 16 || counts["BgpV6Session"] != 8 {
		t.Errorf("per-type counts = %v", counts)
	}
	if len(res.DeviceNames) != 6 {
		t.Errorf("device names = %v", res.DeviceNames)
	}
}

func TestBuildClusterRecordsDesignChange(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("pop1", "pop", "apac")
	res, err := d.BuildCluster(testCtx("pop"), "pop1", "pop1-c1", POPGen1())
	if err != nil {
		t.Fatal(err)
	}
	change, err := d.Store().GetByID("DesignChange", res.ChangeID)
	if err != nil {
		t.Fatal(err)
	}
	if change.String("employee_id") != "e12345" || change.String("ticket_id") != "T-100" {
		t.Errorf("change attribution = %+v", change)
	}
	if change.Int("num_created") != int64(len(res.Stats.Created)) {
		t.Errorf("num_created = %d, stats = %d", change.Int("num_created"), len(res.Stats.Created))
	}
	if change.Int("num_created") < 94 {
		t.Errorf("num_created = %d, want >= 94", change.Int("num_created"))
	}
}

func TestBuildClusterRequiresAttribution(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("pop1", "pop", "apac")
	_, err := d.BuildCluster(ChangeContext{Domain: "pop"}, "pop1", "c1", POPGen1())
	if err == nil || !strings.Contains(err.Error(), "employee ID") {
		t.Errorf("missing attribution should fail, got %v", err)
	}
	_, err = d.BuildCluster(ChangeContext{EmployeeID: "e1", TicketID: "T1", Domain: "bogus"}, "pop1", "c1", POPGen1())
	if err == nil {
		t.Error("bad domain should fail")
	}
}

func TestBuildClusterValidDesign(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("pop1", "pop", "apac")
	if _, err := d.BuildCluster(testCtx("pop"), "pop1", "pop1-c1", POPGen1()); err != nil {
		t.Fatal(err)
	}
	if violations := gateViolations(t, d.Store()); len(violations) != 0 {
		t.Errorf("fresh cluster has violations: %v", violations)
	}
}

func TestBuildClusterDuplicateRejected(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("pop1", "pop", "apac")
	if _, err := d.BuildCluster(testCtx("pop"), "pop1", "c1", POPGen1()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BuildCluster(testCtx("pop"), "pop1", "c1", POPGen1()); err == nil {
		t.Error("duplicate cluster should fail")
	}
}

func TestBuildClusterRollbackFreesPools(t *testing.T) {
	d := newTestDesigner(t)
	// No site created: the build must fail and leak nothing.
	used := d.pools.V6P2P.Used()
	if _, err := d.BuildCluster(testCtx("pop"), "ghost-site", "c1", POPGen1()); err == nil {
		t.Fatal("build against missing site should fail")
	}
	if d.pools.V6P2P.Used() != used {
		t.Errorf("pool leaked %d allocations on rollback", d.pools.V6P2P.Used()-used)
	}
	if n, _ := d.Store().Count("Device"); n != 0 {
		t.Errorf("%d devices exist after failed build", n)
	}
}

func TestBuildDCGen3WithRacks(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("dc1", "dc", "nam")
	res, err := d.BuildCluster(testCtx("dc"), "dc1", "dc1-c1", DCGen3(8))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ref := range res.Stats.Created {
		counts[ref.Model]++
	}
	// 4 dr + 4 ssw + 16 fsw + 8 tor = 32 devices, 8 racks.
	if counts["Device"] != 32 {
		t.Errorf("devices = %d, want 32", counts["Device"])
	}
	if counts["Rack"] != 8 {
		t.Errorf("racks = %d, want 8", counts["Rack"])
	}
	// v6-only: no V4Prefix objects.
	if counts["V4Prefix"] != 0 {
		t.Errorf("v6-only cluster created %d V4Prefix objects", counts["V4Prefix"])
	}
	if counts["V6Prefix"] == 0 || counts["BgpV6Session"] == 0 {
		t.Errorf("missing v6 fabric objects: %v", counts)
	}
	if violations := gateViolations(t, d.Store()); len(violations) != 0 {
		t.Errorf("violations: %v", violations[:min(len(violations), 5)])
	}
}

func TestDecommissionClusterFreesEverything(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("dc1", "dc", "nam")
	if _, err := d.BuildCluster(testCtx("dc"), "dc1", "dc1-c1", DCGen2(2)); err != nil {
		t.Fatal(err)
	}
	devBefore, _ := d.Store().Count("Device")
	if devBefore == 0 {
		t.Fatal("no devices after build")
	}
	poolUsedBefore := d.pools.V6P2P.Used()
	res, err := d.DecommissionCluster(testCtx("dc"), "dc1-c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Deleted) == 0 {
		t.Error("decommission recorded no deletions")
	}
	for _, model := range []string{"Device", "Circuit", "LinkGroup", "V6Prefix", "BgpV6Session", "Rack"} {
		if n, _ := d.Store().Count(model); n != 0 {
			t.Errorf("%d %s objects remain after decommission", n, model)
		}
	}
	if d.pools.V6P2P.Used() >= poolUsedBefore {
		t.Errorf("p2p pool not released: %d -> %d", poolUsedBefore, d.pools.V6P2P.Used())
	}
}

func TestAddBackboneRoutersBuildsMesh(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("bb-site1", "backbone", "nam")
	d.EnsureSite("bb-site2", "backbone", "emea")
	names := []string{"bb1.site1", "bb2.site1", "bb3.site2"}
	for i, n := range names {
		site := "bb-site1"
		if i == 2 {
			site = "bb-site2"
		}
		res, err := d.AddBackboneRouter(testCtx("backbone"), n, site, "Backbone_Vendor2", "bb")
		if err != nil {
			t.Fatal(err)
		}
		// The i-th router joins a mesh of i members: 1 device + i sessions.
		counts := map[string]int{}
		for _, ref := range res.Stats.Created {
			counts[ref.Model]++
		}
		if counts["Device"] != 1 || counts["BgpV6Session"] != i {
			t.Errorf("router %d: counts = %v, want 1 device, %d sessions", i, counts, i)
		}
	}
	sessions, _ := d.Store().Find("BgpV6Session", fbnet.Eq("session_type", "ibgp"))
	if len(sessions) != 3 { // C(3,2)
		t.Errorf("mesh sessions = %d, want 3", len(sessions))
	}
	if violations := gateViolations(t, d.Store()); len(violations) != 0 {
		t.Errorf("violations: %v", violations)
	}
}

func TestAddEdgeRoutersBuildTunnels(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("bb-site1", "backbone", "nam")
	d.AddBackboneRouter(testCtx("backbone"), "pr1.x", "bb-site1", "Backbone_Vendor2", "pr")
	d.AddBackboneRouter(testCtx("backbone"), "dr1.x", "bb-site1", "Backbone_Vendor2", "dr")
	res, err := d.AddBackboneRouter(testCtx("backbone"), "dr2.x", "bb-site1", "Backbone_Vendor2", "dr")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ref := range res.Stats.Created {
		counts[ref.Model]++
	}
	// Joins 2 existing edges: 4 unidirectional tunnels.
	if counts["MplsTunnel"] != 4 {
		t.Errorf("tunnels = %d, want 4 (counts %v)", counts["MplsTunnel"], counts)
	}
	tunnels, _ := d.Store().Count("MplsTunnel")
	if tunnels != 6 { // 3 edges: 3 pairs x 2 directions
		t.Errorf("total tunnels = %d, want 6", tunnels)
	}
}

func TestRemoveBackboneRouterCleansMesh(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("bb-site1", "backbone", "nam")
	for _, n := range []string{"bb1", "bb2", "bb3"} {
		if _, err := d.AddBackboneRouter(testCtx("backbone"), n, "bb-site1", "Backbone_Vendor2", "bb"); err != nil {
			t.Fatal(err)
		}
	}
	res, err := d.RemoveBackboneRouter(testCtx("backbone"), "bb2")
	if err != nil {
		t.Fatal(err)
	}
	// bb2's removal deletes its sessions toward bb1/bb3 AND bb3's session
	// toward bb2 (remote_device cascade) — "changing the configs on *all*
	// other routers" resolved automatically.
	sessions, _ := d.Store().Find("BgpV6Session", nil)
	if len(sessions) != 1 {
		t.Errorf("sessions after removal = %d, want 1 (bb1-bb3... bb1<->bb3)", len(sessions))
	}
	if len(res.Stats.Deleted) < 3 { // device + >= 2 sessions
		t.Errorf("deleted = %d objects, want >= 3", len(res.Stats.Deleted))
	}
	if violations := gateViolations(t, d.Store()); len(violations) != 0 {
		t.Errorf("violations after removal: %v", violations)
	}
	if _, err := d.RemoveBackboneRouter(testCtx("backbone"), "bb2"); err == nil {
		t.Error("removing a removed router should fail")
	}
}

func TestAddBackboneCircuitNewAndGrow(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("bb-site1", "backbone", "nam")
	d.AddBackboneRouter(testCtx("backbone"), "bb1", "bb-site1", "Backbone_Vendor2", "bb")
	d.AddBackboneRouter(testCtx("backbone"), "bb2", "bb-site1", "Backbone_Vendor2", "bb")
	res, err := d.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb2", 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ref := range res.Stats.Created {
		counts[ref.Model]++
	}
	if counts["Circuit"] != 2 || counts["LinkGroup"] != 1 || counts["AggregatedInterface"] != 2 {
		t.Errorf("new bundle counts = %v", counts)
	}
	// Growing the bundle reuses the link group and aggregates.
	res2, err := d.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb2", 1)
	if err != nil {
		t.Fatal(err)
	}
	counts2 := map[string]int{}
	for _, ref := range res2.Stats.Created {
		counts2[ref.Model]++
	}
	if counts2["Circuit"] != 1 || counts2["LinkGroup"] != 0 || counts2["AggregatedInterface"] != 0 {
		t.Errorf("bundle growth counts = %v", counts2)
	}
	lg, err := d.Store().FindOne("LinkGroup", fbnet.Contains("name", "bb1"))
	if err != nil {
		t.Fatal(err)
	}
	if lg.Int("capacity_mbps") != 3*100000 {
		t.Errorf("bundle capacity = %d, want 300000", lg.Int("capacity_mbps"))
	}
	// Median-style accounting: the incremental change touched ~20 objects,
	// far fewer than a cluster build (Fig. 15).
	if res2.Stats.Total() > 30 {
		t.Errorf("incremental change touched %d objects", res2.Stats.Total())
	}
	if _, err := d.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb1", 1); err == nil {
		t.Error("self-circuit should fail")
	}
	if _, err := d.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb2", 0); err == nil {
		t.Error("zero circuits should fail")
	}
}

func TestMigrateCircuit(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("bb-site1", "backbone", "nam")
	for _, n := range []string{"bb1", "bb2", "bb3"} {
		d.AddBackboneRouter(testCtx("backbone"), n, "bb-site1", "Backbone_Vendor2", "bb")
	}
	if _, err := d.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb2", 1); err != nil {
		t.Fatal(err)
	}
	cir, err := d.Store().FindOne("Circuit", nil)
	if err != nil {
		t.Fatal(err)
	}
	circuitID := cir.String("circuit_id")
	res, err := d.MigrateCircuit(testCtx("backbone"), circuitID, "bb3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Created) == 0 || len(res.Stats.Deleted) == 0 || len(res.Stats.Modified) == 0 {
		t.Errorf("migration stats = created %d, modified %d, deleted %d",
			len(res.Stats.Created), len(res.Stats.Modified), len(res.Stats.Deleted))
	}
	// The circuit now lands on bb3 and design rules still hold.
	cir2, err := d.Store().FindOne("Circuit", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cir2.String("circuit_id"), "bb3") {
		t.Errorf("circuit id after migration = %q", cir2.String("circuit_id"))
	}
	if violations := gateViolations(t, d.Store()); len(violations) != 0 {
		t.Errorf("violations after migration: %v", violations)
	}
	// bb2 no longer has interfaces.
	bb2Pifs, _ := d.Store().Find("PhysicalInterface", fbnet.Eq("linecard.device.name", "bb2"))
	if len(bb2Pifs) != 0 {
		t.Errorf("bb2 still has %d interfaces after migration", len(bb2Pifs))
	}
	// Migrating a multi-circuit bundle is refused.
	d.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb2", 2)
	cirs, _ := d.Store().Find("Circuit", fbnet.Contains("circuit_id", "bb2"))
	if len(cirs) == 0 {
		t.Fatal("no bb1-bb2 circuits")
	}
	if _, err := d.MigrateCircuit(testCtx("backbone"), cirs[0].String("circuit_id"), "bb3"); err == nil {
		t.Error("migrating out of a bundle should fail")
	}
}

func TestDeleteCircuitRetiresBundle(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("bb-site1", "backbone", "nam")
	d.AddBackboneRouter(testCtx("backbone"), "bb1", "bb-site1", "Backbone_Vendor2", "bb")
	d.AddBackboneRouter(testCtx("backbone"), "bb2", "bb-site1", "Backbone_Vendor2", "bb")
	d.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb2", 2)
	cirs, _ := d.Store().Find("Circuit", nil)
	if len(cirs) != 2 {
		t.Fatalf("circuits = %d", len(cirs))
	}
	poolUsed := d.pools.V6P2P.Used()
	// Delete the first: bundle survives.
	if _, err := d.DeleteCircuit(testCtx("backbone"), cirs[0].String("circuit_id")); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.Store().Count("LinkGroup"); n != 1 {
		t.Error("bundle should survive while a member remains")
	}
	if d.pools.V6P2P.Used() != poolUsed {
		t.Error("addresses freed while bundle still active")
	}
	// Delete the last: bundle, aggregates, prefixes all go; addresses freed.
	if _, err := d.DeleteCircuit(testCtx("backbone"), cirs[1].String("circuit_id")); err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"Circuit", "LinkGroup", "AggregatedInterface", "V6Prefix", "V4Prefix", "PhysicalInterface"} {
		if n, _ := d.Store().Count(model); n != 0 {
			t.Errorf("%d %s objects remain", n, model)
		}
	}
	if d.pools.V6P2P.Used() >= poolUsed {
		t.Errorf("p2p pool not released: %d -> %d", poolUsed, d.pools.V6P2P.Used())
	}
}

func TestNewDesignerReservesExistingPrefixes(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("pop1", "pop", "apac")
	if _, err := d.BuildCluster(testCtx("pop"), "pop1", "c1", POPGen1()); err != nil {
		t.Fatal(err)
	}
	// A second designer over the same store must not re-allocate used space.
	d2, err := NewDesigner(d.Store(), DefaultPools())
	if err != nil {
		t.Fatal(err)
	}
	existing, _ := d.Store().Find("V6Prefix", nil)
	pp, err := d2.pools.V6P2P.AllocateP2P("new")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range existing {
		if p.String("prefix") == pp.APrefix() || p.String("prefix") == pp.ZPrefix() {
			t.Fatalf("fresh designer re-allocated in-use prefix %s", pp.Subnet)
		}
	}
}

func TestValidateDesignCatchesViolations(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("pop1", "pop", "apac")
	store := d.Store()
	// Hand-craft a broken design: a circuit with only one endpoint and an
	// eBGP session within one AS from a device to itself.
	var circuit, session int64
	_, err := store.Mutate(func(m *fbnet.Mutation) error {
		site, _ := m.FindOne("Site", fbnet.Eq("name", "pop1"))
		hw, _ := m.FindOne("HardwareProfile", fbnet.Eq("name", "Router_Vendor1"))
		dev, err := m.Create("Device", map[string]any{
			"name": "lonely", "role": "pr", "site": site.ID, "hw_profile": hw.ID, "drain_state": "drained",
		})
		if err != nil {
			return err
		}
		lc, err := m.Create("Linecard", map[string]any{"slot": 1, "device": dev})
		if err != nil {
			return err
		}
		pif, err := m.Create("PhysicalInterface", map[string]any{"name": "et1/1", "speed_mbps": 10000, "linecard": lc})
		if err != nil {
			return err
		}
		if circuit, err = m.Create("Circuit", map[string]any{
			"circuit_id": "half", "a_interface": pif, "status": "provisioning",
		}); err != nil {
			return err
		}
		session, err = m.Create("BgpV6Session", map[string]any{
			"local_device": dev, "remote_device": dev,
			"local_as": 65001, "remote_as": 65001, "session_type": "ebgp",
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	violations := gateViolations(t, store)
	if len(on(violations, verify.OrphanRef, "Circuit", circuit)) == 0 {
		t.Errorf("one-ended circuit not flagged; violations: %v", violations)
	}
	if len(on(violations, verify.BGPSymmetry, "BgpV6Session", session)) == 0 {
		t.Errorf("self-peering session not flagged; violations: %v", violations)
	}
}

func TestBuildLargeClusterTensOfThousands(t *testing.T) {
	if testing.Short() {
		t.Skip("large build in -short mode")
	}
	d := newTestDesigner(t)
	d.EnsureSite("dc1", "dc", "nam")
	res, err := d.BuildCluster(testCtx("dc"), "dc1", "dc1-big", DCGen3(48))
	if err != nil {
		t.Fatal(err)
	}
	// "Robotron is able to translate these designs to tens of thousands of
	// FBNet objects within minutes" — a 48-rack Gen3 cluster materializes
	// thousands of objects in one transaction.
	if total := len(res.Stats.Created); total < 2000 {
		t.Errorf("large cluster created only %d objects", total)
	}
}

func BenchmarkMaterializePOPCluster(b *testing.B) {
	d := newTestDesigner(b)
	d.EnsureSite("pop1", "pop", "apac")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.BuildCluster(testCtx("pop"), "pop1", fmt.Sprintf("c%d", i), POPGen1()); err != nil {
			b.Fatal(err)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
