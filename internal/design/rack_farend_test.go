package design

import (
	"testing"

	"github.com/robotron-net/robotron/internal/fbnet"
)

func TestAddRackGrowsCluster(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("dc1", "dc", "nam")
	tpl := DCGen2(2)
	if _, err := d.BuildCluster(testCtx("dc"), "dc1", "dc1-c1", tpl); err != nil {
		t.Fatal(err)
	}
	racksBefore, _ := d.Store().Count("Rack")
	devsBefore, _ := d.Store().Count("Device")
	res, err := d.AddRack(testCtx("dc"), "dc1-c1", tpl.RackTORProfle,
		tpl.UplinkRole, tpl.UplinksPerTOR, tpl.Addressing.V6, tpl.Addressing.V4)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ref := range res.Stats.Created {
		counts[ref.Model]++
	}
	if counts["Rack"] != 1 || counts["Device"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	// 2 uplinks x 2-circuit bundles.
	if counts["Circuit"] != 4 || counts["LinkGroup"] != 2 {
		t.Errorf("uplink counts = %v", counts)
	}
	// The new TOR's sessions reuse the fsw's existing AS (deviceAS).
	racksAfter, _ := d.Store().Count("Rack")
	devsAfter, _ := d.Store().Count("Device")
	if racksAfter != racksBefore+1 || devsAfter != devsBefore+1 {
		t.Errorf("rack/device deltas = %d/%d", racksAfter-racksBefore, devsAfter-devsBefore)
	}
	sessions, _ := d.Store().Find("BgpV6Session", fbnet.Eq("session_type", "ebgp"))
	asOK := false
	for _, s := range sessions {
		if s.Int("local_as") >= 65500 && s.Int("remote_as") >= 64700 && s.Int("remote_as") < 64800 {
			asOK = true
		}
	}
	if !asOK {
		t.Error("new rack sessions do not carry the fabric AS numbers")
	}
	if violations := gateViolations(t, d.Store()); len(violations) != 0 {
		t.Errorf("violations after rack add: %v", violations)
	}
	// Rejections.
	if _, err := d.AddRack(testCtx("dc"), "ghost", tpl.RackTORProfle, tpl.UplinkRole, 2, true, true); err == nil {
		t.Error("unknown cluster should fail")
	}
	if _, err := d.AddRack(testCtx("dc"), "dc1-c1", tpl.RackTORProfle, "bogus-role", 2, true, true); err == nil {
		t.Error("missing uplink role should fail")
	}
	if _, err := d.AddRack(testCtx("dc"), "dc1-c1", tpl.RackTORProfle, tpl.UplinkRole, 0, true, true); err == nil {
		t.Error("zero uplinks should fail")
	}
}

// TestRemoveRouterCleansFarEnds pins the far-end dependency resolution:
// removing a router must retire the *other* router's interfaces,
// aggregates, and prefix objects on their shared bundles — otherwise the
// freed p2p subnets linger on orphans and a later allocation collides
// (the Fig. 15 harness originally caught this).
func TestRemoveRouterCleansFarEnds(t *testing.T) {
	d := newTestDesigner(t)
	d.EnsureSite("bb-site", "backbone", "nam")
	for _, n := range []string{"bb1", "bb2", "bb3"} {
		if _, err := d.AddBackboneRouter(testCtx("backbone"), n, "bb-site", "Backbone_Vendor2", "bb"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb2", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddBackboneCircuit(testCtx("backbone"), "bb2", "bb3", 1); err != nil {
		t.Fatal(err)
	}
	// Remove bb2: both bundles die; bb1 and bb3 must come out clean.
	if _, err := d.RemoveBackboneRouter(testCtx("backbone"), "bb2"); err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"Circuit", "LinkGroup", "AggregatedInterface", "PhysicalInterface", "V6Prefix", "V4Prefix"} {
		if n, _ := d.Store().Count(model); n != 0 {
			objs, _ := d.Store().Find(model, nil)
			t.Errorf("%d orphaned %s objects after removal: %v", n, model, objs[0].Fields)
		}
	}
	// The freed subnets are reusable without collision: provision a new
	// bundle that will walk the same pool space.
	for i := 0; i < 4; i++ {
		if _, err := d.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb3", 1); err != nil {
			t.Fatalf("re-allocation %d collided: %v", i, err)
		}
		cir, err := d.Store().FindOne("Circuit", fbnet.Contains("circuit_id", "bb1"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.DeleteCircuit(testCtx("backbone"), cir.String("circuit_id")); err != nil {
			t.Fatal(err)
		}
	}
}
