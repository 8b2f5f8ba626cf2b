package core

import (
	"errors"
	"testing"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/fbnet"
)

// TestMaintenanceWithDrainProcedure follows the paper's §1 example:
// migrating a circuit between routers involves drain and undrain
// procedures around the configuration changes.
func TestMaintenanceWithDrainProcedure(t *testing.T) {
	r := newRobotron(t)
	ctx := testCtx("backbone")
	r.Designer.EnsureSite("bb-site", "backbone", "nam")
	for _, n := range []string{"bb1", "bb2", "bb3"} {
		if _, err := r.Designer.AddBackboneRouter(ctx, n, "bb-site", "Backbone_Vendor2", "bb"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Designer.AddBackboneCircuit(ctx, "bb1", "bb2", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.SyncFleet(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GenerateAndDeploy([]string{"bb1", "bb2", "bb3"}, deploy.Options{}, "e1"); err != nil {
		t.Fatal(err)
	}
	// Routers go into service.
	for _, n := range []string{"bb1", "bb2", "bb3"} {
		if err := r.UndrainDevice(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	d2, _ := r.Fleet.Device("bb2")
	if d2.TrafficLoad() == 0 {
		t.Fatal("undrained device carries no traffic")
	}

	// Maintenance: initial provisioning of bb2 is refused while it
	// carries traffic.
	cfg, err := r.Generator.GenerateDevice("bb2")
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Deployer.InitialProvision(map[string]string{"bb2": cfg}, deploy.Options{})
	if !errors.Is(err, deploy.ErrDrainRequired) {
		t.Fatalf("undrained provisioning: want ErrDrainRequired, got %v", err)
	}

	// Drain first (recorded in FBNet, traffic moved off), then the same
	// operation succeeds.
	if err := r.DrainDevice(ctx, "bb2"); err != nil {
		t.Fatal(err)
	}
	obj, _ := r.Store.FindOne("Device", fbnet.Eq("name", "bb2"))
	if obj.String("drain_state") != "drained" {
		t.Error("drain not recorded in FBNet")
	}
	if _, err := r.Deployer.InitialProvision(map[string]string{"bb2": cfg}, deploy.Options{}); err != nil {
		t.Fatal(err)
	}
	// Migrate the circuit while bb2 is drained, redeploy, undrain.
	cir, err := r.Store.FindOne("Circuit", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.MigrateCircuit(ctx, cir.String("circuit_id"), "bb3"); err != nil {
		t.Fatal(err)
	}
	// The physical plant still runs the old cable: a plain sync refuses
	// (miscabling detection), the recabling work order reconciles it.
	if err := r.SyncFleet(); err == nil {
		t.Fatal("sync should detect the stale cable after migration")
	}
	moved, err := r.ApplyRecabling()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Errorf("recabling moved %d cables, want exactly the migrated one", moved)
	}
	if _, err := r.GenerateAndDeploy([]string{"bb1", "bb2", "bb3"}, deploy.Options{Atomic: true}, "e1"); err != nil {
		t.Fatal(err)
	}
	if err := r.UndrainDevice(ctx, "bb2"); err != nil {
		t.Fatal(err)
	}
	if violations := gateViolations(t, r.Store); len(violations) != 0 {
		t.Errorf("violations after maintenance: %v", violations)
	}
}
