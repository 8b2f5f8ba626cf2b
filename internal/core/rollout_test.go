package core

import (
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/vclock"
)

// TestTurnUpRollsOutEveryDesignedDevice: a turn-up rolls out every device
// its design created, the racks' TORs included — each Device row of the
// cluster has a golden config, and the device runs it.
func TestTurnUpRollsOutEveryDesignedDevice(t *testing.T) {
	r := newRobotron(t)
	if _, err := r.Designer.EnsureSite("dc1", "dc", "nam"); err != nil {
		t.Fatal(err)
	}
	res, err := r.ProvisionCluster(testCtx("dc"), "dc1", "dc1-c1", design.DCGen3(4))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := r.Store.Find("Device", fbnet.Eq("cluster.name", "dc1-c1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(res.Devices) {
		t.Errorf("turn-up rolled out %d devices, the design has %d", len(res.Devices), len(rows))
	}
	tors := 0
	for _, row := range rows {
		name := row.String("name")
		if row.String("role") == "tor" {
			tors++
		}
		golden, err := r.Generator.Golden(name)
		if err != nil {
			t.Errorf("%s has no golden config: %v", name, err)
			continue
		}
		d, ok := r.Fleet.Device(name)
		if !ok {
			t.Errorf("%s missing from the fleet", name)
			continue
		}
		if running, err := d.RunningConfig(); err != nil || running != golden {
			t.Errorf("%s running config differs from its golden (err %v)", name, err)
		}
	}
	if tors != 4 {
		t.Errorf("cluster has %d TORs, want 4", tors)
	}
}

// TestTurnUpContract: a turn-up commits its goldens before it opens a
// management session, so with the reconciler on, the config-change events
// the provisioning raises check against the intent being installed. No
// check errors, one check per device (the commit's; erasing a blank
// device raises none), and a conforming DerivedConfig row for each.
func TestTurnUpContract(t *testing.T) {
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

	for _, e := range r.Reconciler.Journal().Events() {
		if e.Type == reconcile.EvCheckError {
			t.Errorf("reconciler journal has a check error after turn-up: %s %s", e.Device, e.Detail)
		}
	}
	if got := r.Telemetry.Counter("robotron_monitor_check_errors_total").Value(); got != 0 {
		t.Errorf("check errors = %d, want 0", got)
	}
	if got := r.Telemetry.Counter("robotron_monitor_checks_total").Value(); got > int64(len(res.Devices)) {
		t.Errorf("checks = %d for %d devices, want at most one each", got, len(res.Devices))
	}
	for _, name := range res.Devices {
		rows, err := r.Store.Find("DerivedConfig", fbnet.Eq("device_name", name))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || !rows[0].Bool("conforms") {
			t.Errorf("%s DerivedConfig = %v, want one conforming row", name, rows)
		}
	}
}
