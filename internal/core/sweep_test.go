package core

import (
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/vclock"
)

// TestSweepDeliversADriftOnce: a drift the reconciler's own sweep finds
// enters the loop once, under the sweep's origin. With DampingThreshold 1
// that one detection quarantines the device, and nothing follows: the
// config monitor does not hand the same drift to the loop a second time,
// to be journaled as suppressed.
func TestSweepDeliversADriftOnce(t *testing.T) {
	clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	r, err := New(Options{
		Clock:            clk,
		EnableReconciler: true,
		Reconcile:        reconcile.Config{DampingThreshold: 1},
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
	name := res.Devices[0]
	dev, ok := r.Fleet.Device(name)
	if !ok {
		t.Fatalf("device %s not in fleet", name)
	}
	// A silent drift: no syslog, so only the sweep can find it.
	dev.SetSyslogSink(nil)
	if err := dev.InjectRunningConfig(dev.PeekRunningConfig() + "rogue line\n"); err != nil {
		t.Fatal(err)
	}
	if n := r.Reconciler.Sweep(); n == 0 {
		t.Fatal("sweep checked no devices")
	}
	var types []reconcile.EventType
	for _, e := range r.Reconciler.Journal().Events() {
		if e.Device != name {
			continue
		}
		types = append(types, e.Type)
		if e.Type == reconcile.EvDetected && !strings.HasPrefix(e.Detail, "sweep: ") {
			t.Errorf("detected %q, want the sweep's origin", e.Detail)
		}
	}
	if len(types) != 2 || types[0] != reconcile.EvDetected || types[1] != reconcile.EvQuarantined {
		t.Errorf("%s journaled %v, want [detected quarantined]", name, types)
	}
	if s := r.Reconciler.Stats(); s.Detected != 1 || s.Suppressed != 0 {
		t.Errorf("stats %v, want one detection and nothing suppressed", s)
	}
}
