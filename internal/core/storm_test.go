package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/vclock"
)

// TestDriftStormRemediatesConcurrently: twelve devices of two DCGen3(4)
// sites drift at one instant and, under the default parallelism, the
// reconciler remediates them through its window — more than one at a
// time — back to their goldens. It decides what a twin instance with
// DeployParallelism 1 decides: the two journals are the same once the
// window's early admissions are put back in serial order, and it costs
// the generator the same derivations and renders.
func TestDriftStormRemediatesConcurrently(t *testing.T) {
	var drifted []string
	for _, site := range []string{"dc1", "dc2"} {
		for _, dev := range []string{"dr1", "dr2", "ssw1", "fsw1", "fsw2", "fsw3"} {
			drifted = append(drifted, dev+"."+site+"-c1")
		}
	}
	run := func(parallelism int) *Robotron {
		t.Helper()
		clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
		r, err := New(Options{
			Clock: clk, DeployParallelism: parallelism, EnableReconciler: true,
			Reconcile: reconcile.Config{BudgetMaxDevices: 64, BudgetMaxFraction: 1, DampingThreshold: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, site := range []string{"dc1", "dc2"} {
			if _, err := r.Designer.EnsureSite(site, "dc", "nam"); err != nil {
				t.Fatal(err)
			}
			if _, err := r.ProvisionCluster(testCtx("dc"), site, site+"-c1", design.DCGen3(4)); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range drifted {
			d, ok := r.Fleet.Device(name)
			if !ok {
				t.Fatalf("%s is not in the fleet", name)
			}
			if err := d.InjectRunningConfig(d.PeekRunningConfig() + "snmp-server community rogue ro\n"); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(time.Minute)
		r.Reconciler.Stop()
		return r
	}
	window, serial := run(0), run(1)

	for _, name := range drifted {
		d, _ := window.Fleet.Device(name)
		golden, err := window.Generator.Golden(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.PeekRunningConfig() != golden {
			t.Errorf("%s does not run its golden after the storm", name)
		}
		if st := window.Reconciler.States()[name]; st != reconcile.StateConverged {
			t.Errorf("%s ends %s, want converged", name, st)
		}
	}
	if m := window.Reconciler.Journal().MaxActive(); m < 2 {
		t.Errorf("at most %d remediation in flight: the storm ran serially", m)
	}
	if m := serial.Reconciler.Journal().MaxActive(); m != 1 {
		t.Errorf("DeployParallelism 1 had %d remediations in flight, want 1", m)
	}
	a, b := serialOrder(serial.Reconciler.Journal().Events()), serialOrder(window.Reconciler.Journal().Events())
	if a != b {
		t.Errorf("the journals differ in serial order\n--- DeployParallelism 1 ---\n%s--- default ---\n%s", a, b)
	}
	if a, b := serial.Reconciler.Stats().String(), window.Reconciler.Stats().String(); a != b {
		t.Errorf("stats differ\nDeployParallelism 1: %s\ndefault:             %s", a, b)
	}
	// The window costs the generator what the serial loop does: a derive
	// that a concurrent remediation's generate overtook is still cached.
	if a, b := serial.Generator.Stats(), window.Generator.Stats(); a != b {
		t.Errorf("generator work differs\nDeployParallelism 1: %+v\ndefault:             %+v", a, b)
	}
}

// serialOrder renders a reconciler journal as a serial loop writes it:
// every remediate event moved to just before the device's next event,
// without sequence numbers and in-flight counts.
func serialOrder(events []reconcile.Event) string {
	var b strings.Builder
	held := map[string]*reconcile.Event{}
	line := func(e *reconcile.Event) {
		fmt.Fprintf(&b, "%s %s %s %s %s due=%s\n", e.At.Format(time.RFC3339), e.Type, e.Device, e.Shard, e.Detail, e.FireAt.Format(time.RFC3339))
	}
	for i := range events {
		e := &events[i]
		if e.Type == reconcile.EvRemediate {
			held[e.Device] = e
			continue
		}
		if r := held[e.Device]; r != nil {
			line(r)
			delete(held, e.Device)
		}
		line(e)
	}
	for _, r := range held {
		b.WriteString("unsettled: ")
		line(r)
	}
	return b.String()
}
