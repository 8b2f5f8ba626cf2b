package core

import (
	"maps"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/vclock"
)

// TestNewRejectsASecondClock: an instance runs on one clock, so New
// refuses a Reconcile.Clock that is not Options.Clock — a second virtual
// clock, or one beside the wall clock — and takes the same clock in both.
func TestNewRejectsASecondClock(t *testing.T) {
	epoch := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	clk := vclock.NewVirtualClock(epoch)
	for name, opts := range map[string]Options{
		"two virtual clocks":       {Clock: clk, Reconcile: reconcile.Config{Clock: vclock.NewVirtualClock(epoch)}},
		"virtual beside wall time": {Reconcile: reconcile.Config{Clock: clk}},
	} {
		if _, err := New(opts); err == nil {
			t.Errorf("%s: New accepted a Reconcile.Clock that is not Options.Clock", name)
		}
	}
	r, err := New(Options{Clock: clk, EnableReconciler: true, Reconcile: reconcile.Config{Clock: clk}})
	if err != nil {
		t.Fatalf("the same clock in both: %v", err)
	}
	r.Reconciler.Stop()
}

// TestCommitConfirmExpiresOnTheVirtualClock is §5.3's commit-confirm end
// to end on the instance's one clock: a deployment left unconfirmed keeps
// the new configs through the grace and rolls every device back once it
// lapses — the vendor-2 devices by their native timer, the vendor-1 ones
// by the deployer's emulation — with no timer left behind, at deploy
// parallelism 1 and 8 alike.
func TestCommitConfirmExpiresOnTheVirtualClock(t *testing.T) {
	const grace = 30 * time.Second
	run := func(parallelism int) map[string][3]string {
		clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
		r, err := New(Options{Clock: clk, DeployParallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		res := provisionPOP(t, r)
		ctx := testCtx("pop")
		if _, err := r.Designer.EnsureFirewallPolicy(ctx, design.FirewallSpec{
			Name: "cp-protect", Direction: "in",
			Rules: []design.FirewallRuleSpec{{Action: "deny", Protocol: "any"}},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Designer.AttachFirewall(ctx, "cp-protect", res.Devices); err != nil {
			t.Fatal(err)
		}
		running := func(name string) string {
			d, _ := r.Fleet.Device(name)
			cfg, _ := d.RunningConfig()
			return cfg
		}
		// Per device: the config before the deployment, the one it
		// deployed and the one it runs once the grace lapsed.
		got := make(map[string][3]string, len(res.Devices))
		vendors := map[string]bool{}
		for _, name := range res.Devices {
			d, _ := r.Fleet.Device(name)
			vendors[string(d.Vendor())] = true
			got[name] = [3]string{running(name)}
		}
		if len(vendors) != 2 {
			t.Fatalf("the site runs vendors %v, want both", vendors)
		}
		rep, err := r.GenerateAndDeploy(res.Devices, deploy.Options{ConfirmGrace: grace}, "e1")
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pending == nil {
			t.Fatal("a commit-confirm deployment returned no pending set")
		}
		for _, name := range res.Devices {
			g := got[name]
			if g[1] = running(name); g[1] == g[0] {
				t.Fatalf("%s: the deployment changed nothing", name)
			}
			got[name] = g
		}
		clk.Advance(grace - time.Second)
		for _, name := range res.Devices {
			if running(name) != got[name][1] {
				t.Errorf("parallelism %d: %s rolled back inside the grace", parallelism, name)
			}
		}
		clk.Advance(2 * time.Second)
		for _, name := range res.Devices {
			g := got[name]
			if g[2] = running(name); g[2] != g[0] {
				t.Errorf("parallelism %d: %s still runs the unconfirmed config after the grace", parallelism, name)
			}
			got[name] = g
		}
		if !rep.Pending.Settled() {
			t.Errorf("parallelism %d: pending not settled after the grace", parallelism)
		}
		if n := clk.PendingTimers(); n != 0 {
			t.Errorf("parallelism %d: %d timer(s) pending after the grace", parallelism, n)
		}
		return got
	}
	if serial, parallel := run(1), run(8); !maps.Equal(serial, parallel) {
		t.Error("parallelism 8 ends otherwise than parallelism 1")
	}
}
