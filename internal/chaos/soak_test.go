package chaos

import (
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/core"
	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/vclock"
)

// soakSeed fixes the entire fault schedule: every injection decision is
// a pure function of (seed, device, verb, call#), so a failing run is
// reproduced exactly by re-running with the same seed.
const soakSeed = 424242

func soakCtx() design.ChangeContext {
	return design.ChangeContext{EmployeeID: "chaos", TicketID: "T-chaos", Description: "chaos soak", Domain: "dc"}
}

// soakPolicy arms four fault kinds against the verbs the deployment and
// monitoring pipelines actually drive.
func soakPolicy() *netsim.FaultPolicy {
	p := netsim.NewFaultPolicy(soakSeed)
	p.Add(netsim.FaultRule{Kind: netsim.FaultTransient, Probability: 0.15,
		Verbs: []string{"commit", "commit-confirmed", "load-config"}})
	p.Add(netsim.FaultRule{Kind: netsim.FaultDropBefore, Probability: 0.05,
		Verbs: []string{"commit", "commit-confirmed"}})
	p.Add(netsim.FaultRule{Kind: netsim.FaultDropAfter, Probability: 0.05,
		Verbs: []string{"commit", "commit-confirmed"}})
	p.Add(netsim.FaultRule{Kind: netsim.FaultGarbled, Probability: 0.03,
		Verbs: []string{"show running-config"}})
	return p
}

// injectDrift rewrites a device's running config out from under the
// management plane. The writes go through the same faulty management
// verbs as everything else, so they are retried until they land.
func injectDrift(t *testing.T, d *netsim.Device, cfg string) {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		if err := d.LoadConfig(cfg); err != nil {
			continue
		}
		if err := d.Commit(); err == nil || deploy.Classify(err) == deploy.ClassAmbiguous {
			// Ambiguous means the commit may have landed; verify below.
			if got, err := d.RunningConfig(); err == nil && got == cfg {
				return
			}
			continue
		}
	}
	t.Fatalf("could not inject drift on %s in 50 attempts (seed=%d)", d.Name(), soakSeed)
}

// TestChaosSoak is the acceptance soak: a 64-device cluster is
// provisioned clean, then a fleet-wide intent change is deployed while
// four fault kinds fire on a fixed seed, and operators scribble on a
// handful of devices. Once the chaos stops, the reconciler must drive
// every device back to golden (or explicitly quarantine it), with zero
// pending commit-confirm timers left anywhere.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not a -short test")
	}
	t.Logf("chaos soak: seed=%d (fault schedule is a pure function of this seed)", soakSeed)

	policy := soakPolicy()
	policy.SetDisabled(true) // provision a clean baseline first
	retry := &deploy.RetryPolicy{Seed: soakSeed, MaxAttempts: 6, Sleep: func(time.Duration) {}}
	clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))

	r, err := core.New(core.Options{
		FaultPolicy:      policy,
		DeployRetry:      retry,
		EnableReconciler: true,
		Reconcile: reconcile.Config{
			Clock:             clk,
			DampingThreshold:  -1, // chaos re-detects drift; damping would mass-quarantine
			BudgetMaxDevices:  128,
			BudgetMaxFraction: 1,
			MaxCheckRetries:   5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Reconciler.Stop()

	if _, err := r.Designer.EnsureSite("dc1", "dc", "apac"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ProvisionCluster(soakCtx(), "dc1", "dc1-c1", design.DCGen1(44)); err != nil {
		t.Fatal(err)
	}
	// The cluster template provisions the fabric; the racks' TORs join
	// through the fleet-wide deploy below. Target every device at the
	// site so the storm covers the whole 64-device fleet.
	devices, err := r.DevicesOfSite("dc1")
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) < 64 {
		t.Fatalf("fleet size = %d, want >= 64", len(devices))
	}
	t.Logf("provisioned %d devices clean; enabling faults", len(devices))
	policy.SetDisabled(false)

	// The storm: a fleet-wide intent change deployed while the
	// management plane misbehaves. Per-device failures are tolerated
	// here — the golden intent is committed first, so whatever the storm
	// leaves behind is drift for the reconciler.
	if _, err := r.Designer.EnsureFirewallPolicy(soakCtx(), design.FirewallSpec{
		Name: "chaos-cp", Direction: "in",
		Rules: []design.FirewallRuleSpec{
			{Action: "permit", Protocol: "tcp", SrcPrefix: "10.0.0.0/8", DstPort: 179},
			{Action: "deny", Protocol: "any"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.AttachFirewall(soakCtx(), "chaos-cp", devices); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GenerateAndDeploy(devices, deploy.Options{}, "chaos"); err != nil {
		t.Logf("deploy storm left failures for the reconciler: %v", err)
	}

	// Operators (or agents) scribble on a handful of devices while the
	// faults are still firing.
	for _, name := range devices[:6] {
		d, ok := r.Fleet.Device(name)
		if !ok {
			t.Fatalf("device %s missing from fleet", name)
		}
		cfg, err := r.Generator.Golden(name)
		if err != nil {
			t.Fatal(err)
		}
		injectDrift(t, d, cfg+"\n! chaos drift on "+name)
	}

	settled := func() (bool, []string) {
		states := r.Reconciler.States()
		var bad []string
		for _, name := range devices {
			if states[name] == reconcile.StateQuarantined {
				continue // explicitly parked for operator review
			}
			d, ok := r.Fleet.Device(name)
			if !ok {
				bad = append(bad, name+" (missing)")
				continue
			}
			golden, err := r.Generator.Golden(name)
			if err != nil {
				bad = append(bad, name+" (no golden)")
				continue
			}
			if running, err := d.RunningConfig(); err != nil || running != golden {
				bad = append(bad, name)
			}
		}
		return len(bad) == 0, bad
	}

	policy.SetDisabled(true) // chaos window over: convergence must be total
	var unconverged []string
	ok := false
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		r.Reconciler.Sweep()
		clk.Advance(30 * time.Minute) // fire every backoff/recheck timer due
		if ok, unconverged = settled(); ok {
			break
		}
	}
	if !ok {
		t.Fatalf("seed=%d: %d device(s) neither converged nor quarantined: %v\n%s",
			soakSeed, len(unconverged), unconverged, reconcile.FormatDeviceTable(r.Reconciler.Devices()))
	}

	// No device may be left holding a provisional commit: every
	// commit-confirm either confirmed or rolled back.
	for _, d := range r.Fleet.Devices() {
		if d.ConfirmPending() {
			t.Errorf("seed=%d: %s still has a pending commit-confirm", soakSeed, d.Name())
		}
	}

	// The soak only proves robustness if the faults actually fired —
	// across at least 3 distinct kinds.
	counts := policy.Counts()
	kinds := 0
	for _, n := range counts {
		if n > 0 {
			kinds++
		}
	}
	if policy.Total() == 0 || kinds < 3 {
		t.Fatalf("seed=%d: fault engine too quiet: %s", soakSeed, policy.String())
	}
	if got := r.Telemetry.Counter("robotron_deploy_retries_total").Value(); got == 0 {
		t.Error("chaos run recorded zero deploy retries — retry layer never engaged")
	}

	// Budget witness: the journal's high-water marks prove the safety
	// budget held in every failure domain throughout the storm (one site
	// here, so its shard budget equals the configured device cap).
	for shard, max := range r.Reconciler.Journal().MaxActiveByShard() {
		if max > 128 {
			t.Errorf("seed=%d: shard %s peaked at %d concurrent remediations, budget 128", soakSeed, shard, max)
		}
	}

	stats := r.Reconciler.Stats()
	quarantined := 0
	for _, s := range r.Reconciler.States() {
		if s == reconcile.StateQuarantined {
			quarantined++
		}
	}
	t.Logf("soak done: faults=%s; reconciler %s; quarantined=%d; journal events=%d",
		policy.String(), stats.String(), quarantined, len(r.Reconciler.Journal().Events()))

	sum := strings.Builder{}
	for k, n := range counts {
		if n > 0 {
			sum.WriteString(string(k))
			sum.WriteString(" ")
		}
	}
	t.Logf("fault kinds fired: %s", sum.String())
}
