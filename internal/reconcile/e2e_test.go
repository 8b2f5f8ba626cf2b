// End-to-end reconciliation tests over the full stack: netsim devices
// emit syslog, the classifier routes CONFIG_CHANGED to config
// monitoring, and the reconciler closes the loop by regenerating golden
// and redeploying. External test package because core imports reconcile.
package reconcile_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/core"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/vclock"
)

var e2eT0 = time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

// newReconciledPOP provisions a 6-device POP with the reconciler enabled
// under the given config (Clock is filled in by the caller via cfg).
func newReconciledPOP(t testing.TB, cfg reconcile.Config) *core.Robotron {
	t.Helper()
	r, err := core.New(core.Options{EnableReconciler: true, Reconcile: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.EnsureSite("pop1", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	ctx := design.ChangeContext{
		EmployeeID: "e1", TicketID: "T-1", Description: "e2e",
		Domain: "pop", NowUnix: 1_700_000_000,
	}
	res, err := r.ProvisionCluster(ctx, "pop1", "pop1-c1", design.POPGen1())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Devices) != 6 {
		t.Fatalf("devices = %v", res.Devices)
	}
	t.Cleanup(r.Reconciler.Stop)
	return r
}

func drift(t testing.TB, r *core.Robotron, name, line string) {
	t.Helper()
	d, ok := r.Fleet.Device(name)
	if !ok {
		t.Fatalf("no device %s", name)
	}
	if err := d.ApplyManualChange(line); err != nil {
		t.Fatal(err)
	}
}

func mustConform(t testing.TB, r *core.Robotron, name string) {
	t.Helper()
	d, _ := r.Fleet.Device(name)
	golden, err := r.Generator.Golden(name)
	if err != nil {
		t.Fatal(err)
	}
	running, err := d.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	if running != golden {
		t.Errorf("%s running config still deviates from golden", name)
	}
}

// TestE2EDriftConvergesWithoutManualIntervention injects drift on k
// devices and expects the closed loop to restore all of them with zero
// manual remediation calls.
func TestE2EDriftConvergesWithoutManualIntervention(t *testing.T) {
	clk := vclock.NewVirtualClock(e2eT0)
	r := newReconciledPOP(t, reconcile.Config{
		Clock: clk, BackoffBase: time.Second, DampingThreshold: -1,
		BudgetMaxDevices: 10, BudgetMaxFraction: 1.0,
	})
	rec := r.Reconciler
	drifted := []string{"pr1.pop1-c1", "psw1.pop1-c1", "psw2.pop1-c1"}
	for i, name := range drifted {
		drift(t, r, name, fmt.Sprintf("username intruder%d secret", i))
	}
	// Detection already happened synchronously via syslog; remediation is
	// parked behind per-device backoff on the virtual clock.
	states := rec.States()
	for _, name := range drifted {
		if states[name] != reconcile.StateBackoff {
			t.Errorf("%s = %q before advance, want backoff", name, states[name])
		}
	}
	clk.Advance(time.Minute)
	for _, name := range drifted {
		if s := rec.States()[name]; s != reconcile.StateConverged {
			t.Fatalf("%s = %q after advance, want converged\n%s", name, s, rec.Journal().Format())
		}
		mustConform(t, r, name)
	}
	s := rec.Stats()
	if s.Detected != 3 || s.Converged != 3 || s.Quarantined != 0 || s.BudgetTrips != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestE2EFlapDampingQuarantine drifts one device 3 times inside the
// damping window: the third lands it in quarantine and it is never
// redeployed.
func TestE2EFlapDampingQuarantine(t *testing.T) {
	clk := vclock.NewVirtualClock(e2eT0)
	r := newReconciledPOP(t, reconcile.Config{
		Clock: clk, BackoffBase: time.Second,
		DampingWindow: time.Hour, DampingThreshold: 3,
	})
	rec := r.Reconciler
	const victim = "psw3.pop1-c1"
	for i := 0; i < 2; i++ {
		drift(t, r, victim, fmt.Sprintf("username flapper%d secret", i))
		clk.Advance(time.Minute)
		if s := rec.States()[victim]; s != reconcile.StateConverged {
			t.Fatalf("round %d: %s = %q\n%s", i, victim, s, rec.Journal().Format())
		}
	}
	remediations := 0
	for _, e := range rec.Journal().Events() {
		if e.Type == reconcile.EvRemediate {
			remediations++
		}
	}
	drift(t, r, victim, "username flapper2 secret")
	if s := rec.States()[victim]; s != reconcile.StateQuarantined {
		t.Fatalf("%s = %q after third drift, want quarantined", victim, s)
	}
	clk.Advance(time.Hour)
	for _, e := range rec.Journal().Events() {
		if e.Type == reconcile.EvRemediate {
			remediations--
		}
	}
	if remediations != 0 {
		t.Error("quarantined device was redeployed")
	}
	d, _ := r.Fleet.Device(victim)
	running, _ := d.RunningConfig()
	if !strings.Contains(running, "flapper2") {
		t.Error("quarantined device's manual change was reverted")
	}
	if s := rec.Stats(); s.Quarantined != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestE2EBudgetBreakerUnderMassDrift drifts 4 of 6 devices against a
// budget of 2: the breaker trips, nothing deploys, and after an operator
// ResetBreaker the backlog drains without ever exceeding the budget.
func TestE2EBudgetBreakerUnderMassDrift(t *testing.T) {
	clk := vclock.NewVirtualClock(e2eT0)
	var alerts []string
	var mu sync.Mutex
	r := newReconciledPOP(t, reconcile.Config{
		Clock: clk, BackoffBase: time.Second, DampingThreshold: -1,
		BudgetMaxDevices: 2, BudgetMaxFraction: 1.0,
		Alert: func(f string, a ...any) {
			mu.Lock()
			alerts = append(alerts, fmt.Sprintf(f, a...))
			mu.Unlock()
		},
	})
	rec := r.Reconciler
	mass := []string{"pr1.pop1-c1", "pr2.pop1-c1", "psw1.pop1-c1", "psw2.pop1-c1"}
	for i, name := range mass {
		drift(t, r, name, fmt.Sprintf("username mass%d secret", i))
	}
	if !rec.Tripped() {
		t.Fatal("breaker did not trip: 4 open devices > budget 2")
	}
	clk.Advance(time.Hour)
	for _, e := range rec.Journal().Events() {
		if e.Type == reconcile.EvRemediate {
			t.Fatalf("deploy happened while breaker open:\n%s", rec.Journal().Format())
		}
	}
	mu.Lock()
	gotAlert := len(alerts) > 0
	mu.Unlock()
	if !gotAlert {
		t.Error("breaker trip raised no alert")
	}
	rec.ResetBreaker()
	clk.Advance(time.Hour)
	for _, name := range mass {
		if s := rec.States()[name]; s != reconcile.StateConverged {
			t.Fatalf("%s = %q after reset, want converged\n%s", name, s, rec.Journal().Format())
		}
		mustConform(t, r, name)
	}
	// The journal proves concurrent remediations never exceeded the budget.
	if max := rec.Journal().MaxActive(); max > 2 {
		t.Errorf("max concurrent remediations = %d, budget 2", max)
	}
	if s := rec.Stats(); s.BudgetTrips != 1 || s.Converged != 4 {
		t.Errorf("stats = %+v", s)
	}
}

// TestE2ECheckErrorRetryQueue: a CONFIG_CHANGED alert for an unreachable
// device errors the triggered check; the reconciler queues a retry and
// finds the drift once the device is back.
func TestE2ECheckErrorRetryQueue(t *testing.T) {
	clk := vclock.NewVirtualClock(e2eT0)
	r := newReconciledPOP(t, reconcile.Config{
		Clock: clk, BackoffBase: time.Second, DampingThreshold: -1, MaxCheckRetries: 5,
	})
	rec := r.Reconciler
	const victim = "psw4.pop1-c1"
	d, _ := r.Fleet.Device(victim)
	d.SetDown(true)
	// Provisioning-time commits already error a few checks (no golden
	// yet), so assert the delta from this event only.
	base := r.ConfigMon.CheckErrors()
	// The change event arrives but the collection fails.
	r.Classifier.Process(netsim.SyslogMessage{
		Host: victim, App: "config", Severity: 5,
		Text: "CONFIG_CHANGED: configuration changed out-of-band",
	})
	if n := r.ConfigMon.CheckErrors(); n != base+1 {
		t.Fatalf("monitor check errors = %d, want %d", n, base+1)
	}
	// Device comes back already drifted; the syslog for the out-of-band
	// change was lost (sink detached), so only the retry can find it.
	d.SetDown(false)
	d.SetSyslogSink(nil)
	cur, err := d.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InjectRunningConfig(cur + "username ghost secret\n"); err != nil {
		t.Fatal(err)
	}
	d.SetSyslogSink(func(m netsim.SyslogMessage) { r.Classifier.Process(m) })
	clk.Advance(time.Minute)
	if s := rec.States()[victim]; s != reconcile.StateConverged {
		t.Fatalf("%s = %q, want converged\n%s", victim, s, rec.Journal().Format())
	}
	mustConform(t, r, victim)
	if s := rec.Stats(); s.CheckErrors == 0 {
		t.Errorf("stats = %+v, want CheckErrors > 0", s)
	}
}

// TestE2ESweepCatchesLostEvent: drift whose syslog never reached the
// classifier is found by the periodic full-fleet sweep.
func TestE2ESweepCatchesLostEvent(t *testing.T) {
	clk := vclock.NewVirtualClock(e2eT0)
	r := newReconciledPOP(t, reconcile.Config{
		Clock: clk, BackoffBase: time.Second, SweepInterval: 5 * time.Minute,
		DampingThreshold: -1,
	})
	rec := r.Reconciler
	const victim = "pr1.pop1-c1"
	d, _ := r.Fleet.Device(victim)
	d.SetSyslogSink(nil) // event lost
	cur, err := d.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InjectRunningConfig(cur + "username silent secret\n"); err != nil {
		t.Fatal(err)
	}
	d.SetSyslogSink(func(m netsim.SyslogMessage) { r.Classifier.Process(m) })
	clk.Advance(10 * time.Minute)
	if s := rec.States()[victim]; s != reconcile.StateConverged {
		t.Fatalf("%s = %q, want converged\n%s", victim, s, rec.Journal().Format())
	}
	mustConform(t, r, victim)
}

// TestE2EConcurrentDeviationsRace fires concurrent out-of-band changes
// at one reconciler under the real clock; run with -race. All devices
// must converge and the journal must respect the budget throughout.
func TestE2EConcurrentDeviationsRace(t *testing.T) {
	r := newReconciledPOP(t, reconcile.Config{
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		MaxAttempts: 50, DampingThreshold: -1,
		// Budget above fleet size: this test exercises churn, not the
		// breaker (the breaker has its own test above).
		BudgetMaxDevices: 100, BudgetMaxFraction: 1.0,
		SweepInterval: 20 * time.Millisecond,
	})
	rec := r.Reconciler
	devices := []string{
		"pr1.pop1-c1", "pr2.pop1-c1",
		"psw1.pop1-c1", "psw2.pop1-c1", "psw3.pop1-c1", "psw4.pop1-c1",
	}
	var wg sync.WaitGroup
	for i, name := range devices {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			d, _ := r.Fleet.Device(name)
			for round := 0; round < 3; round++ {
				_ = d.ApplyManualChange(fmt.Sprintf("username race%d-%d secret", i, round))
				time.Sleep(time.Millisecond)
			}
		}(i, name)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		allConverged := true
		for _, name := range devices {
			d, _ := r.Fleet.Device(name)
			golden, gerr := r.Generator.Golden(name)
			running, rerr := d.RunningConfig()
			if gerr != nil || rerr != nil || running != golden {
				allConverged = false
			}
		}
		if allConverged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not converge\n%s", reconcile.FormatDeviceTable(rec.Devices()))
		}
		rec.Sweep() // belt and braces: pick up anything a lost race dropped
		time.Sleep(5 * time.Millisecond)
	}
	if max := rec.Journal().MaxActive(); max > 6 {
		t.Errorf("max concurrent remediations = %d, budget 6 (min(100, 1.0·6))", max)
	}
	if s := rec.Stats(); s.Converged == 0 {
		t.Errorf("stats = %+v", s)
	}
}
