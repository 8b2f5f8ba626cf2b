package deploy

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/vclock"
)

// newTestFleet builds a fleet of n vendor-alternating devices with a
// baseline config committed, and its deployer, on the wall clock.
func newTestFleet(t testing.TB, n int) (*netsim.Fleet, *Deployer, map[string]string) {
	t.Helper()
	return newFleetOn(t, n, vclock.RealClock())
}

// newVirtualFleet is newTestFleet with the fleet and the deployer on one
// VirtualClock: grace timers fire only as the test advances it, and retry
// backoff takes no time.
func newVirtualFleet(t testing.TB, n int) (*netsim.Fleet, *Deployer, *vclock.VirtualClock) {
	t.Helper()
	clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	fleet, dep, _ := newFleetOn(t, n, clk)
	return fleet, dep, clk
}

func newFleetOn(t testing.TB, n int, clock vclock.Clock) (*netsim.Fleet, *Deployer, map[string]string) {
	t.Helper()
	fleet := netsim.NewFleet(clock)
	baseline := map[string]string{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("dev%02d", i)
		vendor, role := netsim.Vendor1, "psw"
		site := "pop1"
		if i%2 == 1 {
			vendor, role = netsim.Vendor2, "pr"
		}
		if i >= n/2 {
			site = "pop2"
		}
		d, err := fleet.AddDevice(name, vendor, role, site)
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(vendor, name, 1)
		if err := d.LoadConfig(cfg); err != nil {
			t.Fatal(err)
		}
		if err := d.Commit(); err != nil {
			t.Fatal(err)
		}
		baseline[name] = cfg
	}
	return fleet, NewDeployer(FleetResolver(fleet), clock, nil), baseline
}

// baseConfig emits a small valid config for the vendor; rev changes its
// content.
func baseConfig(v netsim.Vendor, name string, rev int) string {
	if v == netsim.Vendor2 {
		return fmt.Sprintf("system {\n host-name %s;\n}\nae0 {\n mtu %d;\n}\n", name, 9000+rev)
	}
	return fmt.Sprintf("hostname %s\ninterface ae0\n mtu %d\n", name, 9000+rev)
}

func newConfigs(fleet *netsim.Fleet, rev int) map[string]string {
	out := map[string]string{}
	for _, d := range fleet.Devices() {
		out[d.Name()] = baseConfig(d.Vendor(), d.Name(), rev)
	}
	return out
}

func TestInitialProvision(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 4)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.InitialProvision(cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 4 {
		t.Errorf("results = %d", len(rep.Results))
	}
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if cfg != cfgs[d.Name()] {
			t.Errorf("%s not provisioned", d.Name())
		}
	}
}

func TestInitialProvisionRequiresDrain(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 2)
	d, _ := fleet.Device("dev01")
	d.SetTrafficLoad(0.4)
	_, err := dep.InitialProvision(newConfigs(fleet, 2), Options{})
	if !errors.Is(err, ErrDrainRequired) {
		t.Errorf("want ErrDrainRequired, got %v", err)
	}
	// dev00 must be untouched: drain check runs before any change.
	d0, _ := fleet.Device("dev00")
	cfg, _ := d0.RunningConfig()
	if !strings.Contains(cfg, "9001") {
		t.Error("devices were touched despite failed drain check")
	}
}

func TestDryrunBothVendors(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 2)
	diffs, err := dep.Dryrun(newConfigs(fleet, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// dev00 is vendor1 (emulated unified diff), dev01 vendor2 (native).
	if !strings.Contains(diffs["dev00"], "- ") || !strings.Contains(diffs["dev00"], "+ ") {
		t.Errorf("vendor1 emulated diff = %q", diffs["dev00"])
	}
	if !strings.Contains(diffs["dev01"], "+  mtu 9002;") {
		t.Errorf("vendor2 native diff = %q", diffs["dev01"])
	}
	// Dryrun must not change running configs.
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9001") {
			t.Errorf("%s running config changed by dryrun", d.Name())
		}
	}
}

func TestDryrunCatchesInvalidConfig(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 2)
	cfgs := newConfigs(fleet, 2)
	cfgs["dev01"] = "ae0 {\n unbalanced\n" // vendor2 syntax error
	if _, err := dep.Dryrun(cfgs, Options{}); err == nil {
		t.Error("invalid vendor2 config should fail dryrun")
	}
	_ = fleet
}

func TestDeploySimple(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 4)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed()) != 0 {
		t.Errorf("failures: %+v", rep.Failed())
	}
	for _, res := range rep.Results {
		if res.Added == 0 && res.Removed == 0 {
			t.Errorf("%s diff stats empty", res.Device)
		}
	}
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if cfg != cfgs[d.Name()] {
			t.Errorf("%s not updated", d.Name())
		}
	}
}

func TestDeployReviewRejection(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 2)
	_, err := dep.Deploy(newConfigs(fleet, 2), Options{
		Review: func(device, diff string) bool { return device != "dev01" },
	})
	if !errors.Is(err, ErrReviewRejected) {
		t.Errorf("want ErrReviewRejected, got %v", err)
	}
	// Nothing committed: review happens before any commit.
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9001") {
			t.Errorf("%s committed despite rejected review", d.Name())
		}
	}
}

func TestAtomicRollbackOnFailure(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 4)
	cfgs := newConfigs(fleet, 2)
	// dev02 dies after the dryrun pass but before its commit.
	var died bool
	opts := Options{
		Atomic: true,
		HealthCheck: func(tg Target, intended string) error {
			return nil // gate not under test
		},
		Review: func(device, diff string) bool {
			if device == "dev03" && !died {
				// Kill dev02 late so dryrun succeeded for it already.
				d, _ := fleet.Device("dev02")
				d.SetDown(true)
				died = true
			}
			return true
		},
	}
	_, err := dep.Deploy(cfgs, opts)
	if err == nil {
		t.Fatal("atomic deployment should fail when a device dies")
	}
	// dev00 and dev01 were committed before dev02 failed; they must be
	// rolled back to the baseline.
	for _, name := range []string{"dev00", "dev01"} {
		d, _ := fleet.Device(name)
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9001") {
			t.Errorf("%s not rolled back after atomic failure: %q", name, cfg)
		}
	}
}

func TestNonAtomicStopsWithoutRollback(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 4)
	cfgs := newConfigs(fleet, 2)
	d2, _ := fleet.Device("dev02")
	opts := Options{
		Review: func(device, diff string) bool {
			if device == "dev03" {
				d2.SetDown(true)
			}
			return true
		},
		HealthCheck: func(tg Target, intended string) error { return nil },
	}
	_, err := dep.Deploy(cfgs, opts)
	if err == nil {
		t.Fatal("deployment should fail")
	}
	// Non-atomic: dev00/dev01 stay on the new config.
	for _, name := range []string{"dev00", "dev01"} {
		d, _ := fleet.Device(name)
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9002") {
			t.Errorf("%s unexpectedly rolled back: %q", name, cfg)
		}
	}
}

func TestPhasedDeploymentOrder(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 8)
	cfgs := newConfigs(fleet, 2)
	var phaseLog []string
	opts := Options{
		Phases: []Phase{
			{Name: "canary-pop1-psw", Percent: 50, Role: "psw", Site: "pop1"},
			{Name: "rest-pop1", Site: "pop1"},
		},
		Notify: func(format string, args ...any) {
			phaseLog = append(phaseLog, fmt.Sprintf(format, args...))
		},
	}
	rep, err := dep.Deploy(cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 8 {
		t.Errorf("results = %d", len(rep.Results))
	}
	var sawCanary, sawFinal bool
	for _, l := range phaseLog {
		if strings.Contains(l, "canary-pop1-psw") {
			sawCanary = true
		}
		if strings.Contains(l, "final") {
			sawFinal = true
		}
	}
	if !sawCanary || !sawFinal {
		t.Errorf("phase notifications missing: %v", phaseLog)
	}
}

func TestPhasedHaltsOnHealthGate(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 8)
	cfgs := newConfigs(fleet, 2)
	committedInPhase1 := map[string]bool{}
	opts := Options{
		Phases: []Phase{
			{Name: "canary", Percent: 25},
			{Name: "rest"},
		},
		HealthCheck: func(tg Target, intended string) error {
			committedInPhase1[tg.Name()] = true
			return fmt.Errorf("synthetic metric regression")
		},
	}
	_, err := dep.Deploy(cfgs, opts)
	if err == nil || !strings.Contains(err.Error(), "halted") {
		t.Fatalf("want halt error, got %v", err)
	}
	// Only the canary phase (2 of 8 devices) was touched.
	updated := 0
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if strings.Contains(cfg, "9002") {
			updated++
		}
	}
	if updated != 2 {
		t.Errorf("%d devices updated before halt, want 2", updated)
	}
}

func TestCommitConfirmFlow(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 4)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{ConfirmGrace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pending == nil {
		t.Fatal("expected pending confirmation")
	}
	if got := len(rep.Pending.Devices()); got != 4 {
		t.Errorf("pending devices = %d", got)
	}
	if err := rep.Pending.Confirm(); err != nil {
		t.Fatal(err)
	}
	if !rep.Pending.Settled() {
		t.Error("pending should be settled after Confirm")
	}
	time.Sleep(20 * time.Millisecond)
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9002") {
			t.Errorf("%s lost confirmed config: %q", d.Name(), cfg)
		}
		if d.ConfirmPending() {
			t.Errorf("%s still has a device-native rollback timer armed", d.Name())
		}
	}
	if err := rep.Pending.Confirm(); err == nil {
		t.Error("double confirm should fail")
	}
}

func TestCommitConfirmExpiryRollsBackBothVendors(t *testing.T) {
	fleet, dep, clk := newVirtualFleet(t, 2)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{ConfirmGrace: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// The deployer's timer and the device-native (vendor2) one both fire.
	clk.Advance(40 * time.Millisecond)
	if !rep.Pending.Settled() {
		t.Fatal("pending not settled after the grace")
	}
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9001") {
			t.Errorf("%s not rolled back after grace expiry: %q", d.Name(), cfg)
		}
	}
}

func TestCommitConfirmExplicitRollback(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 2)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{ConfirmGrace: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Pending.Rollback(); err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9001") {
			t.Errorf("%s not rolled back: %q", d.Name(), cfg)
		}
		if d.ConfirmPending() {
			t.Errorf("%s device timer still armed after explicit rollback", d.Name())
		}
	}
}

func TestPhasePartitioning(t *testing.T) {
	fleet, _, _ := newTestFleet(t, 8)
	targets := map[string]Target{}
	for _, d := range fleet.Devices() {
		targets[d.Name()] = d
	}
	// 8 devices: 4 psw (even), 4 pr (odd); 4 in pop1, 4 in pop2.
	phases := partitionPhases(targets, []Phase{
		{Name: "p1", Percent: 50, Role: "psw"},
		{Name: "p2", Role: "psw"},
	})
	if len(phases) != 3 { // p1, p2, final (prs)
		t.Fatalf("phases = %d: %+v", len(phases), phases)
	}
	if len(phases[0].devices) != 2 || len(phases[1].devices) != 2 || len(phases[2].devices) != 4 {
		t.Errorf("phase sizes = %d/%d/%d", len(phases[0].devices), len(phases[1].devices), len(phases[2].devices))
	}
	// Every device appears exactly once.
	seen := map[string]int{}
	for _, p := range phases {
		for _, d := range p.devices {
			seen[d]++
		}
	}
	if len(seen) != 8 {
		t.Errorf("devices covered = %d", len(seen))
	}
	for d, n := range seen {
		if n != 1 {
			t.Errorf("device %s in %d phases", d, n)
		}
	}
}

func TestDeployUnknownDevice(t *testing.T) {
	_, dep, _ := newTestFleet(t, 1)
	_, err := dep.Deploy(map[string]string{"ghost": "x"}, Options{})
	if err == nil {
		t.Error("unknown device should fail")
	}
}

func BenchmarkDeployFleet(b *testing.B) {
	fleet, dep, _ := newTestFleet(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfgs := newConfigs(fleet, i+2)
		if _, err := dep.Deploy(cfgs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCommitTimeWindow: a device that cannot finish applying within the
// window fails the deployment; in atomic mode the whole transaction rolls
// back, including the straggler's late-landing commit.
func TestCommitTimeWindow(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 3)
	slow, _ := fleet.Device("dev01")
	slow.SetCommitDelay(150 * time.Millisecond)
	cfgs := newConfigs(fleet, 2)
	_, err := dep.Deploy(cfgs, Options{
		Atomic:        true,
		CommitTimeout: 30 * time.Millisecond,
		HealthCheck:   func(tg Target, intended string) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "did not finish applying") {
		t.Fatalf("want time-window error, got %v", err)
	}
	// Every device — including the slow one whose commit landed late —
	// runs the baseline config again.
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9001") {
			t.Errorf("%s not rolled back after window breach: %q", d.Name(), cfg)
		}
	}
}

// TestCommitTimeWindowFastDevicesPass: a generous window changes nothing.
func TestCommitTimeWindowFastDevicesPass(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 2)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{Atomic: true, CommitTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed()) != 0 {
		t.Errorf("failures: %+v", rep.Failed())
	}
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9002") {
			t.Errorf("%s not updated", d.Name())
		}
	}
}
