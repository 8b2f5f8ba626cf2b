package deploy

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/vclock"
)

// RemoteResolver resolves deployment targets over the TCP management
// plane instead of in process, proving the deployer is transport-agnostic.
func remoteResolver(t *testing.T, addr string) Resolver {
	t.Helper()
	cache := map[string]*netsim.RemoteDevice{}
	return func(name string) (Target, error) {
		if d, ok := cache[name]; ok {
			return d, nil
		}
		d, err := netsim.DialDevice(addr, name)
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { d.Close() })
		cache[name] = d
		return d, nil
	}
}

var _ Target = (*netsim.RemoteDevice)(nil)

func newRemoteFleet(t *testing.T, n int, clock vclock.Clock) (*netsim.Fleet, *Deployer, string) {
	t.Helper()
	fleet, _, _ := newFleetOn(t, n, clock)
	srv, err := fleet.ServeMgmt("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return fleet, NewDeployer(remoteResolver(t, srv.Addr()), clock, nil), srv.Addr()
}

func TestRemoteDeploySimple(t *testing.T) {
	fleet, dep, _ := newRemoteFleet(t, 4, vclock.RealClock())
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed()) != 0 {
		t.Fatalf("failures: %+v", rep.Failed())
	}
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if cfg != cfgs[d.Name()] {
			t.Errorf("%s not updated over TCP", d.Name())
		}
	}
}

func TestRemoteDryrunVendorSplit(t *testing.T) {
	fleet, dep, _ := newRemoteFleet(t, 2, vclock.RealClock())
	diffs, err := dep.Dryrun(newConfigs(fleet, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The sentinel error survives the CLI boundary: vendor1 falls back to
	// emulated diff, vendor2 uses native compare.
	if !strings.Contains(diffs["dev00"], "- ") {
		t.Errorf("vendor1 emulated diff missing: %q", diffs["dev00"])
	}
	if !strings.Contains(diffs["dev01"], "+  mtu 9002;") {
		t.Errorf("vendor2 native diff missing: %q", diffs["dev01"])
	}
}

func TestRemoteErrNotSupportedIdentity(t *testing.T) {
	_, dep, _ := newRemoteFleet(t, 1, vclock.RealClock())
	tgt, err := dep.Resolve("dev00") // vendor1
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.LoadConfig("interface ae0\n"); err != nil {
		t.Fatal(err)
	}
	_, err = tgt.DryrunDiff()
	if !errors.Is(err, netsim.ErrNotSupported) {
		t.Errorf("sentinel identity lost over CLI: %v", err)
	}
}

func TestRemoteAtomicRollback(t *testing.T) {
	fleet, dep, _ := newRemoteFleet(t, 3, vclock.RealClock())
	cfgs := newConfigs(fleet, 2)
	d2, _ := fleet.Device("dev02")
	opts := Options{
		Atomic:      true,
		HealthCheck: func(tg Target, intended string) error { return nil },
		Review: func(device, diff string) bool {
			if device == "dev02" {
				// Device dies after its dryrun but before commit; with
				// sorted ordering its commit is last.
				d2.SetDown(true)
			}
			return true
		},
	}
	if _, err := dep.Deploy(cfgs, opts); err == nil {
		t.Fatal("atomic deployment should fail")
	}
	for _, name := range []string{"dev00", "dev01"} {
		d, _ := fleet.Device(name)
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9001") {
			t.Errorf("%s not rolled back over TCP: %q", name, cfg)
		}
	}
}

// TestRemoteCommitConfirmExpiry lets the grace lapse on the fleet's and
// the deployer's one VirtualClock: the deployer rolls the emulated device
// back over TCP, and the vendor2 device's native timer fires in the same
// Advance.
func TestRemoteCommitConfirmExpiry(t *testing.T) {
	clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	fleet, dep, _ := newRemoteFleet(t, 2, clk)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{ConfirmGrace: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(50 * time.Millisecond)
	if !rep.Pending.Settled() {
		t.Fatal("pending not settled after the grace")
	}
	if d1, _ := fleet.Device("dev01"); d1.ConfirmPending() {
		t.Fatal("dev01's native rollback timer still armed after the grace")
	}
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9001") {
			t.Errorf("%s not rolled back after remote grace expiry: %q", d.Name(), cfg)
		}
	}
}

func TestRemoteDrainCheck(t *testing.T) {
	fleet, dep, _ := newRemoteFleet(t, 2, vclock.RealClock())
	d, _ := fleet.Device("dev01")
	d.SetTrafficLoad(0.9)
	_, err := dep.InitialProvision(newConfigs(fleet, 2), Options{})
	if !errors.Is(err, ErrDrainRequired) {
		t.Errorf("drain check over TCP: want ErrDrainRequired, got %v", err)
	}
}
