package deploy

import (
	"testing"

	"github.com/robotron-net/robotron/internal/confdiff"
	"github.com/robotron-net/robotron/internal/netsim"
)

// driftingTarget edits its device's running config out of band once, as
// the dryrun discards its candidate: the deployer's readback then reads a
// config other than the one the dryrun diffed.
type driftingTarget struct {
	*netsim.Device
	drift   string
	drifted bool
}

func (t *driftingTarget) DiscardCandidate() error {
	err := t.Device.DiscardCandidate()
	if !t.drifted {
		t.drifted = true
		if ierr := t.Device.InjectRunningConfig(t.drift); ierr != nil {
			return ierr
		}
	}
	return err
}

// TestDeployDiffStatsEqualColdRecompute: on a mixed vendor-1/vendor-2
// deploy, every result's Added/Removed is a cold diff of the config the
// readback found against the config deployed — whether the deployer took
// it from the emulated dryrun's own diff (vendor 1, readback unchanged),
// diffed afresh (vendor 2), or diffed afresh because the running config
// moved between the dryrun and the readback.
func TestDeployDiffStatsEqualColdRecompute(t *testing.T) {
	fleet, _, _ := newTestFleet(t, 6)
	cfgs := newConfigs(fleet, 2)
	for name, extra := range map[string]string{
		"dev00": "! generated\nsnmp-server location pop1\n",
		"dev01": "# generated\nsnmp {\n location pop1;\n}\n",
		"dev04": "",
	} {
		cfgs[name] += extra
	}
	readback := map[string]string{}
	for _, d := range fleet.Devices() {
		readback[d.Name()], _ = d.RunningConfig()
	}
	const racing = "dev02"
	dev, _ := fleet.Device(racing)
	dryrunRead := readback[racing]
	drifting := &driftingTarget{Device: dev, drift: dryrunRead + "! chaos drift\nsnmp-server community leaked\nntp server 10.0.0.1\n"}
	readback[racing] = drifting.drift
	base := FleetResolver(fleet)
	dep := NewDeployer(func(name string) (Target, error) {
		if name == racing {
			return drifting, nil
		}
		return base(name)
	})

	rep, err := dep.Deploy(cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !drifting.drifted {
		t.Fatal("the racing device's running config never moved")
	}
	committed := 0
	for _, res := range rep.Results {
		if res.Action != "committed" {
			continue
		}
		committed++
		want := confdiff.Compute(readback[res.Device], cfgs[res.Device]).Stats(true)
		if res.Added != want.Added || res.Removed != want.Removed {
			t.Errorf("%s: result +%d/-%d, cold diff of its readback +%d/-%d", res.Device, res.Added, res.Removed, want.Added, want.Removed)
		}
	}
	if committed != len(cfgs) {
		t.Errorf("%d devices committed, want %d", committed, len(cfgs))
	}
	// The racing device's dryrun diff counts otherwise, so a result taken
	// from it would have failed above.
	if stale := confdiff.Compute(dryrunRead, cfgs[racing]).Stats(true); stale == confdiff.Compute(readback[racing], cfgs[racing]).Stats(true) {
		t.Fatalf("the drift left the racing device's stats at %+v: reuse and recompute agree", stale)
	}
}
