package deploy

import (
	"errors"
	"maps"
	"testing"

	"github.com/robotron-net/robotron/internal/confdiff"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/vclock"
)

// driftingTarget edits its device's running config out of band once, as
// the dryrun discards its candidate: a running config read after the
// dryrun differs from one the dryrun read.
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
// device's stage read against the config deployed. A vendor-1 stage reads
// the running config once, in its emulated dryrun, and counts from that
// dryrun's own diff; a vendor-2 stage's native dryrun reads none, so the
// stage reads it after the dryrun. One device of each vendor drifts as its
// dryrun ends: the vendor-1 one counts against the config before the
// drift, the vendor-2 one against the config after it.
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
	stageRead := map[string]string{}
	for _, d := range fleet.Devices() {
		stageRead[d.Name()], _ = d.RunningConfig()
	}
	drifting := map[string]*driftingTarget{}
	for name, drift := range map[string]string{
		"dev02": "! chaos drift\nsnmp-server community leaked\nntp server 10.0.0.1\n",
		"dev03": "snmp {\n community leaked;\n}\nntp {\n server 10.0.0.1;\n}\n",
	} {
		dev, _ := fleet.Device(name)
		before := stageRead[name]
		drifting[name] = &driftingTarget{Device: dev, drift: before + drift}
		if dev.Vendor() == netsim.Vendor2 {
			stageRead[name] = drifting[name].drift
		}
		// The drift counts otherwise, so a stats taken from the wrong
		// read fails below.
		if confdiff.Compute(before, cfgs[name]).Stats(true) == confdiff.Compute(before+drift, cfgs[name]).Stats(true) {
			t.Fatalf("%s: the drift leaves the stats at %+v", name, confdiff.Compute(before, cfgs[name]).Stats(true))
		}
	}
	base := FleetResolver(fleet)
	dep := NewDeployer(func(name string) (Target, error) {
		if d, ok := drifting[name]; ok {
			return d, nil
		}
		return base(name)
	}, vclock.RealClock(), nil)

	rep, err := dep.Deploy(cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range drifting {
		if !d.drifted {
			t.Fatalf("%s: the running config never moved", name)
		}
	}
	committed := 0
	for _, res := range rep.Results {
		if res.Action != "committed" {
			continue
		}
		committed++
		want := confdiff.Compute(stageRead[res.Device], cfgs[res.Device]).Stats(true)
		if res.Added != want.Added || res.Removed != want.Removed {
			t.Errorf("%s: result +%d/-%d, cold diff of what its stage read +%d/-%d", res.Device, res.Added, res.Removed, want.Added, want.Removed)
		}
	}
	if committed != len(cfgs) {
		t.Errorf("%d devices committed, want %d", committed, len(cfgs))
	}
}

// verbCounter counts the management verbs a deployer's stage issues to
// its device.
type verbCounter struct {
	*netsim.Device
	verbs map[string]int
}

func (c *verbCounter) LoadConfig(cfg string) error {
	c.verbs["load-config"]++
	return c.Device.LoadConfig(cfg)
}

func (c *verbCounter) DryrunDiff() (string, error) {
	c.verbs["compare"]++
	return c.Device.DryrunDiff()
}

func (c *verbCounter) DiscardCandidate() error {
	c.verbs["discard"]++
	return c.Device.DiscardCandidate()
}

func (c *verbCounter) RunningConfig() (string, error) {
	c.verbs["show running-config"]++
	return c.Device.RunningConfig()
}

// TestStageIssuesOneReadPerDevice pins one staged device's management
// operations per verb, for each vendor: a vendor-1 stage reads the running
// config once, in its emulated dryrun, and counts from that dryrun's diff;
// a vendor-2 stage's native dryrun reads none, so the stage reads it once
// after. The device's own count of every verb it served must equal the
// verbs counted here, so no verb goes uncounted.
func TestStageIssuesOneReadPerDevice(t *testing.T) {
	fleet, _, _ := newTestFleet(t, 2)
	want := map[string]int{"load-config": 1, "compare": 1, "discard": 1, "show running-config": 1}
	for _, dev := range fleet.Devices() {
		c := &verbCounter{Device: dev, verbs: map[string]int{}}
		dep := NewDeployer(func(string) (Target, error) { return c, nil }, vclock.RealClock(), nil)
		before := dev.MgmtOps()
		_, err := dep.Deploy(map[string]string{dev.Name(): baseConfig(dev.Vendor(), dev.Name(), 2)},
			Options{Review: func(string, string) bool { return false }})
		if !errors.Is(err, ErrReviewRejected) {
			t.Fatalf("%s: Deploy returned %v, want the review's rejection", dev.Name(), err)
		}
		if !maps.Equal(c.verbs, want) {
			t.Errorf("%s (vendor %v): stage issued %v, want %v", dev.Name(), dev.Vendor(), c.verbs, want)
		}
		total := 0
		for _, n := range c.verbs {
			total += n
		}
		if served := dev.MgmtOps() - before; served != int64(total) {
			t.Errorf("%s: device served %d management operations, %d counted", dev.Name(), served, total)
		}
	}
}
