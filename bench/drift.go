package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/core"
	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/revctl"
)

// Storm kinds alternate: even rounds append a line nobody designed, odd
// rounds cut every BGP neighbor line, which also takes sessions down.
const (
	opStormRogue = "storm-rogue-line"
	opStormCut   = "storm-cut-bgp"
)

// driftStorm is the closed loop with design and verify idle: a quarter
// of the fleet drifts out-of-band at once and the reconciler, fed by
// config monitoring, drives every device back to its golden.
func (h *harness) driftStorm() error {
	sz := h.sz
	fleet := sz.sites * dcSiteSize(sz.racks)
	rc := reconcile.Config{
		// The budget is opened, as in BenchmarkScaleReconcileConverge: a
		// storm this size would otherwise trip the breaker, which is the
		// drills' subject, not this benchmark's.
		BudgetMaxDevices: fleet, BudgetMaxFraction: 1.0, DampingThreshold: -1,
		SweepInterval: 5 * time.Minute,
	}
	var wrap func(reconcile.Deps) reconcile.Deps
	if h.trace != nil {
		wrap = h.trace.wrapDeps
	}
	err := h.build(func() (*world, error) { return h.buildDC(sz.sites, sz.racks, rc, wrap) })
	if err != nil {
		return err
	}
	// Every storm drifts the same share of each role: a dr's config is
	// many times a TOR's, so an unstratified draw would make storms (and
	// seeds) differ in size of work, not just in which devices they hit.
	byRole := map[string][]string{}
	var roles []string
	for _, d := range h.w.r.Fleet.Devices() {
		if byRole[d.Role()] == nil {
			roles = append(roles, d.Role())
		}
		byRole[d.Role()] = append(byRole[d.Role()], d.Name())
	}
	for i := 0; i < sz.warmup+sz.ops; i++ {
		if i == sz.warmup {
			h.startTimed()
		}
		var devices []string
		for _, role := range roles {
			pool := byRole[role]
			for _, j := range h.rng.Perm(len(pool))[:len(pool)*sz.storm/fleet] {
				devices = append(devices, pool[j])
			}
		}
		h.storm(i, devices)
		h.advance(time.Minute)
	}
	// The journal is the budget's witness: in-flight remediations, fleet
	// wide and per failure domain, never exceeded what was allowed.
	j := h.w.r.Reconciler.Journal()
	if got := j.MaxActive(); got > fleet {
		h.failf("journal shows %d remediations in flight, budget %d", got, fleet)
	}
	for shard, got := range j.MaxActiveByShard() {
		if limit := dcSiteSize(sz.racks); got > limit {
			h.failf("journal shows %d remediations in flight in %s, budget %d", got, shard, limit)
		}
	}
	return nil
}

// drift returns the device's running config with round's damage done.
func drift(running string, round int) string {
	if !strings.HasSuffix(running, "\n") {
		running += "\n"
	}
	if round%2 == 1 {
		var kept []string
		for _, line := range strings.Split(strings.TrimSuffix(running, "\n"), "\n") {
			if !strings.Contains(line, "neighbor ") {
				kept = append(kept, line)
			}
		}
		if cut := strings.Join(kept, "\n") + "\n"; cut != running {
			return cut
		}
	}
	return running + fmt.Sprintf("snmp-server community rogue-%d ro\n", round)
}

func (h *harness) storm(round int, devices []string) {
	r, t := h.w.r, h.trace
	kind := opStormRogue
	if round%2 == 1 {
		kind = opStormCut
	}
	h.op(kind, strings.Join(devices, ","), "drift-storm.storm", func() error {
		if err := t.stage("netsim.inject", func() error {
			for _, name := range devices {
				d, ok := r.Fleet.Device(name)
				if !ok {
					return fmt.Errorf("%s is not in the fleet", name)
				}
				if err := d.InjectRunningConfig(drift(d.PeekRunningConfig(), round)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		return t.stage("reconcile.converge", func() error {
			for tries := 0; tries < 30; tries++ {
				h.w.clk.Advance(2 * time.Second)
				states := r.Reconciler.States()
				open := 0
				for _, name := range devices {
					if states[name] != reconcile.StateConverged {
						open++
					}
				}
				if open == 0 {
					return nil
				}
			}
			return fmt.Errorf("storm did not converge within a virtual minute")
		})
	})
	h.worked(len(devices))
	h.checkGolden(devices)
}

// --- traced runs: the harness's own reconciler ---

// attachReconciler wires a reconciler into r exactly as core.New does
// with EnableReconciler, except that its collaborators pass through
// wrap first. A traced drift-storm needs this: the reconciler calls its
// Deps from inside timer callbacks, and Deps cannot be reached from
// outside once core has built it.
func attachReconciler(r *core.Robotron, rc reconcile.Config, wrap func(reconcile.Deps) reconcile.Deps) {
	fleet := r.Fleet
	var sizes struct {
		sync.Mutex
		fleetLen int
		bySite   map[string]int
	}
	rec := reconcile.New(wrap(reconcile.Deps{
		Golden:    r.Generator,
		Deployer:  r.Deployer,
		Checker:   r.ConfigMon,
		FleetSize: func() int { return len(fleet.Devices()) },
		SweepList: func() []string { return monitor.SortedDeviceNames(fleet) },
		SiteOf: func(device string) string {
			if d, ok := fleet.Device(device); ok {
				return d.Site()
			}
			return ""
		},
		ShardFleetSize: func(shard string) int {
			devs := fleet.Devices()
			sizes.Lock()
			defer sizes.Unlock()
			if sizes.bySite == nil || sizes.fleetLen != len(devs) {
				bySite := make(map[string]int)
				for _, d := range devs {
					s := d.Site()
					if s == "" {
						s = reconcile.DeriveShard(d.Name())
					}
					bySite[s]++
				}
				sizes.bySite, sizes.fleetLen = bySite, len(devs)
			}
			return sizes.bySite[shard]
		},
	}), rc)
	r.ConfigMon.OnDeviation(rec.HandleDeviation)
	r.ConfigMon.OnCheckError(rec.HandleCheckError)
	rec.Instrument(r.Telemetry)
	rec.Start()
	r.Reconciler = rec
	r.Alarms.SetJournalSource(func() []monitor.JournalEntry {
		evs := rec.Journal().Events()
		out := make([]monitor.JournalEntry, len(evs))
		for i, ev := range evs {
			out[i] = monitor.JournalEntry{At: ev.At, Device: ev.Device, Type: string(ev.Type), Detail: ev.Detail}
		}
		return out
	})
}

// wrapDeps puts a span around each call the reconciler makes into its
// collaborators. They all happen on the client goroutine, inside the
// clock advance that fired the timer.
func (t *tracer) wrapDeps(d reconcile.Deps) reconcile.Deps {
	d.Golden = timedGolden{d.Golden, t}
	d.Deployer = timedDeployer{d.Deployer, t}
	d.Checker = timedChecker{d.Checker, t}
	return d
}

type timedGolden struct {
	inner reconcile.GoldenSource
	t     *tracer
}

func (g timedGolden) GenerateDevice(name string) (cfg string, err error) {
	err = g.t.stage("configgen.golden", func() (e error) { cfg, e = g.inner.GenerateDevice(name); return })
	return
}

func (g timedGolden) CommitGolden(device, config, author, message string) (rev revctl.Revision, err error) {
	err = g.t.stage("revctl.commit_golden", func() (e error) {
		rev, e = g.inner.CommitGolden(device, config, author, message)
		return
	})
	return
}

type timedDeployer struct {
	inner reconcile.ConfigDeployer
	t     *tracer
}

func (d timedDeployer) Deploy(configs map[string]string, opts deploy.Options) (rep deploy.Report, err error) {
	err = d.t.stage("deploy.deploy", func() (e error) { rep, e = d.inner.Deploy(configs, opts); return })
	return
}

type timedChecker struct {
	inner reconcile.Checker
	t     *tracer
}

func (c timedChecker) CheckDevice(device string) (dev *monitor.Deviation, err error) {
	err = c.t.stage("monitor.check_device", func() (e error) { dev, e = c.inner.CheckDevice(device); return })
	return
}
