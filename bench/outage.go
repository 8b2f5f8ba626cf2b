package main

import (
	"fmt"
	"time"

	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/reconcile"
)

// One outage period, in monitoring cycles a virtual minute apart: quiet,
// then one site's fabric and spine switches unreachable for long enough
// that the 5-minute absence rule fires on each, then quiet again while
// everything resolves.
const (
	outagePeriod = 12
	outageDown   = 2 // first cycle of the period with the site down
	outageUp     = 9 // first cycle with it back
)

const (
	opCycleQuiet  = "cycle-quiet"
	opCycleOutage = "cycle-outage"
)

// monitorOutage is steady-state monitoring of the whole fleet with a
// site outage in every period: collection, Derived upserts, alarm
// evaluation with fire/correlate/resolve, and the operator's timeline
// and snapshot reads.
func (h *harness) monitorOutage() error {
	sz := h.sz
	err := h.build(func() (*world, error) {
		return h.buildDC(sz.sites, sz.racks, reconcile.Config{}, nil)
	})
	if err != nil {
		return err
	}
	order := h.rng.Perm(len(h.w.clusters)) // clusters take turns, in an order the seed picks
	for i := 0; i < sz.warmup+sz.ops; i++ {
		if i == sz.warmup {
			h.startTimed()
		}
		if i < sz.warmup {
			h.cycle(opCycleQuiet, "warm-up")
			continue
		}
		c := i - sz.warmup
		period, at := c/outagePeriod, c%outagePeriod
		site := outageSite(h.w.clusters[order[period%len(order)]])
		switch at {
		case outageDown:
			h.setDown(site, true)
		case outageUp:
			h.setDown(site, false)
		}
		kind := opCycleQuiet
		if at >= outageDown && at < outageUp {
			kind = opCycleOutage
		}
		snapshot := h.cycle(kind, site[0])
		switch at {
		case outageUp - 1:
			// Silent for over five minutes by now: every downed device
			// must have its own firing alarm.
			firing := map[string]bool{}
			for _, al := range snapshot {
				if al.Rule == "device-unreachable" && al.State == monitor.AlarmFiring {
					firing[al.Device] = true
				}
			}
			for _, name := range site {
				if !firing[name] {
					h.failf("%s is down and has no firing device-unreachable alarm", name)
				}
			}
		case outagePeriod - 1:
			for _, al := range snapshot {
				if al.State != monitor.AlarmResolved {
					h.failf("alarm %s on %s still %s at the end of the period", al.Rule, al.Device, al.State)
				}
			}
		}
	}
	return nil
}

// outageSite names the devices an outage of the cluster takes down: its
// fabric and spine switches.
func outageSite(cluster string) []string {
	var out []string
	for _, role := range []string{"fsw", "ssw"} {
		for n := 1; n <= dcCount(role); n++ {
			out = append(out, fmt.Sprintf("%s%d.%s", role, n, cluster))
		}
	}
	return out
}

func (h *harness) setDown(devices []string, down bool) {
	for _, name := range devices {
		if d, ok := h.w.r.Fleet.Device(name); ok {
			d.SetDown(down)
		}
	}
}

// polls reads the job manager's count of successful polls.
func (h *harness) polls() int {
	var total int64
	for _, n := range h.w.r.JobManager.Stats().Counts() {
		total += n
	}
	return int(total)
}

// cycle is one monitoring cycle a virtual minute after the last, plus
// the two reads an operator's dashboard makes; it returns the snapshot.
func (h *harness) cycle(kind, target string) []monitor.Alarm {
	r, t := h.w.r, h.trace
	h.advance(time.Minute)
	var snapshot []monitor.Alarm
	var timeline []monitor.TimelineEntry
	before := h.polls()
	h.op(kind, target, "monitor-outage.cycle", func() error {
		if _, err := h.observeOnce(); err != nil {
			return err
		}
		now := h.w.clk.Now()
		_ = t.stage("monitor.timeline_query", func() error {
			timeline = r.Alarms.Timeline(now.Add(-15*time.Minute), now)
			return nil
		})
		return t.stage("monitor.snapshot", func() error {
			snapshot = r.Alarms.Snapshot()
			return nil
		})
	})
	h.worked(h.polls() - before)
	for i := 1; i < len(timeline); i++ {
		if timeline[i].At.Before(timeline[i-1].At) {
			h.failf("timeline out of order at entry %d", i)
			break
		}
	}
	return snapshot
}
