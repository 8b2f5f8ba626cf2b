package main

import (
	"fmt"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/reconcile"
)

// churnSpan is the virtual time a churn workload's ops are spread over.
// It stays under the 5-minute absence window of the derived
// device-unreachable rule: the harness collects only the devices an op
// touched, so a longer span would make every other device look silent
// and fire alarms that say nothing about the change under test.
const churnSpan = 4 * time.Minute

// sweepEvery is how many ops pass between reconciler sweeps.
const sweepEvery = 20

// rackChurn is §2.2's most common DC task: one rack added to one of the
// clusters, pushed to the new TOR and the cluster's fabric switches, and
// observed by monitoring.
func (h *harness) rackChurn() error {
	sz := h.sz
	step := churnSpan / time.Duration(sz.warmup+sz.ops)
	err := h.build(func() (*world, error) {
		return h.buildDC(sz.sites, sz.racks, reconcile.Config{SweepInterval: sweepEvery * step}, nil)
	})
	if err != nil {
		return err
	}
	racks := make(map[string]int, len(h.w.clusters))
	for _, c := range h.w.clusters {
		racks[c] = sz.racks
	}
	// Seeded site rotation: every cluster once per lap, lap order reshuffled.
	var lap []int
	next := func() string {
		if len(lap) == 0 {
			lap = h.rng.Perm(len(h.w.clusters))
		}
		c := h.w.clusters[lap[0]]
		lap = lap[1:]
		return c
	}
	for i := 0; i < sz.warmup+sz.ops; i++ {
		if i == sz.warmup {
			h.startTimed()
		}
		cluster := next()
		racks[cluster]++
		h.addRack(cluster, racks[cluster])
		h.advance(step)
	}
	return nil
}

func (h *harness) addRack(cluster string, n int) {
	r, t := h.w.r, h.trace
	tor := fmt.Sprintf("tor%d.%s", n, cluster)
	var devices []string
	var firing []monitor.Alarm
	h.op("add-rack", tor, "rack-churn.change", func() error {
		if err := t.stage("design.change", func() error {
			cr, err := r.Designer.AddRack(h.w.ctx("dc", "add rack to "+cluster), cluster, "TOR_Vendor1", "fsw", 4, true, false)
			h.objects += cr.Stats.Total()
			return err
		}); err != nil {
			return err
		}
		if err := t.stage("core.sync_fleet", r.SyncFleet); err != nil {
			return err
		}
		if err := t.stage("fbnet.affected_query", func() error {
			fsw, err := h.devicesMatching(fbnet.And(fbnet.Eq("cluster.name", cluster), fbnet.Eq("role", "fsw")))()
			devices = append([]string{tor}, fsw...)
			return err
		}); err != nil {
			return err
		}
		h.wrapSinks(devices)
		if err := h.generateAndDeploy(devices, deploy.Options{}); err != nil {
			return err
		}
		var err error
		firing, err = h.observeAffected(devices)
		return err
	})
	h.worked(1)
	if want := 1 + dcCount("fsw"); len(devices) != want {
		h.failf("affected set of %s has %d devices, want the TOR and every fsw: %d", tor, len(devices), want)
	}
	h.checkGolden(devices)
	h.checkSessions(tor, 4)
	h.checkQuiet(firing, devices)
}
