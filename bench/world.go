package main

import (
	"fmt"
	"time"

	"github.com/robotron-net/robotron/internal/core"
	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/vclock"
)

// epoch is where every world's virtual clock starts.
var epoch = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

// world is one assembled Robotron on a virtual clock.
type world struct {
	r   *core.Robotron
	clk *vclock.VirtualClock
	// clusters lists the DC clusters in site order; empty in the
	// backbone world.
	clusters []string
}

func (w *world) ctx(domain, what string) design.ChangeContext {
	return design.ChangeContext{
		EmployeeID: "bench", TicketID: "BENCH-1", Description: what,
		Domain: domain, NowUnix: w.clk.Now().Unix(),
	}
}

// dcCount is how many devices of a role every DC cluster has, read off
// the template the sites are built from.
func dcCount(role string) int {
	for _, ds := range design.DCGen3(0).Devices {
		if ds.Role == role {
			return ds.Count
		}
	}
	return 0
}

// dcSiteSize is the device count of one DCGen3(racks) site.
func dcSiteSize(racks int) int {
	return dcCount("dr") + dcCount("ssw") + dcCount("fsw") + racks
}

// newCore builds an empty Robotron on a fresh virtual clock. The
// reconciler is always on (GenerateAndDeploy's conformance pass is part
// of intent-to-converged); rc tunes it per workload. A non-nil wrapDeps
// makes the harness build the reconciler itself, around wrapped
// collaborators, instead of core.
func (h *harness) newCore(rc reconcile.Config, wrapDeps func(reconcile.Deps) reconcile.Deps) (*world, error) {
	clk := vclock.NewVirtualClock(epoch)
	rc.Clock = clk
	opts := core.Options{Clock: clk, EnableReconciler: wrapDeps == nil, Reconcile: rc}
	if h.sz.serial {
		opts.DeployParallelism, opts.GenerateParallelism = 1, 1
	}
	r, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	if wrapDeps != nil {
		attachReconciler(r, rc, wrapDeps)
	}
	return &world{r: r, clk: clk}, nil
}

// buildDC provisions `sites` DC sites of one DCGen3(racks) cluster each
// through ProvisionCluster, so set-up time is the cluster turn-up number.
func (h *harness) buildDC(sites, racks int, rc reconcile.Config, wrapDeps func(reconcile.Deps) reconcile.Deps) (*world, error) {
	w, err := h.newCore(rc, wrapDeps)
	if err != nil {
		return nil, err
	}
	for i := 1; i <= sites; i++ {
		site := fmt.Sprintf("dc%d", i)
		cluster := site + "-c1"
		if _, err := w.r.Designer.EnsureSite(site, "dc", "nam"); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := w.r.ProvisionCluster(w.ctx("dc", "turn up "+cluster), site, cluster, design.DCGen3(racks)); err != nil {
			return nil, fmt.Errorf("provision %s: %w", cluster, err)
		}
		h.provision = append(h.provision, time.Since(start))
		// BuildResult.DeviceNames omits the template racks' TORs, so
		// ProvisionCluster leaves them without config or golden (README,
		// "Provisioning gap"); close it the way an operator would.
		tors := make([]string, racks)
		for n := range tors {
			tors[n] = fmt.Sprintf("tor%d.%s", n+1, cluster)
		}
		if _, err := w.r.GenerateAndDeploy(tors, deploy.Options{}, "bench"); err != nil {
			return nil, fmt.Errorf("provision %s TORs: %w", cluster, err)
		}
		w.clusters = append(w.clusters, cluster)
	}
	return w, nil
}
