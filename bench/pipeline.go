package main

import (
	"fmt"
	"strings"

	"github.com/robotron-net/robotron/internal/audit"
	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/verify"
)

// The functions below are the harness's two ways through the pipeline.
// With tracing off for the current op they call core's production entry
// points. With tracing on they call the same layers' public functions in
// the order core does, one span per call — stage attribution taken from
// outside the program, until the program grows spans of its own.

// generateAndDeploy is core.GenerateAndDeploy.
func (h *harness) generateAndDeploy(devices []string, opts deploy.Options) error {
	r, t := h.w.r, h.trace
	if !t.on() {
		rep, err := r.GenerateAndDeploy(devices, opts, "bench")
		if err != nil {
			return err
		}
		return failedDevices(rep)
	}

	var configs map[string]string
	if err := t.stage("configgen.generate", func() (err error) {
		configs, err = r.Generator.GenerateMany(devices, r.GenerateParallelism)
		return err
	}); err != nil {
		return err
	}
	var res verify.Result
	if err := t.stage("verify.check", func() (err error) {
		res, err = r.Verifier.Check(configs)
		return err
	}); err != nil {
		return err
	}
	summaries := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		summaries = append(summaries, fmt.Sprintf("[%s] %s: %s", v.Invariant, v.Device, v.Detail))
	}
	if err := t.stage("audit.record", func() error {
		return audit.RecordGate(r.Store, res.Devices, summaries, h.w.clk.Now().Unix())
	}); err != nil {
		return err
	}
	if !res.Pass() {
		return &verify.RejectionError{Result: res}
	}
	if err := t.stage("revctl.commit_golden", func() error {
		for name, cfg := range configs {
			if _, err := r.Generator.CommitGolden(name, cfg, "bench", "incremental update intent"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	opts.Parallelism = r.DeployParallelism
	opts.Retry = r.DeployRetry
	var rep deploy.Report
	if err := t.stage("deploy.deploy", func() (err error) {
		rep, err = r.Deployer.Deploy(configs, opts)
		return err
	}); err != nil {
		return err
	}
	if err := failedDevices(rep); err != nil {
		return err
	}
	if err := t.stage("audit.record", func() error {
		return audit.RecordDeploy(r.Store, "deploy", len(configs), "by bench", h.w.clk.Now().Unix())
	}); err != nil {
		return err
	}
	if err := t.stage("monitor.derive_jobs", r.DeriveMonitoring); err != nil {
		return err
	}
	return t.stage("reconcile.verify_devices", func() error {
		r.Reconciler.VerifyDevices(devices, nil)
		return nil
	})
}

// failedDevices turns per-device failures a deployment reported without
// returning an error into one.
func failedDevices(rep deploy.Report) error {
	if n := len(rep.Failed()); n > 0 {
		return fmt.Errorf("deploy reported %d failed device(s), first: %s: %v", n, rep.Failed()[0].Device, rep.Failed()[0].Err)
	}
	return nil
}

// adhoc is the spec core.CollectOnce runs for an installed job.
func adhoc(spec monitor.JobSpec) monitor.JobSpec {
	return monitor.JobSpec{
		Name: "adhoc-" + spec.Name, Period: spec.Period, Engine: spec.Engine,
		Data: spec.Data, Devices: spec.Devices, AllDevices: spec.AllDevices,
		Backends: spec.Backends,
	}
}

// observeAffected is the monitoring half of "converged": the affected
// devices' derived jobs run once and the alarm engine evaluates, so the
// op ends only when monitoring has seen the new state. Returns the
// alarms firing afterwards.
func (h *harness) observeAffected(devices []string) ([]monitor.Alarm, error) {
	r, t := h.w.r, h.trace
	affected := make(map[string]bool, len(devices))
	for _, d := range devices {
		affected[d] = true
	}
	var firing []monitor.Alarm
	err := t.stage("monitor.observe_affected", func() error {
		for _, spec := range r.JobManager.Jobs() {
			if !strings.HasPrefix(spec.Name, "derived-") || len(spec.Devices) != 1 || !affected[spec.Devices[0]] {
				continue
			}
			if _, err := r.JobManager.RunOnce(adhoc(spec)); err != nil {
				return err
			}
		}
		firing = r.Alarms.Evaluate()
		return nil
	})
	return firing, err
}

// observeOnce is core.ObserveOnce.
func (h *harness) observeOnce() ([]monitor.Alarm, error) {
	r, t := h.w.r, h.trace
	if !t.on() {
		return r.ObserveOnce()
	}
	if err := t.stage("monitor.collect", func() error {
		for _, spec := range r.JobManager.Jobs() {
			if _, err := r.JobManager.RunOnce(adhoc(spec)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := t.stage("monitor.derive_circuits", func() error {
		_, err := monitor.DeriveCircuits(r.Store)
		return err
	}); err != nil {
		return nil, err
	}
	var firing []monitor.Alarm
	_ = t.stage("monitor.alarm_eval", func() error {
		firing = r.Alarms.Evaluate()
		return nil
	})
	return firing, nil
}
