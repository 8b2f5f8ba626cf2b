package reconcile

import (
	"fmt"

	"github.com/robotron-net/robotron/internal/telemetry"
)

// reconcileMetrics are the loop's counter bindings. The reconciler binds
// them to a private registry at construction so Stats() always works;
// Instrument rebinds them to a shared registry. All increments happen
// under Reconciler.mu, so rebinding is race-free, but counts recorded
// before Instrument stay on the old registry — instrument before
// starting the loop.
type reconcileMetrics struct {
	detected         *telemetry.Counter
	remediated       *telemetry.Counter
	converged        *telemetry.Counter
	quarantined      *telemetry.Counter
	budgetTrips      *telemetry.Counter
	retries          *telemetry.Counter
	checkErrors      *telemetry.Counter
	suppressed       *telemetry.Counter
	transportRetries *telemetry.Counter
}

func bindReconcileMetrics(reg *telemetry.Registry) reconcileMetrics {
	c := func(name, help string) *telemetry.Counter {
		reg.Help(name, help)
		return reg.Counter(name)
	}
	return reconcileMetrics{
		detected:         c("robotron_reconcile_detected_total", "deviations that entered the loop"),
		remediated:       c("robotron_reconcile_remediated_total", "successful remediation deployments"),
		converged:        c("robotron_reconcile_converged_total", "devices driven back to running == golden"),
		quarantined:      c("robotron_reconcile_quarantined_total", "devices parked for operator review"),
		budgetTrips:      c("robotron_reconcile_budget_trips_total", "safety-budget circuit-breaker openings"),
		retries:          c("robotron_reconcile_retries_total", "failed remediation attempts rescheduled"),
		checkErrors:      c("robotron_reconcile_check_errors_total", "conformance checks that errored (retried)"),
		suppressed:       c("robotron_reconcile_suppressed_total", "deviations ignored on quarantined devices"),
		transportRetries: c("robotron_reconcile_transport_retries_total", "remediations rescheduled after transport faults (no quarantine credit)"),
	}
}

// Instrument rebinds the outcome counters to reg and registers live
// state gauges (tracked devices by state, breaker position) plus a
// health check that fails while the circuit breaker is open.
// Instrument(nil) detaches everything back onto no-op counters.
func (r *Reconciler) Instrument(reg *telemetry.Registry) {
	r.mu.Lock()
	r.met = bindReconcileMetrics(reg)
	r.reg = reg
	// Shards created before Instrument carry their per-shard metrics over
	// to the new registry (their trip counts restart from zero there, as
	// the outcome counters do).
	for _, sh := range r.shards {
		sh.tripsCounter = reg.Counter("robotron_reconcile_shard_trips_total",
			telemetry.Label{Key: "shard", Value: sh.name})
		r.instrumentShardLocked(sh)
	}
	r.mu.Unlock()
	if reg == nil {
		return
	}
	reg.Help("robotron_reconcile_devices", "tracked devices by reconciliation state")
	for _, s := range []State{StateDetected, StateBackoff, StateRemediating, StateConfirming, StateConverged, StateQuarantined} {
		reg.GaugeFunc("robotron_reconcile_devices",
			func() float64 { return float64(r.countState(s)) },
			telemetry.Label{Key: "state", Value: string(s)})
	}
	reg.Help("robotron_reconcile_breaker_open", "1 while any shard's safety-budget circuit breaker is open")
	reg.GaugeFunc("robotron_reconcile_breaker_open", func() float64 {
		if r.Tripped() {
			return 1
		}
		return 0
	})
	reg.RegisterHealth("reconcile-breaker", func() (string, error) {
		if r.Tripped() {
			return "", fmt.Errorf("safety-budget circuit breaker is open — inspect drift and ResetBreaker()")
		}
		return "breaker closed", nil
	})
}

// instrumentShardLocked registers one shard's labeled gauges on the
// current registry. Called under r.mu; safe because the registry's
// exporters invoke gauge callbacks outside the registry lock, so the
// r.mu→registry.mu order here is one-way.
func (r *Reconciler) instrumentShardLocked(sh *shard) {
	reg := r.reg
	if reg == nil {
		return
	}
	name := sh.name
	label := telemetry.Label{Key: "shard", Value: name}
	reg.Help("robotron_reconcile_shard_breaker_open", "1 while this shard's circuit breaker is open")
	reg.GaugeFunc("robotron_reconcile_shard_breaker_open", func() float64 {
		if r.ShardTripped(name) {
			return 1
		}
		return 0
	}, label)
	reg.Help("robotron_reconcile_shard_active", "in-flight remediations in this shard")
	reg.GaugeFunc("robotron_reconcile_shard_active", func() float64 {
		return float64(r.shardGauge(name, func(sh *shard) int { return sh.active }))
	}, label)
	reg.Help("robotron_reconcile_shard_backlog", "open devices awaiting remediation in this shard")
	reg.GaugeFunc("robotron_reconcile_shard_backlog", func() float64 {
		return float64(r.shardGauge(name, func(sh *shard) int { return sh.open - sh.active }))
	}, label)
	reg.Help("robotron_reconcile_shard_trips_total", "circuit-breaker openings in this shard")
}

// shardGauge reads one shard field under the lock for a gauge callback.
func (r *Reconciler) shardGauge(name string, f func(*shard) int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh := r.shards[name]
	if sh == nil {
		return 0
	}
	return f(sh)
}

// countState counts tracked devices currently in state s.
func (r *Reconciler) countState(s State) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ds := range r.devices {
		if ds.state == s {
			n++
		}
	}
	return n
}

// VerifyDevices runs a synchronous conformance pass over the named
// devices — the post-deploy hook that closes the pipeline trace. Each
// check records a "verify-device" child span under span (nil disables
// tracing); drift and check errors feed the normal reconciliation loop
// exactly as the periodic sweep would. Returns the number of devices
// checked.
func (r *Reconciler) VerifyDevices(devices []string, span *telemetry.Span) int {
	checked := 0
	for _, name := range devices {
		r.mu.Lock()
		stopped := r.stopped
		r.mu.Unlock()
		if stopped {
			break
		}
		sp := span.Child("verify-device")
		sp.SetAttr("device", name)
		checked++
		dev, err := r.deps.Checker.CheckDevice(name)
		switch {
		case err != nil:
			sp.SetAttr("result", "check-error")
			r.HandleCheckError(name, err)
		case dev != nil:
			sp.SetAttr("result", "drift")
			r.noteDrift(dev.Device, fmt.Sprintf("post-deploy verify: drift +%d/-%d lines", dev.Added, dev.Removed))
		default:
			sp.SetAttr("result", "conforming")
			r.checkPassed(name)
		}
		sp.End()
	}
	return checked
}
