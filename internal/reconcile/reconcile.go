// Package reconcile closes Robotron's monitoring loop (SIGCOMM '16, §3,
// §5.4.3): config monitoring *detects* running-config drift; this package
// *drives it back* to the golden intent, automatically and safely.
//
// Each drifting device moves through an explicit state machine —
// detected → backoff → remediating → confirming → converged|quarantined —
// with the robustness machinery a production control loop needs:
//
//   - Deterministic per-device exponential backoff (jitter-free; a
//     virtual clock makes schedules reproducible in tests).
//   - Flap damping: a device that keeps drifting inside the damping
//     window is quarantined for operator review instead of being fought.
//   - Failure-domain sharding: every device maps to a shard (its FBNet
//     site, or a deterministic name-prefix fallback) that owns its own
//     safety budget min(K, X·shard_fleet) and circuit breaker — a drift
//     storm in one site trips only that shard while every other domain
//     keeps converging. Mass drift usually means the *desired* state is
//     wrong, and redeploying it everywhere would propagate the error. A
//     single-domain loop is the one-shard case.
//   - Paced drain on breaker reset: the backlog is released one device
//     per second per shard instead of re-arming everything at once.
//   - A durable event journal and counters, so every decision the loop
//     made is auditable after the fact — and replayable: a restarted
//     reconciler built with ResumeFromJournal picks up exactly where the
//     killed process stopped (see recover.go).
//
// Remediation itself reuses the existing pipeline: the memoized config
// generator recomputes golden intent, and the deployment engine pushes it
// with commit-confirm so a failed health check rolls the device back.
package reconcile

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
)

// GoldenSource regenerates and records a device's intended config;
// *configgen.Generator implements it (memoized, so a fleet-wide sweep
// after a small change costs O(changed devices)).
type GoldenSource interface {
	GenerateDevice(name string) (string, error)
	CommitGolden(device, config, author, message string) (revctl.Revision, error)
}

// ConfigDeployer pushes configs; *deploy.Deployer implements it.
type ConfigDeployer interface {
	Deploy(configs map[string]string, opts deploy.Options) (deploy.Report, error)
}

// Checker re-collects a device's running config and compares it to
// golden; *monitor.ConfigMonitor implements it. A nil Deviation means the
// device conforms.
type Checker interface {
	CheckDevice(device string) (*monitor.Deviation, error)
}

// Deps are the reconciler's collaborators.
type Deps struct {
	Golden   GoldenSource
	Deployer ConfigDeployer
	Checker  Checker
	// FleetSize sizes the fractional safety budget; nil or 0 falls back
	// to BudgetMaxDevices alone.
	FleetSize func() int
	// SweepList names the devices the periodic sweep checks; nil
	// disables sweeping regardless of SweepInterval.
	SweepList func() []string
	// SiteOf maps a device to its failure-domain shard (FBNet site
	// membership). Nil, or an empty return, falls back to the
	// deterministic name-prefix rule in DeriveShard.
	SiteOf func(device string) string
	// ShardFleetSize sizes one shard's fractional budget
	// min(K, X·shard_fleet); nil falls back to FleetSize.
	ShardFleetSize func(shard string) int
}

// Reconciler is the closed-loop drift controller. Construct with New,
// subscribe HandleDeviation to ConfigMonitor.OnDeviation (and
// HandleCheckError to OnCheckError), then Start.
type Reconciler struct {
	deps    Deps
	cfg     Config
	clock   vclock.Clock
	journal *Journal

	mu            sync.Mutex
	devices       map[string]*deviceState
	shards        map[string]*shard
	active        int // devices in remediating|confirming, fleet-wide
	trippedShards int // shards whose breaker is currently open
	stopped       bool
	met           reconcileMetrics
	reg           *telemetry.Registry // per-shard metric home; swapped by Instrument
	sweepTimer    vclock.Timer

	wg sync.WaitGroup // in-flight remediations
}

// New builds a reconciler; call Start to arm the periodic sweep.
func New(deps Deps, cfg Config) *Reconciler {
	cfg = cfg.withDefaults()
	// Private registry so Stats() works unwired; Instrument rebinds.
	reg := telemetry.NewRegistry()
	r := &Reconciler{
		deps:    deps,
		cfg:     cfg,
		clock:   cfg.Clock,
		journal: NewJournal(cfg.JournalSink),
		devices: make(map[string]*deviceState),
		shards:  make(map[string]*shard),
		met:     bindReconcileMetrics(reg),
		reg:     reg,
	}
	return r
}

// Start arms the periodic full-fleet sweep (no-op when SweepInterval is 0
// or no SweepList was provided). Event-driven reconciliation needs no
// Start: HandleDeviation works from construction.
func (r *Reconciler) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped || r.cfg.SweepInterval <= 0 || r.deps.SweepList == nil || r.sweepTimer != nil {
		return
	}
	r.armSweepLocked(r.cfg.SweepInterval)
}

// armSweepLocked schedules the next sweep after delay; each sweep then
// arms the one a SweepInterval later.
func (r *Reconciler) armSweepLocked(delay time.Duration) {
	r.sweepTimer = r.clock.AfterFunc(delay, func() {
		r.Sweep()
		r.mu.Lock()
		if !r.stopped {
			r.armSweepLocked(r.cfg.SweepInterval)
		}
		r.mu.Unlock()
	})
}

// Stop halts the loop: pending timers are cancelled, new deviations are
// ignored, and Stop blocks until in-flight remediations settle.
func (r *Reconciler) Stop() {
	r.mu.Lock()
	r.stopped = true
	if r.sweepTimer != nil {
		r.sweepTimer.Stop()
		r.sweepTimer = nil
	}
	for _, ds := range r.devices {
		if ds.timer != nil {
			ds.timer.Stop()
			ds.timer = nil
			ds.timerArmed = false
		}
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// HandleDeviation is the ConfigMonitor.OnDeviation subscriber: every
// detected drift enters the state machine here.
func (r *Reconciler) HandleDeviation(d monitor.Deviation) {
	r.noteDrift(d.Device, fmt.Sprintf("drift +%d/-%d lines", d.Added, d.Removed))
}

// noteDrift admits one drift observation for device name.
func (r *Reconciler) noteDrift(name, detail string) {
	var alerts []string
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	ds := r.ensureLocked(name)
	switch ds.state {
	case StateDetected, StateBackoff, StateRemediating, StateConfirming:
		// Already in the loop; the post-deploy check or the pending
		// timer covers this observation.
		r.mu.Unlock()
		return
	case StateQuarantined:
		r.met.suppressed.Inc()
		r.eventLocked(name, ds.shard, EvSuppressed, "drift on quarantined device ignored")
		r.mu.Unlock()
		return
	}
	now := r.clock.Now()
	ds.detections = pruneWindow(append(ds.detections, now), now, r.cfg.DampingWindow)
	r.met.detected.Inc()
	r.setStateLocked(ds, StateDetected, EvDetected, detail)
	// Flap damping: the device keeps drifting — stop fighting it.
	if r.cfg.DampingThreshold > 0 && len(ds.detections) >= r.cfg.DampingThreshold {
		r.met.quarantined.Inc()
		r.setStateLocked(ds, StateQuarantined,
			EvQuarantined, fmt.Sprintf("%d drifts within %v (flap damping)", len(ds.detections), r.cfg.DampingWindow))
		alerts = append(alerts, fmt.Sprintf("reconcile: %s quarantined after %d drifts within %v — operator review required",
			name, len(ds.detections), r.cfg.DampingWindow))
		r.mu.Unlock()
		r.fire(alerts)
		return
	}
	sh := ds.shard
	if sh.tripped {
		r.eventLocked(name, sh, EvHalted, "breaker open: drift recorded, remediation not scheduled")
		r.mu.Unlock()
		return
	}
	// Safety budget on *demand*, per failure domain: count every
	// unconverged device the loop is committed to in this shard (this one
	// included). Exceeding the budget means mass drift — halt the shard
	// instead of deploying; the rest of the fleet keeps converging.
	budget := r.shardBudgetLocked(sh)
	if sh.open > budget {
		r.tripShardLocked(sh, name,
			fmt.Sprintf("%d device(s) need remediation in shard %s, budget %d: shard halted", sh.open, sh.name, budget),
			&alerts)
		r.mu.Unlock()
		r.fire(alerts)
		return
	}
	r.scheduleLocked(ds, r.cfg.backoff(ds.attempt))
	r.mu.Unlock()
}

// HandleCheckError is the ConfigMonitor.OnCheckError subscriber: a
// conformance check that errored (device unreachable mid-check) lands in
// the retry queue instead of being dropped.
func (r *Reconciler) HandleCheckError(device string, err error) {
	var alerts []string
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.met.checkErrors.Inc()
	ds := r.ensureLocked(device)
	ds.checkAttempt++
	attempt := ds.checkAttempt
	detail := fmt.Sprintf("attempt %d: %v", attempt, err)
	if r.cfg.MaxCheckRetries > 0 && attempt > r.cfg.MaxCheckRetries {
		// Zero FireAt marks the give-up: replay must not re-arm a recheck.
		r.eventLocked(device, ds.shard, EvCheckError, detail)
		alerts = append(alerts, fmt.Sprintf("reconcile: conformance check on %s failed %d times (%v) — giving up until the next sweep",
			device, attempt, err))
		ds.checkAttempt = 0
		r.mu.Unlock()
		r.fire(alerts)
		return
	}
	delay := r.cfg.backoff(attempt - 1)
	r.eventAtLocked(device, ds.shard, EvCheckError, detail, r.clock.Now().Add(delay))
	r.clock.AfterFunc(delay, func() { r.recheck(device) })
	r.mu.Unlock()
}

// recheck re-runs the conformance check for a device whose earlier check
// errored. A deviation found here flows through noteDrift (directly and,
// with the real ConfigMonitor, via its OnDeviation handlers — noteDrift
// deduplicates).
func (r *Reconciler) recheck(device string) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	dev, err := r.deps.Checker.CheckDevice(device)
	if err != nil {
		r.HandleCheckError(device, err)
		return
	}
	r.checkPassed(device)
	if dev != nil {
		r.noteDrift(dev.Device, fmt.Sprintf("recheck: drift +%d/-%d lines", dev.Added, dev.Removed))
	}
}

// checkPassed zeroes a device's check-retry count after a conformance
// check that did not error. Nothing is journaled; ResumeFromJournal
// infers it.
func (r *Reconciler) checkPassed(device string) {
	r.mu.Lock()
	if ds := r.devices[device]; ds != nil {
		ds.checkAttempt = 0
	}
	r.mu.Unlock()
}

// Sweep runs one full-fleet conformance pass now, feeding any drift (or
// check error) into the loop. Returns the number of devices checked.
func (r *Reconciler) Sweep() int {
	r.mu.Lock()
	if r.stopped || r.deps.SweepList == nil {
		r.mu.Unlock()
		return 0
	}
	skip := make(map[string]bool, len(r.devices))
	for name, ds := range r.devices {
		// Devices in the loop or parked need no check. Behind an open
		// shard breaker drift is already known en masse; checking would
		// only journal halted-spam.
		skip[name] = ds.shard.tripped || isOpenState(ds.state) || ds.state == StateQuarantined
	}
	trippedShards := make(map[string]bool)
	for name, sh := range r.shards {
		if sh.tripped {
			trippedShards[name] = true
		}
	}
	r.mu.Unlock()
	list := r.deps.SweepList()
	checked := 0
	for _, name := range list {
		if skip[name] {
			continue
		}
		// Untracked devices still belong to a (possibly tripped) shard.
		if len(trippedShards) > 0 && trippedShards[r.shardNameOf(name)] {
			continue
		}
		checked++
		dev, err := r.deps.Checker.CheckDevice(name)
		if err != nil {
			r.HandleCheckError(name, err)
			continue
		}
		r.checkPassed(name)
		if dev != nil {
			r.noteDrift(dev.Device, fmt.Sprintf("sweep: drift +%d/-%d lines", dev.Added, dev.Removed))
		}
	}
	r.mu.Lock()
	r.eventLocked("", nil, EvSweep, fmt.Sprintf("%d device(s) checked", checked))
	r.mu.Unlock()
	return checked
}

// tryRemediate fires when a device's backoff delay elapses.
func (r *Reconciler) tryRemediate(name string) {
	var alerts []string
	r.mu.Lock()
	ds := r.devices[name]
	if r.stopped || ds == nil || ds.state != StateBackoff {
		r.mu.Unlock()
		return
	}
	ds.timerArmed = false
	ds.timer = nil
	sh := ds.shard
	if sh.tripped {
		// Breaker opened while we waited; park in backoff (no timer) for
		// ResetBreaker to resume.
		r.mu.Unlock()
		return
	}
	// Defense in depth: the demand-side trip in noteDrift keeps open
	// devices within budget, so in-flight remediations can never exceed
	// it — but verify at the acquire point too.
	budget := r.shardBudgetLocked(sh)
	if sh.active >= budget {
		r.tripShardLocked(sh, name,
			fmt.Sprintf("%d remediation(s) already in flight in shard %s, budget %d: shard halted", sh.active, sh.name, budget),
			&alerts)
		r.mu.Unlock()
		r.fire(alerts)
		return
	}
	r.active++
	sh.active++
	r.setStateLocked(ds, StateRemediating, EvRemediate, fmt.Sprintf("attempt %d", ds.attempt+1))
	r.wg.Add(1)
	r.mu.Unlock()
	r.remediate(name)
}

// remediate regenerates golden intent and redeploys it with
// commit-confirm, then settles the device's state.
func (r *Reconciler) remediate(name string) {
	defer r.wg.Done()
	err := r.remediateOnce(name)

	var alerts []string
	r.mu.Lock()
	r.active--
	ds := r.devices[name]
	if ds != nil {
		ds.shard.active--
	}
	if ds == nil || r.stopped {
		r.mu.Unlock()
		return
	}
	if err == nil {
		ds.attempt = 0
		ds.checkAttempt = 0
		ds.transportAttempt = 0
		r.met.remediated.Inc()
		r.met.converged.Inc()
		r.setStateLocked(ds, StateConverged, EvConverged, "running config matches golden")
		r.mu.Unlock()
		return
	}
	if deploy.Classify(err) != deploy.ClassPermanent {
		// Transport-layer failure: the management session flapped — the
		// device never *rejected* the config, so this must not count
		// toward quarantine. It rides the bounded check-retry budget
		// instead; on exhaustion the device parks as converged and the
		// next sweep re-detects whatever drift remains.
		ds.transportAttempt++
		r.met.transportRetries.Inc()
		if r.cfg.MaxCheckRetries > 0 && ds.transportAttempt > r.cfg.MaxCheckRetries {
			n := ds.transportAttempt
			ds.transportAttempt = 0
			r.setStateLocked(ds, StateConverged, EvTransportGiveUp,
				fmt.Sprintf("%d transport failures, last: %v — awaiting next sweep", n, err))
			alerts = append(alerts, fmt.Sprintf(
				"reconcile: %s unreachable during %d remediation attempt(s) (last: %v) — giving up until the next sweep",
				name, n, err))
			r.mu.Unlock()
			r.fire(alerts)
			return
		}
		r.eventLocked(name, ds.shard, EvTransportRetry, fmt.Sprintf("attempt %d: %v", ds.transportAttempt, err))
		r.scheduleLocked(ds, r.cfg.backoff(ds.transportAttempt-1))
		r.mu.Unlock()
		return
	}
	ds.attempt++
	if r.cfg.MaxAttempts > 0 && ds.attempt >= r.cfg.MaxAttempts {
		r.met.quarantined.Inc()
		r.setStateLocked(ds, StateQuarantined,
			EvQuarantined, fmt.Sprintf("%d failed remediation attempts, last: %v", ds.attempt, err))
		alerts = append(alerts, fmt.Sprintf("reconcile: %s quarantined after %d failed remediation attempts (last: %v)",
			name, ds.attempt, err))
		r.mu.Unlock()
		r.fire(alerts)
		return
	}
	r.met.retries.Inc()
	r.eventLocked(name, ds.shard, EvRetry, err.Error())
	r.scheduleLocked(ds, r.cfg.backoff(ds.attempt))
	r.mu.Unlock()
}

// remediateOnce performs one remediation attempt end to end.
func (r *Reconciler) remediateOnce(name string) error {
	cfg, err := r.deps.Golden.GenerateDevice(name)
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	if _, err := r.deps.Golden.CommitGolden(name, cfg, r.cfg.Author, "reconcile: restore drifted device"); err != nil {
		return fmt.Errorf("commit golden: %w", err)
	}
	rep, err := r.deps.Deployer.Deploy(map[string]string{name: cfg}, deploy.Options{
		ConfirmGrace: r.cfg.ConfirmGrace,
		Retry:        r.cfg.DeployRetry,
	})
	if err != nil {
		if rep.Pending != nil {
			_ = rep.Pending.Rollback()
		}
		return fmt.Errorf("deploy: %w", err)
	}
	r.mu.Lock()
	if ds := r.devices[name]; ds != nil && ds.state == StateRemediating {
		r.setStateLocked(ds, StateConfirming, EvConfirming, "provisional commit, health check")
	}
	r.mu.Unlock()
	// Health check while the commit is provisional: conforming confirms,
	// anything else rolls back inside the grace window.
	dev, cerr := r.deps.Checker.CheckDevice(name)
	healthy := cerr == nil && dev == nil
	if rep.Pending != nil {
		if healthy {
			if err := rep.Pending.Confirm(); err != nil {
				return fmt.Errorf("confirm: %w", err)
			}
		} else {
			_ = rep.Pending.Rollback()
		}
	}
	if cerr != nil {
		return fmt.Errorf("post-deploy check: %w", cerr)
	}
	if dev != nil {
		return fmt.Errorf("still deviating after deploy (+%d/-%d lines)", dev.Added, dev.Removed)
	}
	return nil
}

// Release returns a quarantined device to the loop and schedules an
// immediate conformance recheck.
func (r *Reconciler) Release(name string) error {
	r.mu.Lock()
	ds := r.devices[name]
	if ds == nil || ds.state != StateQuarantined {
		r.mu.Unlock()
		return fmt.Errorf("reconcile: %s is not quarantined", name)
	}
	ds.attempt = 0
	ds.checkAttempt = 0
	ds.detections = nil
	r.setStateLocked(ds, StateConverged, EvReleased, "operator released from quarantine")
	r.clock.AfterFunc(0, func() { r.recheck(name) })
	r.mu.Unlock()
	return nil
}

// Tripped reports whether any shard's safety-budget circuit breaker is
// open.
func (r *Reconciler) Tripped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trippedShards > 0
}

// ResetBreaker re-arms every tripped shard breaker: the operator has
// inspected the mass drift and wants the backlog drained — paced, one
// device per shard per drainEvery, on top of each device's own backoff.
func (r *Reconciler) ResetBreaker() {
	r.mu.Lock()
	if r.trippedShards == 0 {
		r.mu.Unlock()
		return
	}
	for _, name := range r.sortedShardNamesLocked() {
		sh := r.shards[name]
		if sh.tripped {
			sh.tripped = false
			r.trippedShards--
			r.eventLocked("", sh, EvBreakerReset, "operator re-armed shard "+sh.name)
		}
	}
	r.drainLocked(nil)
	r.mu.Unlock()
}

// ResetShardBreaker re-arms one shard's breaker and pace-drains only its
// backlog, leaving every other breaker position untouched.
func (r *Reconciler) ResetShardBreaker(name string) error {
	r.mu.Lock()
	sh := r.shards[name]
	if sh == nil {
		r.mu.Unlock()
		return fmt.Errorf("reconcile: unknown shard %q", name)
	}
	if sh.tripped {
		sh.tripped = false
		r.trippedShards--
		r.eventLocked("", sh, EvBreakerReset, "operator re-armed shard "+sh.name)
	}
	r.drainLocked(sh)
	r.mu.Unlock()
	return nil
}

// drainLocked releases the parked backlog: every open device without an
// armed timer (in only, when non-nil) is rescheduled at its own backoff
// plus a per-shard pacing offset — drainBatch devices per drainEvery —
// so a reset never re-creates the storm it is recovering from. Sorted
// order: timer order is remediation order, and map iteration would make
// the drain order (and the journal) differ run to run.
func (r *Reconciler) drainLocked(only *shard) {
	names := make([]string, 0, len(r.devices))
	for name := range r.devices {
		names = append(names, name)
	}
	sort.Strings(names)
	idx := make(map[*shard]int)
	for _, name := range names {
		ds := r.devices[name]
		if only != nil && ds.shard != only {
			continue
		}
		if ds.shard.tripped {
			continue
		}
		if (ds.state == StateDetected || ds.state == StateBackoff) && !ds.timerArmed {
			i := idx[ds.shard]
			idx[ds.shard]++
			pace := time.Duration(i/drainBatch) * drainEvery
			r.scheduleLocked(ds, r.cfg.backoff(ds.attempt)+pace)
		}
	}
}

func (r *Reconciler) sortedShardNamesLocked() []string {
	names := make([]string, 0, len(r.shards))
	for name := range r.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Stats returns a snapshot of the counters — a thin view over the
// registry bindings (see Instrument).
func (r *Reconciler) Stats() ReconcileStats {
	r.mu.Lock()
	m := r.met
	shardTrips := make(map[string]int64)
	for name, sh := range r.shards {
		if sh.trips > 0 {
			shardTrips[name] = sh.trips
		}
	}
	r.mu.Unlock()
	return ReconcileStats{
		Detected:         m.detected.Value(),
		Remediated:       m.remediated.Value(),
		Converged:        m.converged.Value(),
		Quarantined:      m.quarantined.Value(),
		BudgetTrips:      m.budgetTrips.Value(),
		Retries:          m.retries.Value(),
		CheckErrors:      m.checkErrors.Value(),
		Suppressed:       m.suppressed.Value(),
		TransportRetries: m.transportRetries.Value(),
		ShardTrips:       shardTrips,
	}
}

// Journal returns the event journal.
func (r *Reconciler) Journal() *Journal { return r.journal }

// States returns every tracked device's current state.
func (r *Reconciler) States() map[string]State {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]State, len(r.devices))
	for name, ds := range r.devices {
		out[name] = ds.state
	}
	return out
}

// Devices returns the exported per-device records.
func (r *Reconciler) Devices() []DeviceStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DeviceStatus, 0, len(r.devices))
	for _, ds := range r.devices {
		out = append(out, DeviceStatus{
			Device:     ds.name,
			Shard:      ds.shard.name,
			State:      ds.state,
			Attempts:   ds.attempt,
			Detections: len(ds.detections),
			ChangedAt:  ds.changedAt,
			Detail:     ds.lastDetail,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// --- internals ---

func (r *Reconciler) ensureLocked(name string) *deviceState {
	ds := r.devices[name]
	if ds == nil {
		now := r.clock.Now()
		ds = &deviceState{name: name, state: StateConverged, changedAt: now}
		ds.shard = r.shardLocked(r.shardNameOf(name))
		ds.shard.devices++
		r.devices[name] = ds
	}
	return ds
}

// scheduleLocked queues a remediation attempt after delay.
func (r *Reconciler) scheduleLocked(ds *deviceState, delay time.Duration) {
	r.applyStateLocked(ds, StateBackoff)
	ds.changedAt = r.clock.Now()
	detail := fmt.Sprintf("remediation in %v (attempt %d)", delay, ds.attempt+1)
	ds.lastDetail = detail
	r.eventAtLocked(ds.name, ds.shard, EvScheduled, detail, r.clock.Now().Add(delay))
	r.rearmLocked(ds, delay)
}

// rearmLocked (re)starts the device's timer without logging a transition.
func (r *Reconciler) rearmLocked(ds *deviceState, delay time.Duration) {
	name := ds.name
	ds.timerArmed = true
	ds.timer = r.clock.AfterFunc(delay, func() { r.tryRemediate(name) })
}

func (r *Reconciler) setStateLocked(ds *deviceState, s State, typ EventType, detail string) {
	r.applyStateLocked(ds, s)
	ds.changedAt = r.clock.Now()
	ds.lastDetail = detail
	r.eventLocked(ds.name, ds.shard, typ, detail)
}

// applyStateLocked moves the device's state machine, maintaining the
// shard's incremental open-device count that replaced the per-event
// fleet scan — O(1) per transition, which is what makes the budget math
// flat at 100k devices.
func (r *Reconciler) applyStateLocked(ds *deviceState, s State) {
	was, is := isOpenState(ds.state), isOpenState(s)
	if is && !was {
		ds.shard.open++
	}
	if was && !is {
		ds.shard.open--
	}
	ds.state = s
}

func (r *Reconciler) eventLocked(device string, sh *shard, typ EventType, detail string) {
	r.eventAtLocked(device, sh, typ, detail, time.Time{})
}

func (r *Reconciler) eventAtLocked(device string, sh *shard, typ EventType, detail string, fireAt time.Time) {
	shardName, shardActive := "", 0
	if sh != nil {
		shardName, shardActive = sh.name, sh.active
	}
	r.journal.add(r.clock.Now(), device, shardName, typ, detail, r.active, shardActive, fireAt)
}

// fire delivers alerts outside the reconciler lock.
func (r *Reconciler) fire(alerts []string) {
	if r.cfg.Alert == nil {
		return
	}
	for _, a := range alerts {
		r.cfg.Alert("%s", a)
	}
}

// pruneWindow drops detections older than window before now.
func pruneWindow(ts []time.Time, now time.Time, window time.Duration) []time.Time {
	cutoff := now.Add(-window)
	out := ts[:0]
	for _, t := range ts {
		if !t.Before(cutoff) {
			out = append(out, t)
		}
	}
	return out
}
