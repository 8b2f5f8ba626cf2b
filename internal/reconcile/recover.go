package reconcile

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// ResumeFromJournal builds a reconciler that picks up exactly where a
// killed process stopped, by replaying its append-only journal. From the
// events alone it rebuilds:
//
//   - every device's state machine, remediation and transport attempt
//     counts, check-retry count, and flap-damping history;
//   - each shard's open and in-flight counts, breaker position and trip
//     count;
//   - the outcome counters behind Stats();
//   - the pending timers: backoff, check retries, and the sweep chain.
//
// The adopted events keep their sequence numbers and the new journal
// appends after them, so a resumed run's journal is the uninterrupted
// run's journal, byte for byte.
//
// Contract:
//
//   - cfg must match the killed process's config (budgets and backoff
//     are not journaled), and cfg.Clock must read the instant of the kill
//     or later.
//   - deps must address the same fleet; devices keep the shard recorded
//     in their events.
//   - Pending timers are re-armed at their journaled due times, in
//     journal order, so the virtual-clock firing order is reproduced. A
//     backoff timer past due with its shard's breaker open fired and
//     parked; a reset drains it.
//   - The next sweep is due one SweepInterval after the last journaled
//     sweep, by the chain or by hand. Before the first one the journal
//     does not say when the chain started, so it restarts one interval
//     after the resume.
//   - A passing check journals nothing but zeroes the device's retry
//     count. Replay takes the count from the last check error's detail
//     and zeroes it when a check retry or a sweep checked the device
//     after that error. A check retry due by the resume instant has run,
//     unless it was armed at that instant: resuming later than the kill
//     skips the retries due in between, and the next sweep re-checks
//     those devices. A passing VerifyDevices check is not replayed.
//   - A device killed mid-remediation (journal ends remediating or
//     confirming) is journaled as resumed and rescheduled immediately:
//     remediation is idempotent (regenerate + redeploy golden), so
//     re-running the interrupted attempt is safe.
//   - The journal sink is not re-fed the adopted prefix: resuming from a
//     sink file leaves the file correct.
//
// Call Instrument before Start if shared-registry metrics are wanted;
// replayed outcomes land on the private registry, mirroring the killed
// process's Stats().
func ResumeFromJournal(deps Deps, cfg Config, events []Event) *Reconciler {
	r := New(deps, cfg)
	r.mu.Lock()
	p := &replayer{Reconciler: r,
		backoff: map[string]*Event{}, rechecks: map[string][]*Event{},
		lastError: map[string]time.Time{}, sweepError: map[string]time.Time{},
		sweepTrip: map[string]time.Time{}}
	for i := range events {
		p.apply(&events[i])
	}
	r.journal.restore(events)
	p.arm()
	r.mu.Unlock()
	return r
}

// replayer is ResumeFromJournal's scratch: what the journal says about
// timers and check retries that the live state does not keep. Devices and
// shards are keyed by name.
type replayer struct {
	*Reconciler
	lastSweep  *Event
	backoff    map[string]*Event    // the scheduled event behind a device's backoff timer
	rechecks   map[string][]*Event  // check retries armed and not matched to a check error
	lastError  map[string]time.Time // a device's last check error
	sweepError map[string]time.Time // its last check error no retry accounts for
	sweepTrip  map[string]time.Time // a shard's last trip by a sweep's detection
}

// recheckDue is when the check retry an event armed is due: a check
// error's FireAt, or a release's own instant.
func recheckDue(e *Event) time.Time {
	if e.FireAt.IsZero() {
		return e.At
	}
	return e.FireAt
}

// apply replays one journaled event onto the in-memory state, without
// journaling anything.
func (p *replayer) apply(e *Event) {
	var ds *deviceState
	if e.Device != "" {
		ds = p.devices[e.Device]
		if ds == nil {
			shName := e.Shard
			if shName == "" {
				shName = p.shardNameOf(e.Device)
			}
			ds = &deviceState{name: e.Device, state: StateConverged, changedAt: e.At}
			ds.shard = p.shardLocked(shName)
			ds.shard.devices++
			p.devices[e.Device] = ds
		}
	}
	// settle releases the budget slot an outcome event implies: the live
	// path decrements active before journaling the outcome.
	settle := func() {
		if ds.state == StateRemediating || ds.state == StateConfirming {
			p.active--
			ds.shard.active--
		}
	}
	switch e.Type {
	case EvDetected:
		ds.detections = pruneWindow(append(ds.detections, e.At), e.At, p.cfg.DampingWindow)
		p.met.detected.Inc()
		// A detection via recheck/sweep/verify implies the conformance
		// check succeeded, which reset the retry counter.
		if strings.HasPrefix(e.Detail, "recheck:") || strings.HasPrefix(e.Detail, "sweep:") ||
			strings.HasPrefix(e.Detail, "post-deploy verify:") {
			ds.checkAttempt = 0
		}
		p.setState(ds, StateDetected, e)
	case EvScheduled:
		p.setState(ds, StateBackoff, e)
		p.backoff[ds.name] = e
	case EvRemediate:
		p.active++
		ds.shard.active++
		p.setState(ds, StateRemediating, e)
	case EvConfirming:
		p.setState(ds, StateConfirming, e)
	case EvConverged:
		settle()
		ds.attempt, ds.checkAttempt, ds.transportAttempt = 0, 0, 0
		p.met.remediated.Inc()
		p.met.converged.Inc()
		p.setState(ds, StateConverged, e)
	case EvRetry:
		settle()
		ds.attempt++
		p.met.retries.Inc()
		// The live path journals scheduled in the same critical section;
		// park as detected so the slot can't be released twice.
		p.setState(ds, StateDetected, e)
	case EvTransportRetry:
		settle()
		ds.transportAttempt++
		p.met.transportRetries.Inc()
		p.setState(ds, StateDetected, e)
	case EvTransportGiveUp:
		settle()
		ds.transportAttempt = 0
		p.met.transportRetries.Inc()
		p.setState(ds, StateConverged, e)
	case EvQuarantined:
		if ds.state == StateRemediating || ds.state == StateConfirming {
			settle()
			ds.attempt++ // live: attempt++ preceded the quarantine check
		}
		p.met.quarantined.Inc()
		p.setState(ds, StateQuarantined, e)
	case EvReleased:
		ds.attempt, ds.checkAttempt = 0, 0
		ds.detections = nil
		p.setState(ds, StateConverged, e)
		p.rechecks[ds.name] = append(p.rechecks[ds.name], e) // an immediate recheck
	case EvSuppressed:
		p.met.suppressed.Inc()
	case EvCheckError:
		p.met.checkErrors.Inc()
		if !p.matchRecheck(ds.name, e.At) {
			p.sweepError[ds.name] = e.At
		}
		p.lastError[ds.name] = e.At
		// Passing checks reset the live count silently; the event carries
		// the count it reached. A zero FireAt marks the give-up, which
		// resets it.
		ds.checkAttempt = 0
		if !e.FireAt.IsZero() {
			// A detail without a count leaves it at zero.
			_, _ = fmt.Sscanf(e.Detail, "attempt %d:", &ds.checkAttempt)
			p.rechecks[ds.name] = append(p.rechecks[ds.name], e)
		}
	case EvBudgetTrip:
		sh := p.shardLocked(e.Shard)
		if !sh.tripped {
			sh.tripped = true
			p.trippedShards++
		}
		sh.trips++
		sh.tripsCounter.Inc()
		p.met.budgetTrips.Inc()
		if ds != nil && strings.HasPrefix(ds.lastDetail, "sweep:") {
			p.sweepTrip[sh.name] = e.At
		}
	case EvBreakerReset:
		if sh := p.shards[e.Shard]; sh != nil && sh.tripped {
			sh.tripped = false
			p.trippedShards--
		}
	case EvSweep:
		p.sweepPassed(e)
		p.lastSweep = e
	case EvHalted, EvResumed:
		// State already captured by the surrounding events.
	}
}

// setState is setStateLocked without the journal append: the event
// already exists.
func (p *replayer) setState(ds *deviceState, s State, e *Event) {
	p.applyStateLocked(ds, s)
	ds.changedAt = e.At
	ds.lastDetail = e.Detail
	if s != StateBackoff {
		delete(p.backoff, ds.name)
	}
}

// sweepDue is when the sweep chain's next run is due; zero when unknown.
func (p *replayer) sweepDue() time.Time {
	if p.lastSweep == nil || p.cfg.SweepInterval <= 0 || p.deps.SweepList == nil {
		return time.Time{}
	}
	return p.lastSweep.At.Add(p.cfg.SweepInterval)
}

// matchRecheck pairs a check error of device at t with a retry of it
// due then, and reports whether one was found. Timers due at one instant
// fire in arming order, so a candidate must have been armed before t (a
// release's immediate recheck fires only on the clock's next advance),
// and not after a sweep due at t that has not run yet.
func (p *replayer) matchRecheck(device string, t time.Time) bool {
	sweepPending := p.sweepDue().Equal(t)
	for i, rc := range p.rechecks[device] {
		if recheckDue(rc).Equal(t) && rc.At.Before(t) && !(sweepPending && rc.Seq > p.lastSweep.Seq) {
			p.rechecks[device] = slices.Delete(p.rechecks[device], i, i+1)
			return true
		}
	}
	return false
}

// sweepPassed replays what a sweep leaves unjournaled: each device it
// checked without an error has a zero retry count. It checked every
// listed device that was neither open nor quarantined, in a shard whose
// breaker was closed when it started — or tripped only by its own
// detections.
func (p *replayer) sweepPassed(e *Event) {
	var listed map[string]bool
	for name, ds := range p.devices {
		if ds.checkAttempt == 0 || isOpenState(ds.state) || ds.state == StateQuarantined ||
			p.sweepError[name].Equal(e.At) ||
			(ds.shard.tripped && !p.sweepTrip[ds.shard.name].Equal(e.At)) {
			continue
		}
		if listed == nil {
			listed = map[string]bool{}
			for _, n := range p.deps.SweepList() {
				listed[n] = true
			}
		}
		if listed[name] {
			ds.checkAttempt = 0
		}
	}
}

// arm re-creates the pending timers the killed process held, in
// journal-sequence order — the virtual clock breaks equal due times by
// timer creation order, so arming in the order the live process armed
// reproduces its firing order exactly. Devices caught mid-flight are
// settled and rescheduled.
func (p *replayer) arm() {
	now := p.clock.Now()
	type arm struct {
		seq int64
		fn  func()
	}
	var arms []arm
	names := make([]string, 0, len(p.devices))
	for name := range p.devices {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ds := p.devices[name]
		// A backoff timer past due with the breaker open fired before the
		// kill and parked; ResetBreaker drains it.
		if e := p.backoff[name]; e != nil && (e.FireAt.After(now) || !ds.shard.tripped) {
			delay := max(0, e.FireAt.Sub(now))
			arms = append(arms, arm{e.Seq, func() { p.rearmLocked(ds, delay) }})
		}
		for _, rc := range p.rechecks[name] {
			due := recheckDue(rc)
			if due.After(now) || rc.At.Equal(now) {
				arms = append(arms, arm{rc.Seq, func() {
					p.clock.AfterFunc(due.Sub(now), func() { p.recheck(name) })
				}})
			} else if !due.Before(p.lastError[name]) {
				ds.checkAttempt = 0 // ran after the last check error and passed
			}
		}
	}
	if next := p.sweepDue(); !next.IsZero() {
		arms = append(arms, arm{p.lastSweep.Seq, func() { p.armSweepLocked(max(0, next.Sub(now))) }})
	} else if p.cfg.SweepInterval > 0 && p.deps.SweepList != nil {
		arms = append(arms, arm{0, func() { p.armSweepLocked(p.cfg.SweepInterval) }})
	}
	sort.SliceStable(arms, func(i, j int) bool { return arms[i].seq < arms[j].seq })
	for _, a := range arms {
		a.fn()
	}
	// Devices killed mid-remediation: release the slot the dead process
	// held and redo the attempt — remediation regenerates and redeploys
	// golden, so repeating it is safe.
	for _, name := range names {
		ds := p.devices[name]
		if ds.state == StateRemediating || ds.state == StateConfirming {
			p.active--
			ds.shard.active--
			p.applyStateLocked(ds, StateDetected)
			p.eventLocked(ds.name, ds.shard, EvResumed, "in-flight remediation interrupted by restart")
			p.scheduleLocked(ds, 0)
		}
	}
}
