// Package deploy implements Robotron's config deployment stage (SIGCOMM
// '16, §5.3): agile, scalable, safe rollout of generated configs to
// network devices while minimizing the risk of network outages.
//
// Two scenarios are supported. Initial provisioning (§5.3.1) erases and
// replaces the full config of drained devices, then validates connectivity.
// Incremental updates (§5.3.2) change running devices and compose four
// safety mechanisms:
//
//   - Dryrun mode: diffs between new and running configs are produced —
//     natively on platforms that support it, by before/after comparison on
//     those that don't — and presented for human review.
//   - Atomic mode: multi-device changes commit as one transaction; any
//     device failure rolls back every device already committed.
//   - Phased mode: devices update in engineer-specified phases (by
//     percentage, site, role) with a health gate between phases; a failed
//     gate halts the deployment and notifies the engineer.
//   - Human confirmation: commits are provisional for a grace period and
//     roll back automatically unless confirmed (device-native where
//     available, emulated by the deployer elsewhere).
//
// Concurrency model: devices *within* a phase commit concurrently through
// a bounded worker pool (Options.Parallelism), while phases themselves
// remain strictly ordered behind the health gate. A commit that outlives
// Options.CommitTimeout is reported as failed by its worker, but the
// in-flight commit keeps running; the pool drains every such straggler
// before any rollback or return, so a late-landing commit is always either
// rolled back (atomic) or reported in the Report (non-atomic) — never
// silently left on the device.
package deploy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/confdiff"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/telemetry"
)

// Target is the management session surface the deployer needs from a
// device; *netsim.Device implements it.
type Target interface {
	Name() string
	Vendor() netsim.Vendor
	Role() string
	Site() string
	Reachable() bool
	TrafficLoad() float64
	RunningConfig() (string, error)
	LoadConfig(string) error
	DiscardCandidate() error
	DryrunDiff() (string, error)
	Commit() error
	CommitConfirmed(grace time.Duration) error
	Confirm() error
	Rollback() error
	EraseConfig() error
}

var _ Target = (*netsim.Device)(nil)

// Resolver maps a device name to a management session.
type Resolver func(name string) (Target, error)

// FleetResolver resolves against a netsim fleet.
func FleetResolver(f *netsim.Fleet) Resolver {
	return func(name string) (Target, error) {
		d, ok := f.Device(name)
		if !ok {
			return nil, fmt.Errorf("deploy: unknown device %q", name)
		}
		return d, nil
	}
}

// Phase selects a subset of devices for one rollout step: the paper's
// "permutation of percentage/region/role of devices to be updated in each
// phase". Zero-valued filters match everything; Percent 0 means 100.
type Phase struct {
	Name    string
	Percent int
	Role    string
	Site    string
}

// Options control one deployment.
type Options struct {
	// Atomic commits all devices as one transaction with rollback on any
	// failure.
	Atomic bool
	// Phases splits the rollout; empty means a single phase of everything.
	// Devices matched by no phase form a final implicit phase.
	Phases []Phase
	// Parallelism bounds how many devices of one phase commit
	// concurrently. 0 picks the default min(8, phase size); 1 restores
	// the serial engine. Phases always run strictly in order regardless.
	Parallelism int
	// ConfirmGrace > 0 makes commits provisional: the returned Pending
	// must be confirmed within the grace period or every device rolls
	// back.
	ConfirmGrace time.Duration
	// CommitTimeout bounds how long one device may take to apply its
	// config; a device that "cannot finish applying the config within a
	// given time window" fails the deployment (and, in atomic mode, rolls
	// the whole transaction back once the straggler settles). 0 disables.
	CommitTimeout time.Duration
	// Review, if set, receives each device's diff before anything is
	// committed; returning false aborts the deployment ("the user is
	// presented with a diff ... to verify all changes").
	Review func(device, diff string) bool
	// HealthCheck gates phased rollouts; nil uses the default check
	// (device reachable, running config matches intent).
	HealthCheck func(t Target, intended string) error
	// Retry, if set, runs every device commit under a classified retry
	// budget (see RetryPolicy): transient errors back off and retry,
	// ambiguous commit errors resolve by running-config readback,
	// permanent errors fail fast. Nil preserves single-shot commits.
	Retry *RetryPolicy
	// Notify receives progress and failure notifications ("engineers will
	// get a notification from Robotron upon failures"). Notifications may
	// originate from worker goroutines mid-phase, but calls are
	// serialized: Notify is never invoked concurrently with itself.
	Notify func(format string, args ...any)
	// Span, if set, is the parent trace span for this deployment: Deploy
	// records one "phase" child per rollout phase and one "commit" child
	// per device commit under it. Nil disables tracing (all span methods
	// no-op on nil).
	Span *telemetry.Span
}

// workers resolves the pool size for a work list of n devices.
func (o *Options) workers(n int) int {
	p := o.Parallelism
	if p <= 0 {
		p = 8
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// notifier wraps Options.Notify behind a mutex so callbacks from
// concurrent workers never overlap.
type notifier struct {
	mu sync.Mutex
	fn func(format string, args ...any)
}

func (n *notifier) notify(format string, args ...any) {
	if n.fn == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fn(format, args...)
}

// Result reports the outcome for one device.
type Result struct {
	Device  string
	Action  string // "committed", "rolled-back", "skipped", "erased+provisioned", "late-commit"
	Err     error
	Added   int
	Removed int
}

// Report is the outcome of one deployment.
type Report struct {
	Results []Result
	// Pending is non-nil when ConfirmGrace was set and at least one
	// device committed provisionally: call Confirm to make the deployment
	// permanent or Rollback to abandon it; doing neither rolls back
	// automatically when the grace period expires. On a failed non-atomic
	// deployment Pending holds the devices that did commit, so partial
	// progress can still be confirmed or uniformly abandoned.
	Pending *Pending
}

// Failed returns the results that carry errors.
func (r Report) Failed() []Result {
	var out []Result
	for _, res := range r.Results {
		if res.Err != nil {
			out = append(out, res)
		}
	}
	return out
}

// Deployer executes deployments against a device fleet.
type Deployer struct {
	Resolve Resolver

	met deployMetrics
}

// deployMetrics are the deployer's registry bindings; the zero value
// (all nil) records nothing, so an uninstrumented Deployer pays only
// nil-receiver checks.
type deployMetrics struct {
	commitOK     *telemetry.Counter
	commitFail   *telemetry.Counter
	rollbacks    *telemetry.Counter
	phaseSec     *telemetry.Histogram
	commitSec    *telemetry.Histogram
	retries      *telemetry.Counter
	backoffSec   *telemetry.Histogram
	ambigApplied *telemetry.Counter
	ambigRetried *telemetry.Counter
}

func bindDeployMetrics(reg *telemetry.Registry) deployMetrics {
	reg.Help("robotron_deploy_commits_total", "device commit attempts by result")
	reg.Help("robotron_deploy_rollbacks_total", "device rollbacks performed (atomic failure, health gate, grace expiry, explicit)")
	reg.Help("robotron_deploy_phase_seconds", "wall time of each deployment phase")
	reg.Help("robotron_deploy_commit_seconds", "wall time of each device commit attempt")
	reg.Help("robotron_deploy_retries_total", "device operation retries after transient or ambiguous errors")
	reg.Help("robotron_deploy_retry_backoff_seconds", "backoff sleeps taken before retries")
	reg.Help("robotron_deploy_ambiguous_resolutions_total", "ambiguous commit errors resolved by running-config readback, by outcome")
	return deployMetrics{
		commitOK:     reg.Counter("robotron_deploy_commits_total", telemetry.Label{Key: "result", Value: "ok"}),
		commitFail:   reg.Counter("robotron_deploy_commits_total", telemetry.Label{Key: "result", Value: "failed"}),
		rollbacks:    reg.Counter("robotron_deploy_rollbacks_total"),
		phaseSec:     reg.Histogram("robotron_deploy_phase_seconds"),
		commitSec:    reg.Histogram("robotron_deploy_commit_seconds"),
		retries:      reg.Counter("robotron_deploy_retries_total"),
		backoffSec:   reg.Histogram("robotron_deploy_retry_backoff_seconds"),
		ambigApplied: reg.Counter("robotron_deploy_ambiguous_resolutions_total", telemetry.Label{Key: "outcome", Value: "applied"}),
		ambigRetried: reg.Counter("robotron_deploy_ambiguous_resolutions_total", telemetry.Label{Key: "outcome", Value: "retried"}),
	}
}

// Instrument binds the deployer's commit/rollback counters and latency
// histograms to reg. Instrument(nil) detaches them again.
func (d *Deployer) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		d.met = deployMetrics{}
		return
	}
	d.met = bindDeployMetrics(reg)
}

// NewDeployer returns a deployer using the given resolver.
func NewDeployer(r Resolver) *Deployer { return &Deployer{Resolve: r} }

// ErrDrainRequired is returned by initial provisioning for devices still
// carrying traffic ("network devices must be completely drained").
var ErrDrainRequired = errors.New("deploy: device must be drained before initial provisioning")

// ErrReviewRejected is returned when the human reviewer declines a diff.
var ErrReviewRejected = errors.New("deploy: diff review rejected by operator")

// resolveAll maps every config key to a management session up front, so
// worker pools never call the resolver concurrently (resolvers may cache
// sessions without locking).
func (d *Deployer) resolveAll(configs map[string]string) (map[string]Target, error) {
	targets := make(map[string]Target, len(configs))
	for _, name := range sortedKeys(configs) {
		t, err := d.Resolve(name)
		if err != nil {
			return nil, err
		}
		targets[name] = t
	}
	return targets, nil
}

// runPool feeds names to a bounded worker pool running fn. Dispatch stops
// early once abort returns true; already-dispatched work always finishes.
func runPool(names []string, workers int, abort func() bool, fn func(name string)) {
	work := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range work {
				fn(name)
			}
		}()
	}
	for _, name := range names {
		if abort != nil && abort() {
			break
		}
		work <- name
	}
	close(work)
	wg.Wait()
}

// InitialProvision erases and installs configs on clean (drained) devices,
// then validates basic connectivity (§5.3.1). Devices provision
// concurrently through the worker pool; on the first failure no further
// devices are started, in-flight ones finish and are reported.
func (d *Deployer) InitialProvision(configs map[string]string, opts Options) (Report, error) {
	var rep Report
	nf := &notifier{fn: opts.Notify}
	names := sortedKeys(configs)
	targets, err := d.resolveAll(configs)
	if err != nil {
		return rep, err
	}
	// Drain check first: fail before touching anything.
	for _, name := range names {
		if t := targets[name]; t.TrafficLoad() > 0 {
			return rep, fmt.Errorf("%w: %s carries traffic (load %.2f)", ErrDrainRequired, name, t.TrafficLoad())
		}
	}
	var (
		mu       sync.Mutex
		byName   = make(map[string]Result, len(names))
		provOK   = 0
		hadError = false
	)
	runPool(names, opts.workers(len(names)),
		func() bool {
			mu.Lock()
			defer mu.Unlock()
			return hadError
		},
		func(name string) {
			// provisionOne is idempotent end to end (erase + load +
			// commit + verify), so transient and ambiguous transport
			// faults alike are safe to retry blindly.
			prov := func() error { return provisionOne(targets[name], configs[name]) }
			var err error
			if opts.Retry != nil {
				err = retryIdempotent(*opts.Retry, name, d.met, prov)
			} else {
				err = prov()
			}
			res := Result{Device: name, Action: "erased+provisioned", Err: err}
			res.Added = confdiff.Compute("", configs[name]).Stats(true).Added
			mu.Lock()
			byName[name] = res
			if err != nil {
				hadError = true
			} else {
				provOK++
			}
			done := provOK
			mu.Unlock()
			if err != nil {
				nf.notify("initial provisioning failed on %s: %v", name, err)
			} else {
				nf.notify("initial provisioning: %d/%d device(s) provisioned", done, len(names))
			}
		})
	var firstErr error
	for _, name := range names {
		res, attempted := byName[name]
		if !attempted {
			continue
		}
		rep.Results = append(rep.Results, res)
		if res.Err != nil && firstErr == nil {
			firstErr = res.Err
		}
	}
	return rep, firstErr
}

// provisionOne erases, installs, and validates one device.
func provisionOne(t Target, cfg string) error {
	if err := t.EraseConfig(); err != nil {
		return err
	}
	if err := t.LoadConfig(cfg); err != nil {
		return err
	}
	if err := t.Commit(); err != nil {
		return err
	}
	// Basic validation: device reachable and running the config.
	if !t.Reachable() {
		return fmt.Errorf("deploy: %s unreachable after provisioning", t.Name())
	}
	running, err := t.RunningConfig()
	if err != nil {
		return err
	}
	if running != cfg {
		return fmt.Errorf("deploy: %s running config does not match provisioned config", t.Name())
	}
	return nil
}

// Dryrun produces the per-device diff between the new configs and the
// running configs without committing anything. Platforms with native
// dryrun (Vendor2) are asked directly — catching "most errors from invalid
// configurations and vendor bugs" — while the rest get an emulated diff.
// Devices are diffed concurrently through the worker pool.
func (d *Deployer) Dryrun(configs map[string]string, opts Options) (map[string]string, error) {
	names := sortedKeys(configs)
	targets, err := d.resolveAll(configs)
	if err != nil {
		return nil, err
	}
	var (
		mu       sync.Mutex
		out      = make(map[string]string, len(names))
		errs     = make(map[string]error)
		hadError = false
	)
	runPool(names, opts.workers(len(names)),
		func() bool {
			mu.Lock()
			defer mu.Unlock()
			return hadError
		},
		func(name string) {
			diff, err := d.dryrunOne(targets[name], configs[name])
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[name] = err
				hadError = true
				return
			}
			out[name] = diff
		})
	for _, name := range names {
		if err := errs[name]; err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dryrunOne loads the candidate, renders its diff, and always discards the
// candidate again: the staged config exists only for the diff, and leaving
// it behind would let an unrelated later Commit() silently activate it
// (e.g. after the reviewer rejected this very diff).
func (d *Deployer) dryrunOne(t Target, newCfg string) (string, error) {
	if err := t.LoadConfig(newCfg); err != nil {
		return "", fmt.Errorf("deploy: %s rejected candidate config: %w", t.Name(), err)
	}
	defer func() { _ = t.DiscardCandidate() }()
	native, err := t.DryrunDiff()
	switch {
	case err == nil:
		return native, nil
	case errors.Is(err, netsim.ErrNotSupported):
		// Emulated diff for platforms without native dryrun.
		running, err := t.RunningConfig()
		if err != nil {
			return "", err
		}
		return confdiff.Compute(running, newCfg).Unified(3), nil
	default:
		return "", err
	}
}

// straggler is a device whose commit outlived the time window; its
// in-flight result must settle before any rollback or return is safe.
type straggler struct {
	name string
	done <-chan error
}

// phaseOutcome is what one phase's worker pool produced.
type phaseOutcome struct {
	results    []Result    // per attempted device, in phase order
	stragglers []straggler // commits still in flight after their window
	failedDev  string      // first failing device in phase order
	failedErr  error
}

// Deploy performs an incremental update of the given device configs with
// the safety mechanisms selected in opts.
func (d *Deployer) Deploy(configs map[string]string, opts Options) (Report, error) {
	var rep Report
	nf := &notifier{fn: opts.Notify}
	targets, err := d.resolveAll(configs)
	if err != nil {
		return rep, err
	}
	// Dryrun + human review before any commit; kept serial so the
	// reviewer sees devices in a stable order. Dryrun and readback are
	// idempotent, so under a retry policy transient and ambiguous
	// session errors alike just retry.
	withRetry := func(name string, op func() error) error {
		if opts.Retry == nil {
			return op()
		}
		return retryIdempotent(*opts.Retry, name, d.met, op)
	}
	diffStats := make(map[string]confdiff.Stats, len(configs))
	for _, name := range sortedKeys(configs) {
		t := targets[name]
		var diff, running string
		if err := withRetry(name, func() (err error) {
			diff, err = d.dryrunOne(t, configs[name])
			return err
		}); err != nil {
			return rep, err
		}
		if err := withRetry(name, func() (err error) {
			running, err = t.RunningConfig()
			return err
		}); err != nil {
			return rep, err
		}
		diffStats[name] = confdiff.Compute(running, configs[name]).Stats(true)
		if opts.Review != nil && !opts.Review(name, diff) {
			nf.notify("deployment aborted: %s diff rejected by reviewer", name)
			return rep, fmt.Errorf("%w (device %s)", ErrReviewRejected, name)
		}
	}
	phases := partitionPhases(targets, opts.Phases)
	pending := &Pending{notify: nf.notify, rollbacks: d.met.rollbacks}
	committed := make([]string, 0, len(configs)) // commit-completion order

	// settle drains every straggler's in-flight commit and returns the
	// devices whose late commit landed after all.
	settle := func(ss []straggler) []string {
		var late []string
		for _, s := range ss {
			if err := <-s.done; err == nil {
				late = append(late, s.name)
			}
		}
		return late
	}
	rollbackAll := func() {
		if opts.ConfirmGrace > 0 {
			// Commit-confirmed devices are tracked by the pending set,
			// which also disarms device-native rollback timers.
			_ = pending.Rollback()
			for i := len(committed) - 1; i >= 0; i-- {
				rep.Results = append(rep.Results, Result{Device: committed[i], Action: "rolled-back"})
			}
			return
		}
		for i := len(committed) - 1; i >= 0; i-- {
			name := committed[i]
			if err := targets[name].Rollback(); err != nil {
				nf.notify("rollback of %s failed: %v", name, err)
			} else {
				d.met.rollbacks.Inc()
				rep.Results = append(rep.Results, Result{Device: name, Action: "rolled-back"})
			}
		}
	}
	// armPartial hands a failed non-atomic deployment's provisional
	// commits back to the operator: confirm the partial progress or let
	// the grace timer roll every device (native and emulated alike) back.
	// Without this, emulated-commit devices would stay committed forever
	// while native ones auto-revert, leaving the fleet divergent.
	armPartial := func() {
		if opts.ConfirmGrace <= 0 || len(pending.Devices()) == 0 {
			return
		}
		pending.arm(opts.ConfirmGrace)
		rep.Pending = pending
		nf.notify("deployment failed with %d provisional commit(s): confirm or roll back within %v, else all roll back automatically",
			len(pending.Devices()), opts.ConfirmGrace)
	}

	for pi, phase := range phases {
		workers := opts.workers(len(phase.devices))
		nf.notify("phase %d/%d (%s): %d device(s), parallelism %d", pi+1, len(phases), phase.name, len(phase.devices), workers)
		psp := opts.Span.Child("phase")
		psp.SetAttr("phase", phase.name)
		psp.SetAttrInt("devices", int64(len(phase.devices)))
		phaseStart := time.Now()
		out := d.runPhase(phase, targets, configs, diffStats, opts, pending, nf, &committed, workers, pi+1, len(phases), psp)
		d.met.phaseSec.ObserveSince(phaseStart)
		rep.Results = append(rep.Results, out.results...)
		if out.failedErr != nil {
			psp.SetAttr("result", "failed")
			psp.End()
			// Settle stragglers on *every* failure exit — non-atomic
			// included — so no commit can land after Deploy returns.
			late := settle(out.stragglers)
			if opts.Atomic {
				committed = append(committed, late...)
				nf.notify("atomic deployment: rolling back %d committed device(s)", len(committed))
				rollbackAll()
				return rep, fmt.Errorf("deploy: atomic deployment failed on %s: %w", out.failedDev, out.failedErr)
			}
			for _, name := range late {
				nf.notify("straggler %s finished committing after the window; device is committed", name)
				rep.Results = append(rep.Results, Result{Device: name, Action: "late-commit"})
			}
			armPartial()
			return rep, fmt.Errorf("deploy: deployment failed on %s: %w", out.failedDev, out.failedErr)
		}
		// Health gate: "Robotron monitors metrics to track the progress of
		// each phase and only continues deployment if the previous phase
		// is successful."
		check := opts.HealthCheck
		if check == nil {
			check = defaultHealthCheck
		}
		for _, name := range phase.devices {
			if err := withRetry(name, func() error { return check(targets[name], configs[name]) }); err != nil {
				nf.notify("phase %d health gate failed on %s: %v — halting deployment", pi+1, name, err)
				psp.SetAttr("result", "unhealthy")
				psp.End()
				if opts.Atomic {
					rollbackAll()
					return rep, fmt.Errorf("deploy: atomic deployment health check failed on %s: %w", name, err)
				}
				armPartial()
				return rep, fmt.Errorf("deploy: phase %d halted: %s unhealthy: %w", pi+1, name, err)
			}
		}
		psp.SetAttr("result", "ok")
		psp.End()
	}
	if opts.ConfirmGrace > 0 {
		pending.arm(opts.ConfirmGrace)
		rep.Pending = pending
	}
	return rep, nil
}

// runPhase commits one phase's devices through a bounded worker pool.
// committed gains successfully committed devices in completion order; the
// caller owns rollback and straggler settlement.
func (d *Deployer) runPhase(phase phaseSet, targets map[string]Target, configs map[string]string,
	diffStats map[string]confdiff.Stats, opts Options, pending *Pending, nf *notifier,
	committed *[]string, workers, phaseNum, phaseCount int, phaseSpan *telemetry.Span) phaseOutcome {

	var (
		mu         sync.Mutex
		byName     = make(map[string]Result, len(phase.devices))
		stragglers []straggler
		aborted    = false
		okCount    = 0
	)
	// commitWithDeadline runs the commit, enforcing the per-device time
	// window inside the worker itself: on timeout the worker reports
	// failure while the in-flight commit keeps running on its own
	// goroutine, handed back as a straggler to drain later.
	commit := func(t Target, cfg string) error {
		return commitOneRetry(t, cfg, opts.ConfirmGrace, pending, opts.Retry, d.met, nf)
	}
	commitWithDeadline := func(t Target, cfg string) (error, <-chan error) {
		if opts.CommitTimeout <= 0 {
			return commit(t, cfg), nil
		}
		done := make(chan error, 1)
		go func() { done <- commit(t, cfg) }()
		timer := time.NewTimer(opts.CommitTimeout)
		defer timer.Stop()
		select {
		case err := <-done:
			return err, nil
		case <-timer.C:
			return fmt.Errorf("deploy: %s did not finish applying within %v", t.Name(), opts.CommitTimeout), done
		}
	}
	runPool(phase.devices, workers,
		func() bool {
			mu.Lock()
			defer mu.Unlock()
			return aborted
		},
		func(name string) {
			csp := phaseSpan.Child("commit")
			csp.SetAttr("device", name)
			commitStart := time.Now()
			err, inflight := commitWithDeadline(targets[name], configs[name])
			d.met.commitSec.ObserveSince(commitStart)
			if err != nil {
				d.met.commitFail.Inc()
				csp.SetAttr("error", err.Error())
			} else {
				d.met.commitOK.Inc()
			}
			csp.End()
			stats := diffStats[name]
			res := Result{Device: name, Action: "committed", Err: err, Added: stats.Added, Removed: stats.Removed}
			if err == nil {
				mu.Lock()
				*committed = append(*committed, name)
				mu.Unlock()
			}
			mu.Lock()
			byName[name] = res
			if err != nil {
				aborted = true
				if inflight != nil {
					stragglers = append(stragglers, straggler{name: name, done: inflight})
				}
			} else {
				okCount++
			}
			progress := okCount
			mu.Unlock()
			if err != nil {
				nf.notify("commit failed on %s: %v", name, err)
			} else {
				nf.notify("phase %d/%d (%s): %d/%d committed", phaseNum, phaseCount, phase.name, progress, len(phase.devices))
			}
		})
	out := phaseOutcome{stragglers: stragglers}
	for _, name := range phase.devices {
		res, attempted := byName[name]
		if !attempted {
			continue
		}
		out.results = append(out.results, res)
		if res.Err != nil && out.failedErr == nil {
			out.failedDev, out.failedErr = name, res.Err
		}
	}
	return out
}

func defaultHealthCheck(t Target, intended string) error {
	if !t.Reachable() {
		return fmt.Errorf("device unreachable")
	}
	running, err := t.RunningConfig()
	if err != nil {
		return err
	}
	if running != intended {
		return fmt.Errorf("running config deviates from intent")
	}
	return nil
}

// phaseSet is a resolved phase: name + member devices.
type phaseSet struct {
	name    string
	devices []string
}

// partitionPhases assigns every device to exactly one phase, in order;
// unmatched devices form a trailing implicit phase.
func partitionPhases(targets map[string]Target, phases []Phase) []phaseSet {
	remaining := sortedKeys(targets)
	if len(phases) == 0 {
		return []phaseSet{{name: "all", devices: remaining}}
	}
	var out []phaseSet
	taken := map[string]bool{}
	for i, p := range phases {
		var matching []string
		for _, name := range remaining {
			if taken[name] {
				continue
			}
			t := targets[name]
			if p.Role != "" && t.Role() != p.Role {
				continue
			}
			if p.Site != "" && t.Site() != p.Site {
				continue
			}
			matching = append(matching, name)
		}
		pct := p.Percent
		if pct <= 0 || pct > 100 {
			pct = 100
		}
		n := (len(matching)*pct + 99) / 100
		selected := matching[:min(n, len(matching))]
		for _, name := range selected {
			taken[name] = true
		}
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("phase-%d", i+1)
		}
		if len(selected) > 0 {
			out = append(out, phaseSet{name: name, devices: selected})
		}
	}
	var rest []string
	for _, name := range remaining {
		if !taken[name] {
			rest = append(rest, name)
		}
	}
	if len(rest) > 0 {
		out = append(out, phaseSet{name: "final", devices: rest})
	}
	return out
}

// Pending is a deployment awaiting human confirmation (§5.3.2): "a final
// confirmation must be provided during the grace period otherwise
// Robotron will rollback the changes." Safe for concurrent use: the
// worker pool adds devices while Confirm/Rollback/expiry race to settle.
type Pending struct {
	notify    func(string, ...any)
	rollbacks *telemetry.Counter // nil no-op when the deployer is uninstrumented

	mu      sync.Mutex
	native  []Target // devices with device-native commit-confirmed
	emul    []Target // devices whose rollback the deployer emulates
	timer   *time.Timer
	settled bool
}

func (p *Pending) add(t Target, native bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if native {
		p.native = append(p.native, t)
	} else {
		p.emul = append(p.emul, t)
	}
}

func (p *Pending) arm(grace time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.timer = time.AfterFunc(grace, p.expire)
}

// Devices returns the names of devices pending confirmation.
func (p *Pending) Devices() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, t := range p.native {
		out = append(out, t.Name())
	}
	for _, t := range p.emul {
		out = append(out, t.Name())
	}
	sort.Strings(out)
	return out
}

// Confirm finalizes the deployment on every device.
func (p *Pending) Confirm() error {
	p.mu.Lock()
	if p.settled {
		p.mu.Unlock()
		return fmt.Errorf("deploy: deployment already settled")
	}
	p.settled = true
	if p.timer != nil {
		p.timer.Stop()
	}
	native := append([]Target(nil), p.native...)
	p.mu.Unlock()
	var errs []string
	for _, t := range native {
		if err := t.Confirm(); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", t.Name(), err))
		}
	}
	// Emulated devices are already committed permanently; stopping the
	// timer is the confirmation.
	if len(errs) > 0 {
		return fmt.Errorf("deploy: confirmation failed: %s", strings.Join(errs, "; "))
	}
	return nil
}

// Rollback abandons the deployment immediately on every device.
func (p *Pending) Rollback() error {
	p.mu.Lock()
	if p.settled {
		p.mu.Unlock()
		return fmt.Errorf("deploy: deployment already settled")
	}
	p.settled = true
	if p.timer != nil {
		p.timer.Stop()
	}
	p.mu.Unlock()
	p.rollbackAll()
	return nil
}

// expire fires when the grace period lapses without confirmation.
func (p *Pending) expire() {
	p.mu.Lock()
	if p.settled {
		p.mu.Unlock()
		return
	}
	p.settled = true
	emul := append([]Target(nil), p.emul...)
	p.mu.Unlock()
	if p.notify != nil {
		p.notify("grace period expired without confirmation: rolling back")
	}
	// Native devices roll back on their own; the deployer reverts the rest.
	for _, t := range emul {
		if err := t.Rollback(); err != nil {
			if p.notify != nil {
				p.notify("emulated rollback of %s failed: %v", t.Name(), err)
			}
		} else {
			p.rollbacks.Inc()
		}
	}
}

func (p *Pending) rollbackAll() {
	p.mu.Lock()
	native := append([]Target(nil), p.native...)
	emul := append([]Target(nil), p.emul...)
	p.mu.Unlock()
	for _, t := range emul {
		if err := t.Rollback(); err != nil {
			if p.notify != nil {
				p.notify("rollback of %s failed: %v", t.Name(), err)
			}
		} else {
			p.rollbacks.Inc()
		}
	}
	for _, t := range native {
		// Force the native rollback now rather than waiting for the
		// device timer: roll back explicitly, then confirm the (now
		// reverted) state to disarm the device timer.
		if err := t.Rollback(); err != nil {
			if p.notify != nil {
				p.notify("rollback of %s failed: %v", t.Name(), err)
			}
		} else {
			p.rollbacks.Inc()
		}
		_ = t.Confirm()
	}
}

// Settled reports whether the pending deployment was confirmed or rolled
// back (explicitly or by expiry).
func (p *Pending) Settled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.settled
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
