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
// Concurrency model: every per-device step — initial provisioning, dryrun,
// the rollout's dryrun stage, and each phase's commits — runs through the
// system's one bounded worker pool (fanout.Run; Options.Parallelism, whose
// default is fanout.DefaultWidth) that dispatches devices in name order
// and stops dispatching at the first failure. The reviewer reads the
// finished diffs in name order before anything commits, and phases run
// strictly in order behind the health gate. A commit that outlives
// Options.CommitTimeout is reported as failed by its worker, but the
// in-flight commit keeps running; the deployer drains every such
// straggler before any rollback or return, so a late-landing commit is
// always either rolled back (atomic) or reported in the Report
// (non-atomic) — never silently left on the device.
package deploy

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/robotron-net/robotron/internal/confdiff"
	"github.com/robotron-net/robotron/internal/fanout"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
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

// Resolver maps a device name to a management session. It must be safe
// for concurrent use by separate Deploy calls: the reconciler runs one
// Deploy per remediation, several at once.
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
	// Parallelism bounds how many devices one step works on at once: the
	// dryruns, the provisioning, and the commits of one phase. 0 picks
	// fanout.DefaultWidth, never more workers than devices; 1 restores the
	// serial engine. Phases always run strictly in order regardless.
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

// Deployer executes deployments against a device fleet. Every wait it
// makes — the commit-confirm grace, the per-device commit timeout and the
// retry backoff — runs on its clock.
type Deployer struct {
	Resolve Resolver

	clock vclock.Clock
	met   deployMetrics
}

// deployMetrics are the deployer's registry bindings; on a nil registry
// they are all nil and record nothing, paying only nil-receiver checks.
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

// NewDeployer returns a deployer using the given resolver and clock that
// counts its commits and rollbacks, and times its phases and commits,
// into reg (nil records nothing).
func NewDeployer(r Resolver, clock vclock.Clock, reg *telemetry.Registry) *Deployer {
	return &Deployer{Resolve: r, clock: clock, met: bindDeployMetrics(reg)}
}

// ErrDrainRequired is returned by initial provisioning for devices still
// carrying traffic ("network devices must be completely drained").
var ErrDrainRequired = errors.New("deploy: device must be drained before initial provisioning")

// ErrReviewRejected is returned when the human reviewer declines a diff.
var ErrReviewRejected = errors.New("deploy: diff review rejected by operator")

// resolveAll maps every config key to a management session up front, in
// sorted order, so one Deploy's worker pool never calls the resolver.
// Separate Deploy calls may call it at once (see Resolver).
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

// withRetry runs an idempotent per-device operation (provision, dryrun,
// readback, health check) under opts.Retry: transient and ambiguous
// session errors alike retry, permanent ones return. Without a policy op
// runs once.
func (d *Deployer) withRetry(opts Options, name string, op func() error) error {
	if opts.Retry == nil {
		return op()
	}
	return d.retryIdempotent(*opts.Retry, name, op)
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
	var provisioned atomic.Int64
	var firstErr error
	for _, o := range fanout.Run(names, opts.Parallelism, func(name string) (int, error) {
		// provisionOne is idempotent end to end (erase + load + commit +
		// verify), so it retries like a read.
		err := d.withRetry(opts, name, func() error { return provisionOne(targets[name], configs[name]) })
		if err != nil {
			nf.notify("initial provisioning failed on %s: %v", name, err)
		} else {
			nf.notify("initial provisioning: %d/%d device(s) provisioned", provisioned.Add(1), len(names))
		}
		return confdiff.Compute("", configs[name]).Stats(true).Added, err
	}) {
		rep.Results = append(rep.Results, Result{Device: o.Name, Action: "erased+provisioned", Err: o.Err, Added: o.Val})
		if o.Err != nil && firstErr == nil {
			firstErr = o.Err
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
	if err := DefaultHealthCheck(t, cfg); err != nil {
		return fmt.Errorf("deploy: %s after provisioning: %w", t.Name(), err)
	}
	return nil
}

// Dryrun produces the per-device diff between the new configs and the
// running configs without committing anything. Platforms with native
// dryrun (Vendor2) are asked directly — catching "most errors from invalid
// configurations and vendor bugs" — while the rest get an emulated diff.
// Devices are diffed concurrently through the worker pool.
func (d *Deployer) Dryrun(configs map[string]string, opts Options) (map[string]string, error) {
	targets, err := d.resolveAll(configs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(configs))
	for _, o := range fanout.Run(sortedKeys(configs), opts.Parallelism, func(name string) (dryrun, error) {
		return d.dryrunOne(targets[name], configs[name])
	}) {
		if o.Err != nil {
			return nil, o.Err
		}
		out[o.Name] = o.Val.text
	}
	return out, nil
}

// dryrun is what one device's dryrun found: the diff a reviewer reads
// and, for an emulated diff, the diff of the running config it read
// against the candidate (nil for a native diff).
type dryrun struct {
	text string
	diff *confdiff.Diff
}

// dryrunOne loads the candidate, renders its diff, and always discards the
// candidate again: the staged config exists only for the diff, and leaving
// it behind would let an unrelated later Commit() silently activate it
// (e.g. after the reviewer rejected this very diff).
func (d *Deployer) dryrunOne(t Target, newCfg string) (dryrun, error) {
	if err := t.LoadConfig(newCfg); err != nil {
		return dryrun{}, fmt.Errorf("deploy: %s rejected candidate config: %w", t.Name(), err)
	}
	defer func() { _ = t.DiscardCandidate() }()
	native, err := t.DryrunDiff()
	switch {
	case err == nil:
		return dryrun{text: native}, nil
	case errors.Is(err, netsim.ErrNotSupported):
		// Emulated diff for platforms without native dryrun.
		running, err := t.RunningConfig()
		if err != nil {
			return dryrun{}, err
		}
		diff := confdiff.Compute(running, newCfg)
		return dryrun{text: diff.Unified(3), diff: &diff}, nil
	default:
		return dryrun{}, err
	}
}

// stageOne dryruns newCfg on t and returns the dryrun with its diff set:
// the emulated dryrun's own, or for a native one, which reads no running
// config, a diff against the running config read after it. Both steps
// are idempotent, so they retry like reads.
func (d *Deployer) stageOne(opts Options, name string, t Target, newCfg string) (dryrun, error) {
	var dr dryrun
	if err := d.withRetry(opts, name, func() (err error) {
		dr, err = d.dryrunOne(t, newCfg)
		return err
	}); err != nil {
		return dryrun{}, err
	}
	if dr.diff != nil {
		return dr, nil
	}
	var running string
	if err := d.withRetry(opts, name, func() (err error) {
		running, err = t.RunningConfig()
		return err
	}); err != nil {
		return dryrun{}, err
	}
	diff := confdiff.Compute(running, newCfg)
	dr.diff = &diff
	return dr, nil
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
	stragglers []straggler // commits still in flight after their window, in phase order
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
	// Every device's dryrun runs through the pool; the human review then
	// reads the finished diffs in name order, before any commit, and stops
	// at the first device whose stage failed.
	diffStats := make(map[string]confdiff.Stats, len(configs))
	for _, o := range fanout.Run(sortedKeys(configs), opts.Parallelism, func(name string) (dryrun, error) {
		return d.stageOne(opts, name, targets[name], configs[name])
	}) {
		if o.Err != nil {
			return rep, o.Err
		}
		diffStats[o.Name] = o.Val.diff.Stats(true)
		if opts.Review != nil && !opts.Review(o.Name, o.Val.text) {
			nf.notify("deployment aborted: %s diff rejected by reviewer", o.Name)
			return rep, fmt.Errorf("%w (device %s)", ErrReviewRejected, o.Name)
		}
	}
	phases := partitionPhases(targets, opts.Phases)
	pending := &Pending{clock: d.clock, notify: nf.notify, rollbacks: d.met.rollbacks}
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
		nf.notify("phase %d/%d (%s): %d device(s), parallelism %d", pi+1, len(phases), phase.name, len(phase.devices),
			fanout.Width(opts.Parallelism, len(phase.devices)))
		psp := opts.Span.Child("phase")
		psp.SetAttr("phase", phase.name)
		psp.SetAttrInt("devices", int64(len(phase.devices)))
		phaseStart := time.Now()
		out := d.runPhase(phase, targets, configs, diffStats, opts, pending, nf, &committed, pi+1, len(phases), psp)
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
			check = DefaultHealthCheck
		}
		for _, name := range phase.devices {
			if err := d.withRetry(opts, name, func() error { return check(targets[name], configs[name]) }); err != nil {
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

// runPhase commits one phase's devices through the worker pool.
// committed gains successfully committed devices in completion order; the
// caller owns rollback and straggler settlement.
func (d *Deployer) runPhase(phase phaseSet, targets map[string]Target, configs map[string]string,
	diffStats map[string]confdiff.Stats, opts Options, pending *Pending, nf *notifier,
	committed *[]string, phaseNum, phaseCount int, phaseSpan *telemetry.Span) phaseOutcome {

	var (
		mu      sync.Mutex
		okCount = 0
	)
	// commitWithDeadline runs the commit, enforcing the per-device time
	// window inside the worker itself: on timeout the worker reports
	// failure while the in-flight commit keeps running on its own
	// goroutine, handed back as a straggler to drain later.
	commit := func(t Target, cfg string) error {
		return d.commitOneRetry(t, cfg, opts.ConfirmGrace, pending, opts.Retry, nf)
	}
	commitWithDeadline := func(t Target, cfg string) (error, <-chan error) {
		if opts.CommitTimeout <= 0 {
			return commit(t, cfg), nil
		}
		done := make(chan error, 1)
		go func() { done <- commit(t, cfg) }()
		expired := make(chan struct{})
		timer := d.clock.AfterFunc(opts.CommitTimeout, func() { close(expired) })
		defer timer.Stop()
		select {
		case err := <-done:
			return err, nil
		case <-expired:
			return fmt.Errorf("deploy: %s did not finish applying within %v", t.Name(), opts.CommitTimeout), done
		}
	}
	outs := fanout.Run(phase.devices, opts.Parallelism, func(name string) (<-chan error, error) {
		csp := phaseSpan.Child("commit")
		csp.SetAttr("device", name)
		commitStart := time.Now()
		err, inflight := commitWithDeadline(targets[name], configs[name])
		d.met.commitSec.ObserveSince(commitStart)
		if err != nil {
			d.met.commitFail.Inc()
			csp.SetAttr("error", err.Error())
			csp.End()
			nf.notify("commit failed on %s: %v", name, err)
			return inflight, err
		}
		d.met.commitOK.Inc()
		csp.End()
		mu.Lock()
		*committed = append(*committed, name)
		okCount++
		progress := okCount
		mu.Unlock()
		nf.notify("phase %d/%d (%s): %d/%d committed", phaseNum, phaseCount, phase.name, progress, len(phase.devices))
		return nil, nil
	})
	var out phaseOutcome
	for _, o := range outs {
		stats := diffStats[o.Name]
		out.results = append(out.results, Result{Device: o.Name, Action: "committed", Err: o.Err, Added: stats.Added, Removed: stats.Removed})
		if o.Val != nil {
			out.stragglers = append(out.stragglers, straggler{name: o.Name, done: o.Val})
		}
		if o.Err != nil && out.failedErr == nil {
			out.failedDev, out.failedErr = o.Name, o.Err
		}
	}
	return out
}

// DefaultHealthCheck is the phase gate Options.HealthCheck defaults to:
// the device is reachable and runs the intended config.
func DefaultHealthCheck(t Target, intended string) error {
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
	clock     vclock.Clock
	notify    func(string, ...any)
	rollbacks *telemetry.Counter // nil no-op when the deployer was built on a nil registry

	mu      sync.Mutex
	native  []Target // devices with device-native commit-confirmed
	emul    []Target // devices whose rollback the deployer emulates
	timer   vclock.Timer
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
	p.timer = p.clock.AfterFunc(grace, p.expire)
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
		// device timer: confirm to disarm the timer, then roll back. A
		// confirm that fails leaves the device to its own timer — which
		// may have fired already, and rolling back after it would revert
		// its rollback onto the unconfirmed config.
		if err := t.Confirm(); err != nil {
			if p.notify != nil {
				p.notify("rollback of %s left to its commit-confirm timer: %v", t.Name(), err)
			}
			continue
		}
		if err := t.Rollback(); err != nil {
			if p.notify != nil {
				p.notify("rollback of %s failed: %v", t.Name(), err)
			}
		} else {
			p.rollbacks.Inc()
		}
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
