package deploy

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/netsim"
)

// timeDeploy runs one deployment and returns its wall-clock duration.
func timeDeploy(t *testing.T, dep *Deployer, cfgs map[string]string, opts Options) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := dep.Deploy(cfgs, opts); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

// commitWitness counts the commits in flight across one deployment's
// targets and records the peak. With hold > 0, a commit waits until hold
// commits are in flight at once (or a deadline passes), so the peak shows
// the pool's concurrency however slowly a loaded machine schedules its
// workers.
type commitWitness struct {
	mu             sync.Mutex
	inFlight, peak int
	hold           int
	full           chan struct{} // closed when the peak first reaches hold
}

func (w *commitWitness) commit(fn func() error) error {
	w.mu.Lock()
	w.inFlight++
	if w.inFlight > w.peak {
		w.peak = w.inFlight
		if w.peak == w.hold {
			close(w.full)
		}
	}
	full := w.full
	w.mu.Unlock()
	if full != nil {
		select {
		case <-full:
		case <-time.After(5 * time.Second):
		}
	}
	err := fn()
	w.mu.Lock()
	w.inFlight--
	w.mu.Unlock()
	return err
}

type witnessedTarget struct {
	Target
	w *commitWitness
}

func (t witnessedTarget) Commit() error { return t.w.commit(t.Target.Commit) }

// TestParallelDeploySpeedup: a 16-device phase commits through the
// default worker pool with 8 commits in flight at once (the §5.3
// "scalable" requirement), and serially with one.
func TestParallelDeploySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	fleet, _, _ := newTestFleet(t, 16)
	const delay = 10 * time.Millisecond
	for _, d := range fleet.Devices() {
		d.SetCommitDelay(delay)
	}
	w := &commitWitness{}
	base := FleetResolver(fleet)
	dep := NewDeployer(func(name string) (Target, error) {
		tgt, err := base(name)
		if err != nil {
			return nil, err
		}
		return witnessedTarget{Target: tgt, w: w}, nil
	})
	serial := timeDeploy(t, dep, newConfigs(fleet, 2), Options{Parallelism: 1})
	if serial < 16*delay {
		t.Fatalf("serial run implausibly fast: %v", serial)
	}
	if w.peak != 1 {
		t.Errorf("serial deploy had %d commits in flight, want 1", w.peak)
	}
	w = &commitWitness{hold: 8, full: make(chan struct{})}
	timeDeploy(t, dep, newConfigs(fleet, 3), Options{}) // default: min(8, 16)
	if w.peak != 8 {
		t.Errorf("parallel deploy had %d commits in flight at most, want the pool size 8", w.peak)
	}
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9003") {
			t.Errorf("%s not updated by parallel deploy", d.Name())
		}
	}
}

// TestParallelAtomicRollbackMixedSpeeds: atomic rollback must cover every
// committed device when fast and slow devices race in the pool, including
// a straggler whose commit lands after its time window.
func TestParallelAtomicRollbackMixedSpeeds(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 8)
	for i, d := range fleet.Devices() {
		if i%2 == 0 {
			d.SetCommitDelay(5 * time.Millisecond)
		}
	}
	slow, _ := fleet.Device("dev03")
	slow.SetCommitDelay(150 * time.Millisecond) // breaches the window
	cfgs := newConfigs(fleet, 2)
	_, err := dep.Deploy(cfgs, Options{
		Atomic:        true,
		Parallelism:   4,
		CommitTimeout: 40 * time.Millisecond,
		HealthCheck:   func(tg Target, intended string) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "did not finish applying") {
		t.Fatalf("want time-window error, got %v", err)
	}
	// Every device — fast committers and the late-landing straggler —
	// runs the baseline again.
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9001") {
			t.Errorf("%s not rolled back: %q", d.Name(), cfg)
		}
	}
}

// TestNonAtomicLateCommitReported: bugfix — a non-atomic failure exit must
// settle stragglers before returning, and a commit that lands late must
// show up in the Report instead of silently landing after Deploy returns.
func TestNonAtomicLateCommitReported(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 3)
	slow, _ := fleet.Device("dev01")
	slow.SetCommitDelay(80 * time.Millisecond)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{
		Parallelism:   1, // deterministic order: dev00 commits, dev01 times out
		CommitTimeout: 25 * time.Millisecond,
		HealthCheck:   func(tg Target, intended string) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "did not finish applying") {
		t.Fatalf("want time-window error, got %v", err)
	}
	// By the time Deploy returned, the straggler's commit has settled and
	// is reported: the device really runs the new config.
	var late bool
	for _, res := range rep.Results {
		if res.Device == "dev01" && res.Action == "late-commit" {
			late = true
		}
	}
	if !late {
		t.Errorf("late commit of dev01 not reported: %+v", rep.Results)
	}
	cfg, _ := slow.RunningConfig()
	if !strings.Contains(cfg, "9002") {
		t.Errorf("dev01 late commit should have landed before return: %q", cfg)
	}
}

// TestNonAtomicConfirmGraceFailureReturnsPending: bugfix — when a
// non-atomic commit-confirmed deployment fails mid-rollout, the devices
// that did commit provisionally must come back in Report.Pending (armed),
// so the operator can confirm the partial progress or roll everything
// back; previously emulated-commit devices were stranded committed while
// native ones auto-reverted.
func TestNonAtomicConfirmGraceFailureReturnsPending(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 4)
	cfgs := newConfigs(fleet, 2)
	d3, _ := fleet.Device("dev03")
	rep, err := dep.Deploy(cfgs, Options{
		ConfirmGrace: time.Minute,
		Parallelism:  1,
		Review: func(device, diff string) bool {
			if device == "dev03" {
				d3.SetDown(true) // dies after review, before its commit
			}
			return true
		},
		HealthCheck: func(tg Target, intended string) error { return nil },
	})
	if err == nil {
		t.Fatal("deployment should fail on dev03")
	}
	if rep.Pending == nil {
		t.Fatal("failed commit-confirmed deployment must return the pending set")
	}
	got := rep.Pending.Devices()
	if len(got) != 3 {
		t.Fatalf("pending devices = %v, want dev00..dev02", got)
	}
	// Both vendors (emulated and native confirm) roll back together.
	if err := rep.Pending.Rollback(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dev00", "dev01", "dev02"} {
		d, _ := fleet.Device(name)
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9001") {
			t.Errorf("%s not rolled back from provisional commit: %q", name, cfg)
		}
		if d.ConfirmPending() {
			t.Errorf("%s native rollback timer still armed", name)
		}
	}
}

// TestNonAtomicConfirmGraceHealthGateArmsPending: the same guarantee on
// the health-gate failure exit — unconfirmed commits auto-expire instead
// of leaving emulated devices permanently committed.
func TestNonAtomicConfirmGraceHealthGateArmsPending(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 4)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{
		ConfirmGrace: 40 * time.Millisecond,
		Phases:       []Phase{{Name: "canary", Percent: 50}, {Name: "rest"}},
		HealthCheck: func(tg Target, intended string) error {
			return errors.New("synthetic regression")
		},
	})
	if err == nil || !strings.Contains(err.Error(), "halted") {
		t.Fatalf("want halt error, got %v", err)
	}
	if rep.Pending == nil {
		t.Fatal("halted commit-confirmed deployment must return the pending set")
	}
	// Left alone, the grace timer rolls every provisional commit back.
	deadline := time.Now().Add(2 * time.Second)
	for !rep.Pending.Settled() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for _, name := range rep.Pending.Devices() {
		d, _ := fleet.Device(name)
		for d.ConfirmPending() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9001") {
			t.Errorf("%s not auto-rolled-back after halt + expiry: %q", name, cfg)
		}
	}
}

// TestDryrunDiscardsCandidate: bugfix — Dryrun must not leave the
// candidate config staged on the device, where an unrelated later
// Commit() would silently activate it.
func TestDryrunDiscardsCandidate(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 2)
	if _, err := dep.Dryrun(newConfigs(fleet, 2), Options{}); err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		if err := d.Commit(); err == nil {
			t.Errorf("%s: commit after dryrun should fail (no candidate), but it committed the abandoned candidate", d.Name())
		}
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9001") {
			t.Errorf("%s running config changed by dryrun: %q", d.Name(), cfg)
		}
	}
}

// TestReviewRejectionDiscardsCandidates: the same leak on the Deploy
// review path — a rejected deployment must leave no device with a staged
// candidate from the preceding dryrun pass.
func TestReviewRejectionDiscardsCandidates(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 3)
	_, err := dep.Deploy(newConfigs(fleet, 2), Options{
		Review: func(device, diff string) bool { return device != "dev02" },
	})
	if !errors.Is(err, ErrReviewRejected) {
		t.Fatalf("want ErrReviewRejected, got %v", err)
	}
	// dev00/dev01 passed review before the abort; their candidates must
	// be gone too.
	for _, d := range fleet.Devices() {
		if err := d.Commit(); err == nil {
			t.Errorf("%s still had a staged candidate after rejected review", d.Name())
		}
	}
}

// TestPendingConfirmExpireRace: Confirm racing the grace-expiry timer must
// settle exactly once — either the confirmation wins (configs stay) or the
// expiry wins (configs roll back), never a half of each. Run under -race.
func TestPendingConfirmExpireRace(t *testing.T) {
	for i := 0; i < 25; i++ {
		fleet, dep, _ := newTestFleet(t, 2)
		cfgs := newConfigs(fleet, 2)
		rep, err := dep.Deploy(cfgs, Options{ConfirmGrace: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		outcomes := make([]error, 3)
		for j := 0; j < 3; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				if j == 2 {
					outcomes[j] = rep.Pending.Rollback()
				} else {
					outcomes[j] = rep.Pending.Confirm()
				}
			}(j)
		}
		wg.Wait()
		wins := 0
		for _, err := range outcomes {
			if err == nil {
				wins++
			}
		}
		if wins > 1 {
			t.Fatalf("iteration %d: %d settlement operations succeeded, want at most 1", i, wins)
		}
		if !rep.Pending.Settled() {
			t.Fatalf("iteration %d: pending not settled after race", i)
		}
		// A Confirm can win the settle race yet lose against a
		// device-native timer that fired in the same instant; the
		// operator sees "confirmation failed" and must intervene. The
		// final state of that boundary case is indeterminate by design.
		boundary := false
		for _, err := range outcomes {
			if err != nil && strings.Contains(err.Error(), "confirmation failed") {
				boundary = true
			}
		}
		if boundary {
			continue
		}
		// Wait for any native device timers to quiesce before asserting
		// a coherent final state: both devices on 9001 or both on 9002.
		deadline := time.Now().Add(2 * time.Second)
		d1, _ := fleet.Device("dev01")
		for d1.ConfirmPending() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		confirmed := false
		for j, err := range outcomes {
			if err == nil && j != 2 {
				confirmed = true
			}
		}
		rolledBack := !confirmed // expiry or explicit rollback won
		for _, d := range fleet.Devices() {
			cfg, _ := d.RunningConfig()
			switch {
			case rolledBack && !strings.Contains(cfg, "9001"):
				t.Fatalf("iteration %d: %s kept new config after rollback won: %q", i, d.Name(), cfg)
			case confirmed && !strings.Contains(cfg, "9002"):
				t.Fatalf("iteration %d: %s lost config after confirm won: %q", i, d.Name(), cfg)
			}
		}
	}
}

// TestParallelDryrunAndProvision: the pool-threaded Dryrun and
// InitialProvision paths stay correct for a wide fan-out.
func TestParallelDryrunAndProvision(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 24)
	cfgs := newConfigs(fleet, 2)
	diffs, err := dep.Dryrun(cfgs, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 24 {
		t.Fatalf("diffs = %d", len(diffs))
	}
	rep, err := dep.InitialProvision(cfgs, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 24 || len(rep.Failed()) != 0 {
		t.Fatalf("results = %d, failed = %d", len(rep.Results), len(rep.Failed()))
	}
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if cfg != cfgs[d.Name()] {
			t.Errorf("%s not provisioned", d.Name())
		}
	}
}

// TestParallelCommitConfirmFleetwide exercises the pool and the shared
// Pending set together on a larger fleet under the race detector.
func TestParallelCommitConfirmFleetwide(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 32)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{ConfirmGrace: time.Minute, Parallelism: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Pending.Devices()); got != 32 {
		t.Fatalf("pending devices = %d", got)
	}
	if err := rep.Pending.Confirm(); err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		cfg, _ := d.RunningConfig()
		if !strings.Contains(cfg, "9002") {
			t.Errorf("%s lost confirmed config", d.Name())
		}
	}
}

var _ Target = (*netsim.Device)(nil) // parallel engine contract includes DiscardCandidate
