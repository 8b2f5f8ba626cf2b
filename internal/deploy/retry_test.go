package deploy

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/telemetry"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorClass
	}{
		{nil, ClassPermanent},
		{errors.New("syntax error"), ClassPermanent},
		{fmt.Errorf("wrap: %w", netsim.ErrInjectedTransient), ClassTransient},
		{fmt.Errorf("wrap: %w", netsim.ErrUnreachable), ClassTransient},
		{fmt.Errorf("wrap: %w", netsim.ErrConnDropped), ClassAmbiguous},
		{fmt.Errorf("wrap: %w", netsim.ErrTimeout), ClassAmbiguous},
		{fmt.Errorf("wrap: %w", netsim.ErrGarbledReply), ClassAmbiguous},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRetryPolicyDelaysDeterministic(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		rp := RetryPolicy{Seed: seed}.withDefaults()
		rng := rp.rng("dev01")
		out := make([]time.Duration, 8) // the last two reach the cap
		for i := range out {
			out[i] = rp.delay(i+1, rng)
		}
		return out
	}
	a, b := seq(9), seq(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, delay %d differs: %v vs %v", i, a[i], b[i])
		}
		// Retry n backs off 50ms·2ⁿ⁻¹ capped at 2s, jittered down by at
		// most half.
		d := min(50*time.Millisecond<<i, 2*time.Second)
		if a[i] < d/2 || a[i] > d {
			t.Errorf("delay %d = %v, want within [%v, %v]", i+1, a[i], d/2, d)
		}
	}
}

// countingTarget counts Commit/CommitConfirmed invocations that reach
// the device, proving the no-double-commit property of ambiguity
// resolution.
type countingTarget struct {
	Target
	commits *atomic.Int64
}

func (c countingTarget) Commit() error {
	c.commits.Add(1)
	return c.Target.Commit()
}

func (c countingTarget) CommitConfirmed(grace time.Duration) error {
	c.commits.Add(1)
	return c.Target.CommitConfirmed(grace)
}

func noSleep(rp *RetryPolicy) { rp.Sleep = func(time.Duration) {} }

func TestDeployRetriesTransientFault(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 4)
	p := netsim.NewFaultPolicy(11)
	p.Add(netsim.FaultRule{Kind: netsim.FaultTransient, Probability: 1, Verbs: []string{"commit"}, MaxCount: 2})
	fleet.SetFaultPolicy(p)
	reg := telemetry.NewRegistry()
	dep.Instrument(reg)

	rp := &RetryPolicy{Seed: 1}
	noSleep(rp)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{Retry: rp})
	if err != nil {
		t.Fatalf("deploy with transient faults should succeed via retry: %v (results %v)", err, rep.Results)
	}
	for _, d := range fleet.Devices() {
		if cfg, _ := d.RunningConfig(); cfg != cfgs[d.Name()] {
			t.Errorf("%s did not converge", d.Name())
		}
	}
	if got := reg.Counter("robotron_deploy_retries_total").Value(); got < 2 {
		t.Errorf("retries counter = %d, want >= 2", got)
	}
}

// TestAmbiguousCommitResolvedWithoutDoubleCommit is the acceptance case:
// the connection drops after the commit applied but before the OK
// arrived. The retry layer must read the config back, see it matches the
// intent, and report success WITHOUT driving the commit a second time.
func TestAmbiguousCommitResolvedWithoutDoubleCommit(t *testing.T) {
	fleet, _, _ := newTestFleet(t, 1)
	p := netsim.NewFaultPolicy(5)
	p.Add(netsim.FaultRule{Kind: netsim.FaultDropAfter, Probability: 1, Verbs: []string{"commit"}, MaxCount: 1})
	fleet.SetFaultPolicy(p)

	var commits atomic.Int64
	base := FleetResolver(fleet)
	dep := NewDeployer(func(name string) (Target, error) {
		tgt, err := base(name)
		if err != nil {
			return nil, err
		}
		return countingTarget{Target: tgt, commits: &commits}, nil
	})
	reg := telemetry.NewRegistry()
	dep.Instrument(reg)

	rp := &RetryPolicy{Seed: 1}
	noSleep(rp)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{Retry: rp})
	if err != nil {
		t.Fatalf("ambiguous commit should resolve to success: %v (results %v)", err, rep.Results)
	}
	if got := commits.Load(); got != 1 {
		t.Fatalf("device saw %d commit(s), want exactly 1 — ambiguity resolution must not re-commit", got)
	}
	d, _ := fleet.Device("dev00")
	if cfg, _ := d.RunningConfig(); cfg != cfgs["dev00"] {
		t.Error("config not applied")
	}
	applied := reg.Counter("robotron_deploy_ambiguous_resolutions_total",
		telemetry.Label{Key: "outcome", Value: "applied"}).Value()
	if applied != 1 {
		t.Errorf("ambiguous resolutions (applied) = %d, want 1", applied)
	}
}

// Drop BEFORE apply: readback shows the old config, so resolution must
// conclude "not applied" and drive the commit again.
func TestAmbiguousCommitNotAppliedRetries(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 1)
	p := netsim.NewFaultPolicy(5)
	p.Add(netsim.FaultRule{Kind: netsim.FaultDropBefore, Probability: 1, Verbs: []string{"commit"}, MaxCount: 1})
	fleet.SetFaultPolicy(p)
	reg := telemetry.NewRegistry()
	dep.Instrument(reg)

	rp := &RetryPolicy{Seed: 1}
	noSleep(rp)
	cfgs := newConfigs(fleet, 2)
	if _, err := dep.Deploy(cfgs, Options{Retry: rp}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	d, _ := fleet.Device("dev00")
	if cfg, _ := d.RunningConfig(); cfg != cfgs["dev00"] {
		t.Error("config not applied after retry")
	}
	retried := reg.Counter("robotron_deploy_ambiguous_resolutions_total",
		telemetry.Label{Key: "outcome", Value: "retried"}).Value()
	if retried != 1 {
		t.Errorf("ambiguous resolutions (retried) = %d, want 1", retried)
	}
}

// Ambiguity resolution under commit-confirm: the drop hits the native
// commit-confirmed verb; after resolution the pending set must still
// know about the device so the confirm step completes the rollout.
func TestAmbiguousCommitConfirmedResolves(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 2)
	p := netsim.NewFaultPolicy(5)
	p.Add(netsim.FaultRule{Kind: netsim.FaultDropAfter, Probability: 1, Verbs: []string{"commit-confirmed", "commit"}, MaxCount: 1})
	fleet.SetFaultPolicy(p)

	rp := &RetryPolicy{Seed: 1}
	noSleep(rp)
	cfgs := newConfigs(fleet, 2)
	rep, err := dep.Deploy(cfgs, Options{Retry: rp, ConfirmGrace: 2 * time.Second})
	if err != nil {
		t.Fatalf("deploy: %v (results %v)", err, rep.Results)
	}
	if rep.Pending == nil || len(rep.Pending.Devices()) != 2 {
		t.Fatalf("pending = %v, want 2 provisional commits", rep.Pending)
	}
	if err := rep.Pending.Confirm(); err != nil {
		t.Fatalf("confirm: %v", err)
	}
	// Outlive the grace period: a lost pending registration would roll
	// the device back here.
	time.Sleep(2500 * time.Millisecond)
	for _, d := range fleet.Devices() {
		if cfg, _ := d.RunningConfig(); cfg != cfgs[d.Name()] {
			t.Errorf("%s rolled back after confirm — pending registration lost", d.Name())
		}
	}
}

func TestRetryBudgetExhaustionFails(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 1)
	p := netsim.NewFaultPolicy(5)
	// Unlimited transient faults: the budget must run out.
	p.Add(netsim.FaultRule{Kind: netsim.FaultTransient, Probability: 1, Verbs: []string{"commit"}})
	fleet.SetFaultPolicy(p)

	rp := &RetryPolicy{Seed: 1, MaxAttempts: 3}
	noSleep(rp)
	_, err := dep.Deploy(newConfigs(fleet, 2), Options{Retry: rp})
	if err == nil {
		t.Fatal("deploy should fail once the retry budget is exhausted")
	}
	if !errors.Is(err, netsim.ErrInjectedTransient) {
		t.Errorf("exhaustion error should wrap the last transport error, got %v", err)
	}
}

func TestPermanentErrorFailsFast(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 2)
	var commits atomic.Int64
	base := FleetResolver(fleet)
	dep = NewDeployer(func(name string) (Target, error) {
		tgt, err := base(name)
		if err != nil {
			return nil, err
		}
		return countingTarget{Target: tgt, commits: &commits}, nil
	})
	rp := &RetryPolicy{Seed: 1}
	noSleep(rp)
	// Invalid config: a permanent rejection the retry loop must not chew
	// on (dev01 is Vendor2, whose syntax check rejects unbalanced blocks).
	_, err := dep.Deploy(map[string]string{"dev01": "ae0 {\n unbalanced\n"}, Options{Retry: rp})
	if err == nil {
		t.Fatal("invalid config should fail")
	}
	if got := commits.Load(); got > 1 {
		t.Errorf("permanent error was retried %d times — must fail fast", got)
	}
}

func TestInitialProvisionRetriesFaults(t *testing.T) {
	fleet, dep, _ := newTestFleet(t, 4)
	p := netsim.NewFaultPolicy(21)
	p.Add(netsim.FaultRule{Kind: netsim.FaultTransient, Probability: 0.4, Verbs: []string{"erase", "load-config", "commit"}})
	p.Add(netsim.FaultRule{Kind: netsim.FaultDropAfter, Probability: 0.2, Verbs: []string{"commit"}})
	fleet.SetFaultPolicy(p)

	rp := &RetryPolicy{Seed: 1, MaxAttempts: 8}
	noSleep(rp)
	cfgs := newConfigs(fleet, 3)
	if _, err := dep.InitialProvision(cfgs, Options{Retry: rp}); err != nil {
		t.Fatalf("provision under chaos: %v", err)
	}
	for _, d := range fleet.Devices() {
		if cfg, _ := d.RunningConfig(); cfg != cfgs[d.Name()] {
			t.Errorf("%s not provisioned", d.Name())
		}
	}
}
