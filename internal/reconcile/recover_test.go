package reconcile

import (
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/vclock"
)

// resumeWorld builds the scripted multi-shard world the kill-and-resume
// tests replay: two shards (a, b), a deploy failure, a rate-limited
// backlog, a silent drift caught by the sweep, and a check error.
func resumeWorld() (*fakeWorld, Config, []string) {
	devs := []string{"psw1.a-c1", "psw2.a-c1", "psw3.b-c1", "psw4.b-c1"}
	w := newFakeWorld(devs...)
	w.deployFail["psw2.a-c1"] = 1
	cfg := Config{
		BackoffBase: time.Second, DampingThreshold: -1,
		BudgetMaxDevices: 10, BudgetMaxFraction: 1,
		DeployEvery: 5 * time.Second, DeployBurst: 1,
		SweepInterval: time.Minute,
	}
	return w, cfg, devs
}

func newResumeRec(w *fakeWorld, cfg Config, devs []string) (*Reconciler, *vclock.VirtualClock) {
	clk := vclock.NewVirtualClock(t0)
	cfg.Clock = clk
	r := New(Deps{
		Golden:    w,
		Deployer:  deployerFunc(w.deployClock(clk)),
		Checker:   w,
		SweepList: func() []string { return append([]string(nil), devs...) },
	}, cfg)
	r.Start()
	return r, clk
}

// driveToKillPoint applies the scripted stimuli up to the quiescent kill
// point at t0+74s: three notified drifts at t0, a silent drift and a
// scripted check error at t0+30s (both surfaced by the t0+60s sweep),
// and a fresh drift at t0+74s whose backoff timer is still pending.
func driveToKillPoint(w *fakeWorld, r *Reconciler, clk *vclock.VirtualClock) {
	driftAndNotify(w, r, "psw1.a-c1")
	driftAndNotify(w, r, "psw2.a-c1")
	driftAndNotify(w, r, "psw3.b-c1")
	clk.Advance(30 * time.Second)
	w.drift("psw4.b-c1") // silent: only the sweep can find it
	w.mu.Lock()
	w.checkFail["psw3.b-c1"] = 1 // the sweep's check errors once
	w.mu.Unlock()
	clk.Advance(44 * time.Second) // t0+74s; sweep ran at t0+60s
	driftAndNotify(w, r, "psw1.a-c1")
}

// TestKillAndResumeJournalByteIdentical is the recovery acceptance test:
// a reconciler killed at a quiescent point and rebuilt with
// ResumeFromJournal produces, from then on, the exact journal the
// uninterrupted run produces — byte for byte, including sequence
// numbers, timer due times, rate-limit decisions, and sweep cadence.
func TestKillAndResumeJournalByteIdentical(t *testing.T) {
	// Run A: uninterrupted.
	wA, cfgA, devsA := resumeWorld()
	rA, clkA := newResumeRec(wA, cfgA, devsA)
	defer rA.Stop()
	driveToKillPoint(wA, rA, clkA)
	clkA.Advance(46 * time.Second) // t0+120s: second sweep fires at the end

	// Run B: identical stimuli, killed at t0+74s, resumed from the
	// journal, then the clock simply keeps going.
	wB, cfgB, devsB := resumeWorld()
	rB, clkB := newResumeRec(wB, cfgB, devsB)
	driveToKillPoint(wB, rB, clkB)
	events := rB.Journal().Events()
	rB.Stop() // the crash

	cfgB.Clock = clkB
	rB2 := ResumeFromJournal(Deps{
		Golden:    wB,
		Deployer:  deployerFunc(wB.deployClock(clkB)),
		Checker:   wB,
		SweepList: func() []string { return append([]string(nil), devsB...) },
	}, cfgB, events)
	defer rB2.Stop()
	clkB.Advance(46 * time.Second)

	a, b := rA.Journal().Format(), rB2.Journal().Format()
	if a != b {
		t.Fatalf("resumed journal diverges from uninterrupted run\n--- uninterrupted ---\n%s--- resumed ---\n%s", a, b)
	}
	// The states and headline counters agree too.
	sa, sb := rA.States(), rB2.States()
	for d, st := range sa {
		if sb[d] != st {
			t.Errorf("state[%s]: uninterrupted %q vs resumed %q", d, st, sb[d])
		}
	}
	ja, jb := rA.Stats(), rB2.Stats()
	if ja.String() != jb.String() {
		t.Errorf("stats diverge:\nuninterrupted: %s\nresumed:       %s", ja.String(), jb.String())
	}
	for d := range wA.golden {
		if wA.running[d] != wA.golden[d] || wB.running[d] != wB.golden[d] {
			t.Errorf("%s not converged in one of the runs", d)
		}
	}
}

// TestResumeRestoresBreakerQuarantineAndDamping: breaker positions,
// quarantines, and flap-damping history survive the restart.
func TestResumeRestoresBreakerQuarantineAndDamping(t *testing.T) {
	devs := []string{"psw1.a-c1", "psw2.a-c1", "psw1.b-c1"}
	w := newFakeWorld(devs...)
	cfg := Config{
		BackoffBase:   time.Second,
		DampingWindow: 15 * time.Minute, DampingThreshold: 3,
		BudgetMaxDevices: 1, BudgetMaxFraction: 1,
	}
	clk := vclock.NewVirtualClock(t0)
	cfg.Clock = clk
	deps := Deps{Golden: w, Deployer: deployerFunc(w.deployClock(clk)), Checker: w}
	r := New(deps, cfg)

	// Flap psw1.b into quarantine: three detections inside the window.
	for i := 0; i < 3; i++ {
		driftAndNotify(w, r, "psw1.b-c1")
		clk.Advance(2 * time.Second)
	}
	wantState(t, r, "psw1.b-c1", StateQuarantined)
	// Storm shard a against budget 1.
	driftAndNotify(w, r, "psw1.a-c1")
	driftAndNotify(w, r, "psw2.a-c1")
	if !r.ShardTripped("a") {
		t.Fatal("shard a should be tripped")
	}
	clk.Advance(10 * time.Second) // park the pending timer against the breaker
	events := r.Journal().Events()
	r.Stop()

	r2 := ResumeFromJournal(deps, cfg, events)
	defer r2.Stop()
	if !r2.ShardTripped("a") {
		t.Error("shard a breaker position lost across restart")
	}
	wantState(t, r2, "psw1.b-c1", StateQuarantined)
	// Drift on the quarantined device is still suppressed — the
	// quarantine (and its damping history) survived.
	preLen := r2.Journal().Len()
	driftAndNotify(w, r2, "psw1.b-c1")
	evs := r2.Journal().Events()
	if len(evs) != preLen+1 || evs[len(evs)-1].Type != EvSuppressed {
		t.Errorf("drift on resumed quarantined device not suppressed:\n%s", r2.Journal().Format())
	}
	if r2.Stats().Suppressed < 1 {
		t.Error("suppressed counter not restored/advanced")
	}
	// The parked storm drains after reset, within budget.
	r2.ResetBreaker()
	clk.Advance(time.Minute)
	wantState(t, r2, "psw1.a-c1", StateConverged)
	wantState(t, r2, "psw2.a-c1", StateConverged)
	if max := r2.Journal().MaxActiveByShard()["a"]; max > 1 {
		t.Errorf("shard a max active %d exceeded budget 1 after resume", max)
	}
	if r2.Stats().BudgetTrips != 1 {
		t.Errorf("BudgetTrips = %d after resume, want the original 1", r2.Stats().BudgetTrips)
	}
}

// TestResumeInterruptedInFlight: a journal that ends mid-remediation
// (the process died holding a budget slot) resumes by releasing the slot
// and redoing the attempt — remediation is idempotent.
func TestResumeInterruptedInFlight(t *testing.T) {
	w := newFakeWorld("psw1.a-c1")
	w.drift("psw1.a-c1")
	clk := vclock.NewVirtualClock(t0.Add(time.Second))
	cfg := Config{BackoffBase: time.Second, DampingThreshold: -1, Clock: clk}
	deps := Deps{Golden: w, Deployer: deployerFunc(w.deployClock(clk)), Checker: w}
	events := []Event{
		{Seq: 1, At: t0, Device: "psw1.a-c1", Shard: "a", Type: EvDetected, Detail: "drift +1/-0 lines"},
		{Seq: 2, At: t0, Device: "psw1.a-c1", Shard: "a", Type: EvScheduled,
			Detail: "remediation in 1s (attempt 1)", FireAt: t0.Add(time.Second)},
		{Seq: 3, At: t0.Add(time.Second), Device: "psw1.a-c1", Shard: "a", Type: EvRemediate,
			Detail: "attempt 1", Active: 1, ShardActive: 1},
	}
	r := ResumeFromJournal(deps, cfg, events)
	defer r.Stop()
	evs := r.Journal().Events()
	if evs[len(evs)-2].Type != EvResumed || evs[len(evs)-1].Type != EvScheduled {
		t.Fatalf("want resumed+scheduled appended after interrupted remediate:\n%s", r.Journal().Format())
	}
	clk.Advance(time.Second)
	wantState(t, r, "psw1.a-c1", StateConverged)
	if w.running["psw1.a-c1"] != w.golden["psw1.a-c1"] {
		t.Error("interrupted remediation not redone after resume")
	}
	if max := r.Journal().MaxActive(); max > 1 {
		t.Errorf("max active %d after resume, want ≤1 (slot released before redo)", max)
	}
}
