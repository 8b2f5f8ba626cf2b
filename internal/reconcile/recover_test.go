package reconcile

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/vclock"
)

// resumeWorld builds the scripted multi-shard world the kill-and-resume
// tests replay: two shards (a, b), a deploy failure, a silent drift
// caught by the sweep, and a check error.
func resumeWorld() (*fakeWorld, Config, []string) {
	devs := []string{"psw1.a-c1", "psw2.a-c1", "psw3.b-c1", "psw4.b-c1"}
	w := newFakeWorld(devs...)
	w.deployFail["psw2.a-c1"] = 1
	cfg := Config{
		BackoffBase: time.Second, DampingThreshold: -1,
		BudgetMaxDevices: 10, BudgetMaxFraction: 1,
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
// numbers, timer due times, and sweep cadence — whether remediations run
// one at a time or through a window.
func TestKillAndResumeJournalByteIdentical(t *testing.T) {
	for _, p := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", p), func(t *testing.T) { killAndResume(t, p) })
	}
}

func killAndResume(t *testing.T, parallelism int) {
	// Run A: uninterrupted.
	wA, cfgA, devsA := resumeWorld()
	cfgA.Parallelism = parallelism
	rA, clkA := newResumeRec(wA, cfgA, devsA)
	defer rA.Stop()
	driveToKillPoint(wA, rA, clkA)
	clkA.Advance(46 * time.Second) // t0+120s: second sweep fires at the end

	// Run B: identical stimuli, killed at t0+74s, resumed from the
	// journal, then the clock simply keeps going.
	wB, cfgB, devsB := resumeWorld()
	cfgB.Parallelism = parallelism
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
	killed := r.Stats().String()
	r.Stop()

	r2 := ResumeFromJournal(deps, cfg, events)
	defer r2.Stop()
	if !r2.ShardTripped("a") || r2.ShardTripped("b") {
		t.Error("shard breaker positions lost across restart: want a open, b closed")
	}
	if got := r2.Stats().String(); got != killed {
		t.Errorf("stats across restart:\nkilled:  %s\nresumed: %s", killed, got)
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

// historyDevices is the random histories' world: six devices in three
// shards (a, b, c by DeriveShard).
var historyDevices = []string{
	"psw1.a-c1", "psw2.a-c1", "psw1.b-c1", "psw2.b-c1", "psw1.c-c1", "psw2.c-c1",
}

// history is a run script: the fleet (also the sweep's order), a Config,
// the steps fed to the reconciler, and the step after which the resumed
// run is killed.
type history struct {
	devices []string
	cfg     Config
	steps   []historyStep
	kill    int
}

type historyStep struct {
	desc string
	do   func(w *fakeWorld, r *Reconciler, clk *vclock.VirtualClock)
}

func notifiedDrift(d string) historyStep {
	return historyStep{"notified drift on " + d, func(w *fakeWorld, r *Reconciler, _ *vclock.VirtualClock) {
		driftAndNotify(w, r, d)
	}}
}

func silentDrift(d string) historyStep {
	return historyStep{"silent drift on " + d, func(w *fakeWorld, _ *Reconciler, _ *vclock.VirtualClock) {
		w.drift(d)
	}}
}

// failNext adds n to one of the fake world's failure counters
// (deployFail, deployDrop, checkFail) for d.
func failNext(w *fakeWorld, counter map[string]int, d string, n int) {
	w.mu.Lock()
	counter[d] += n
	w.mu.Unlock()
}

func deployFails(d string) historyStep {
	return historyStep{"next deploy of " + d + " fails", func(w *fakeWorld, _ *Reconciler, _ *vclock.VirtualClock) {
		failNext(w, w.deployFail, d, 1)
	}}
}

func deployDrops(d string) historyStep {
	return historyStep{"next deploy of " + d + " drops the session", func(w *fakeWorld, _ *Reconciler, _ *vclock.VirtualClock) {
		failNext(w, w.deployDrop, d, 1)
	}}
}

// checkErrors reports one check error on d, and makes its next more
// checks error too.
func checkErrors(d string, more int) historyStep {
	return historyStep{fmt.Sprintf("check of %s errors, then %d more", d, more), func(w *fakeWorld, r *Reconciler, _ *vclock.VirtualClock) {
		failNext(w, w.checkFail, d, more)
		r.HandleCheckError(d, errors.New("unreachable"))
	}}
}

func resetBreakers() historyStep {
	return historyStep{"reset every breaker", func(_ *fakeWorld, r *Reconciler, _ *vclock.VirtualClock) {
		r.ResetBreaker()
	}}
}

func advance(d time.Duration) historyStep {
	return historyStep{fmt.Sprintf("advance %v", d), func(_ *fakeWorld, _ *Reconciler, clk *vclock.VirtualClock) {
		clk.Advance(d)
	}}
}

func randomHistory(seed int64) history {
	rng := rand.New(rand.NewSource(seed))
	between := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	h := history{devices: historyDevices, cfg: Config{
		BackoffBase:       time.Second,
		BudgetMaxDevices:  between(1, 4),
		BudgetMaxFraction: 1,
		DampingThreshold:  -1,
		MaxAttempts:       between(2, 5),
		MaxCheckRetries:   between(1, 3),
	}}
	if rng.Intn(2) == 0 {
		h.cfg.DampingThreshold = between(2, 4)
	}
	n := between(20, 40)
	if rng.Intn(2) == 0 {
		// Until the first sweep is journaled the killed process's sweep
		// phase is unknown (see ResumeFromJournal), so such a history
		// opens with one sweep interval of quiet.
		h.cfg.SweepInterval = time.Duration(between(30, 90)) * time.Second
		h.steps = append(h.steps, advance(h.cfg.SweepInterval))
	}
	shards := []string{"a", "b", "c"}
	for len(h.steps) < n {
		d := historyDevices[rng.Intn(len(historyDevices))]
		var s historyStep
		switch k := rng.Intn(100); {
		case k < 18:
			s = notifiedDrift(d)
		case k < 26:
			s = silentDrift(d)
		case k < 33:
			s = deployFails(d)
		case k < 40:
			s = deployDrops(d)
		case k < 50:
			s = checkErrors(d, rng.Intn(3))
		case k < 54:
			s = resetBreakers()
		case k < 58:
			sh := shards[rng.Intn(len(shards))]
			s = historyStep{"reset shard " + sh, func(_ *fakeWorld, r *Reconciler, _ *vclock.VirtualClock) {
				_ = r.ResetShardBreaker(sh) // unknown until a device of sh is tracked
			}}
		case k < 64:
			s = historyStep{"release " + d, func(_ *fakeWorld, r *Reconciler, _ *vclock.VirtualClock) {
				_ = r.Release(d) // errors unless d is quarantined
			}}
		default:
			adv := between(1, 12)
			if rng.Intn(5) == 0 {
				adv = between(30, 120)
			}
			s = advance(time.Duration(adv) * time.Second)
		}
		h.steps = append(h.steps, s)
	}
	h.kill = rng.Intn(n)
	return h
}

// run plays the history on a fresh world and virtual clock. With kill ≥
// 0 the reconciler is killed after that step and rebuilt from its
// journal alone; the remaining steps go to the resumed one. Either way
// the run ends with an hour of quiet for every pending timer to fire.
func (h history) run(kill int) *Reconciler {
	w := newFakeWorld(h.devices...)
	clk := vclock.NewVirtualClock(t0)
	cfg := h.cfg
	cfg.Clock = clk
	deps := Deps{
		Golden:    w,
		Deployer:  deployerFunc(w.deployClock(clk)),
		Checker:   w,
		SweepList: func() []string { return append([]string(nil), h.devices...) },
	}
	r := New(deps, cfg)
	r.Start()
	for i, s := range h.steps {
		s.do(w, r, clk)
		if i == kill {
			events := r.Journal().Events()
			r.Stop()
			r = ResumeFromJournal(deps, cfg, events)
		}
	}
	clk.Advance(time.Hour)
	r.Stop()
	return r
}

// check runs the history uninterrupted and killed after h.kill, and
// fails t, naming what, unless both runs end with the same journal,
// device states and stats, and neither ever had more remediations in
// flight in a shard than its budget.
func (h history) check(t *testing.T, what string) {
	t.Helper()
	a, b := h.run(-1), h.run(h.kill)
	fail := func(format string, args ...any) {
		t.Helper()
		var steps strings.Builder
		for i, s := range h.steps {
			mark := ""
			if i == h.kill {
				mark = "  <- killed after this step"
			}
			fmt.Fprintf(&steps, "  %2d %s%s\n", i, s.desc, mark)
		}
		t.Fatalf("%s, killed after step %d: %s\nconfig: %+v\nsteps:\n%s",
			what, h.kill, fmt.Sprintf(format, args...), h.cfg, steps.String())
	}
	if ja, jb := a.Journal().Format(), b.Journal().Format(); ja != jb {
		fail("journals diverge\n%s", journalDiff(ja, jb))
	}
	if sa, sb := fmt.Sprint(a.States()), fmt.Sprint(b.States()); sa != sb {
		fail("states diverge\nuninterrupted: %s\nresumed:       %s", sa, sb)
	}
	if sa, sb := a.Stats().String(), b.Stats().String(); sa != sb {
		fail("stats diverge\nuninterrupted: %s\nresumed:       %s", sa, sb)
	}
	// Without a fleet size, a shard's budget is K alone.
	budget := h.cfg.withDefaults().BudgetMaxDevices
	for name, r := range map[string]*Reconciler{"uninterrupted": a, "resumed": b} {
		for sh, max := range r.Journal().MaxActiveByShard() {
			if max > budget {
				fail("%s run: shard %s had %d remediations in flight, budget %d", name, sh, max, budget)
			}
		}
	}
}

// TestResumeEqualsUninterruptedOverRandomHistories is the kill-and-resume
// contract as a property: over seeded histories of drift, deploy and
// check failures, operator actions and clock advances, a reconciler
// killed after any step and rebuilt by ResumeFromJournal ends with the
// journal, device states and stats of the run that was never killed, and
// neither run ever exceeds a shard's budget. It holds with remediations
// run one at a time and through a window of 8.
func TestResumeEqualsUninterruptedOverRandomHistories(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		for _, p := range []int{1, 8} {
			h := randomHistory(seed)
			h.cfg.Parallelism = p
			h.check(t, fmt.Sprintf("seed %d, parallelism %d", seed, p))
		}
	}
}

// TestResumeDoesNotRerunPassedCheckRetry: a check retry that came due and
// passed before the kill is not run again on resume. Re-running it here
// would find the silent drift that, uninterrupted, waits for a sweep.
func TestResumeDoesNotRerunPassedCheckRetry(t *testing.T) {
	d := "psw1.a-c1"
	history{
		devices: []string{d},
		cfg:     Config{BackoffBase: time.Second, DampingThreshold: -1},
		steps:   []historyStep{checkErrors(d, 0), advance(2 * time.Second), silentDrift(d)},
		kill:    2,
	}.check(t, "retry passed at 1s")
}

// TestResumeZeroesRetryCountAfterPassedCheck: a check that passed before
// the kill zeroed the device's retry count without a journal entry, so
// replay must zero it too. In each case the check error after the kill
// shows the count as its attempt number.
func TestResumeZeroesRetryCountAfterPassedCheck(t *testing.T) {
	d, x, y := "psw1.a-c1", "psw2.a-c1", "psw3.a-c1"
	sweeps := Config{BackoffBase: time.Second, DampingThreshold: -1, SweepInterval: 30 * time.Second}
	budget1 := sweeps
	budget1.BudgetMaxDevices = 1
	for _, h := range []struct {
		what string
		history
	}{{
		// The retry found the drift already being remediated; the device
		// then quarantined, so neither a convergence nor a re-run retry
		// zeroes the count.
		"a retry at 1s found drift", history{
			devices: []string{d},
			cfg:     Config{BackoffBase: time.Second, DampingThreshold: -1, MaxAttempts: 1},
			steps: []historyStep{checkErrors(d, 0), deployFails(d), notifiedDrift(d),
				advance(2 * time.Second), checkErrors(d, 0)},
			kill: 3,
		},
	}, {
		// The retry at 59s errors (attempt 2, next retry at 61s); the 60s
		// sweep passes the device before the kill.
		"the 60s sweep passed it", history{
			devices: []string{d},
			cfg:     sweeps,
			steps: []historyStep{advance(58 * time.Second), checkErrors(d, 1),
				advance(2 * time.Second), checkErrors(d, 0)},
			kill: 2,
		},
	}, {
		// As above, but the sweep's detection of x trips the shard (y is
		// already open, budget 1) before the sweep reaches d: the sweep
		// started with the breaker closed, so it still checked d.
		"the 60s sweep passed it and tripped its shard", history{
			devices: []string{x, y, d},
			cfg:     budget1,
			steps: []historyStep{advance(58 * time.Second), checkErrors(d, 1), silentDrift(x),
				advance(time.Second), notifiedDrift(y), advance(time.Second), checkErrors(d, 0)},
			kill: 5,
		},
	}} {
		h.check(t, h.what)
	}
}

// TestResumeLeavesParkedRemediationToTheDrain: a backoff timer that fired
// against an open breaker before the kill is not re-armed, so the reset
// after resume paces it like the rest of the backlog.
func TestResumeLeavesParkedRemediationToTheDrain(t *testing.T) {
	d, x := "psw1.a-c1", "psw2.a-c1"
	history{
		devices: []string{d, x},
		cfg:     Config{BackoffBase: time.Second, DampingThreshold: -1, BudgetMaxDevices: 1},
		steps:   []historyStep{notifiedDrift(d), notifiedDrift(x), advance(10 * time.Second), resetBreakers()},
		kill:    2,
	}.check(t, "d parked at 1s")
}

// TestResumeRearmsEveryPendingCheckRetry: every check retry pending at the
// kill is re-armed, not only the device's latest. Here the earlier retry
// errors once more, so its attempt number and due time show in the
// journal.
func TestResumeRearmsEveryPendingCheckRetry(t *testing.T) {
	d := "psw1.a-c1"
	history{
		devices: []string{d},
		cfg:     Config{BackoffBase: time.Second, DampingThreshold: -1},
		steps:   []historyStep{checkErrors(d, 1), checkErrors(d, 0)},
		kill:    1,
	}.check(t, "two retries pending")
}

// journalDiff shows both journals from a few lines before their first
// difference.
func journalDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	i := 0
	for i < len(la) && i < len(lb) && la[i] == lb[i] {
		i++
	}
	from := max(0, i-8)
	window := func(l []string) string { return strings.Join(l[from:min(len(l), i+12)], "\n") }
	return fmt.Sprintf("--- uninterrupted ---\n%s\n--- resumed ---\n%s", window(la), window(lb))
}
