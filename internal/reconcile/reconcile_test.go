package reconcile

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/vclock"
)

// fakeWorld implements GoldenSource, ConfigDeployer, and Checker over two
// maps, with scriptable failures, so state-machine behaviour is tested
// without the full stack (e2e_test.go covers that).
type fakeWorld struct {
	mu         sync.Mutex
	golden     map[string]string
	running    map[string]string
	genFail    map[string]int // fail next N generates per device
	deployFail map[string]int // fail next N deploys per device
	deployDrop map[string]int // drop the session on the next N deploys per device
	checkFail  map[string]int // fail next N checks per device
	deploys    []deployRec
	commits    int
}

type deployRec struct {
	device string
	at     time.Time
}

func newFakeWorld(devices ...string) *fakeWorld {
	w := &fakeWorld{
		golden: map[string]string{}, running: map[string]string{},
		genFail: map[string]int{}, deployFail: map[string]int{}, deployDrop: map[string]int{},
		checkFail: map[string]int{},
	}
	for _, d := range devices {
		w.golden[d] = "hostname " + d + "\n"
		w.running[d] = w.golden[d]
	}
	return w
}

func (w *fakeWorld) GenerateDevice(name string) (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.genFail[name] > 0 {
		w.genFail[name]--
		return "", fmt.Errorf("fake generate failure on %s", name)
	}
	cfg, ok := w.golden[name]
	if !ok {
		return "", fmt.Errorf("unknown device %s", name)
	}
	return cfg, nil
}

func (w *fakeWorld) CommitGolden(device, config, author, message string) (revctl.Revision, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.commits++
	return revctl.Revision{}, nil
}

func (w *fakeWorld) deployClock(clk vclock.Clock) func(map[string]string, deploy.Options) (deploy.Report, error) {
	return func(configs map[string]string, opts deploy.Options) (deploy.Report, error) {
		var rep deploy.Report
		w.mu.Lock()
		defer w.mu.Unlock()
		for name, cfg := range configs {
			if w.deployFail[name] > 0 {
				w.deployFail[name]--
				return rep, fmt.Errorf("fake deploy failure on %s", name)
			}
			if w.deployDrop[name] > 0 {
				w.deployDrop[name]--
				return rep, fmt.Errorf("fake deploy on %s: %w", name, netsim.ErrInjectedTransient)
			}
			w.running[name] = cfg
			w.deploys = append(w.deploys, deployRec{device: name, at: clk.Now()})
		}
		return rep, nil
	}
}

func (w *fakeWorld) CheckDevice(device string) (*monitor.Deviation, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.checkFail[device] > 0 {
		w.checkFail[device]--
		return nil, fmt.Errorf("fake check failure on %s", device)
	}
	if w.running[device] != w.golden[device] {
		return &monitor.Deviation{Device: device, Added: 1}, nil
	}
	return nil, nil
}

func (w *fakeWorld) deployCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.deploys)
}

func (w *fakeWorld) drift(device string) {
	w.mu.Lock()
	w.running[device] = w.golden[device] + "rogue line\n"
	w.mu.Unlock()
}

// deployerFunc adapts a func to ConfigDeployer.
type deployerFunc func(map[string]string, deploy.Options) (deploy.Report, error)

func (f deployerFunc) Deploy(c map[string]string, o deploy.Options) (deploy.Report, error) {
	return f(c, o)
}

var t0 = time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

// newTestRec wires a reconciler over a fakeWorld and a virtual clock.
func newTestRec(w *fakeWorld, cfg Config) (*Reconciler, *vclock.VirtualClock) {
	clk := vclock.NewVirtualClock(t0)
	cfg.Clock = clk
	r := New(Deps{
		Golden:   w,
		Deployer: deployerFunc(w.deployClock(clk)),
		Checker:  w,
	}, cfg)
	return r, clk
}

func driftAndNotify(w *fakeWorld, r *Reconciler, device string) {
	w.drift(device)
	r.HandleDeviation(monitor.Deviation{Device: device, Added: 1})
}

func wantState(t *testing.T, r *Reconciler, device string, want State) {
	t.Helper()
	if got := r.States()[device]; got != want {
		t.Fatalf("%s state = %q, want %q\njournal:\n%s", device, got, want, r.Journal().Format())
	}
}

func TestHappyPathConvergence(t *testing.T) {
	w := newFakeWorld("d1")
	r, clk := newTestRec(w, Config{BackoffBase: time.Second})
	driftAndNotify(w, r, "d1")
	wantState(t, r, "d1", StateBackoff)

	clk.Advance(time.Second)
	wantState(t, r, "d1", StateConverged)
	if w.running["d1"] != w.golden["d1"] {
		t.Error("running config not restored to golden")
	}
	// The journal records the full state-machine walk in order.
	var seq []EventType
	for _, e := range r.Journal().Events() {
		seq = append(seq, e.Type)
	}
	want := []EventType{EvDetected, EvScheduled, EvRemediate, EvConfirming, EvConverged}
	if fmt.Sprint(seq) != fmt.Sprint(want) {
		t.Errorf("journal sequence = %v, want %v", seq, want)
	}
	s := r.Stats()
	if s.Detected != 1 || s.Remediated != 1 || s.Converged != 1 || s.Retries != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestBackoffScheduleIsDeterministic pins the jitter-free exponential
// schedule: attempts at t0+1s, +3s, +7s (delays 1s, 2s, 4s).
func TestBackoffScheduleIsDeterministic(t *testing.T) {
	w := newFakeWorld("d1")
	w.deployFail["d1"] = 2
	r, clk := newTestRec(w, Config{BackoffBase: time.Second, BackoffMax: time.Minute, DampingThreshold: -1})
	driftAndNotify(w, r, "d1")
	clk.Advance(10 * time.Second)
	wantState(t, r, "d1", StateConverged)

	var att []time.Duration
	for _, e := range r.Journal().Events() {
		if e.Type == EvRemediate {
			att = append(att, e.At.Sub(t0))
		}
	}
	want := []time.Duration{time.Second, 3 * time.Second, 7 * time.Second}
	if fmt.Sprint(att) != fmt.Sprint(want) {
		t.Errorf("remediation attempts at %v, want %v", att, want)
	}
	if s := r.Stats(); s.Retries != 2 {
		t.Errorf("retries = %d, want 2", s.Retries)
	}
}

func TestBackoffCapsAtMax(t *testing.T) {
	cfg := Config{BackoffBase: time.Second, BackoffMax: 5 * time.Second}.withDefaults()
	if d := cfg.backoff(10); d != 5*time.Second {
		t.Errorf("backoff(10) = %v, want cap 5s", d)
	}
	if d := cfg.backoff(0); d != time.Second {
		t.Errorf("backoff(0) = %v, want 1s", d)
	}
}

func TestQuarantineAfterMaxAttempts(t *testing.T) {
	w := newFakeWorld("d1")
	w.deployFail["d1"] = 100
	var alerts []string
	r, clk := newTestRec(w, Config{
		BackoffBase: time.Second, MaxAttempts: 3, DampingThreshold: -1,
		Alert: func(f string, a ...any) { alerts = append(alerts, fmt.Sprintf(f, a...)) },
	})
	driftAndNotify(w, r, "d1")
	clk.Advance(time.Minute)
	wantState(t, r, "d1", StateQuarantined)
	if n := w.deployCount(); n != 0 {
		t.Errorf("deploys succeeded = %d, want 0", n)
	}
	if len(alerts) == 0 || !strings.Contains(alerts[0], "quarantined") {
		t.Errorf("no quarantine alert raised: %v", alerts)
	}
	// Further drift on a quarantined device is suppressed, never deployed.
	before := r.Journal().Len()
	driftAndNotify(w, r, "d1")
	clk.Advance(time.Minute)
	evs := r.Journal().Events()[before:]
	if len(evs) != 1 || evs[0].Type != EvSuppressed {
		t.Errorf("post-quarantine events = %v, want one suppressed", evs)
	}
	if s := r.Stats(); s.Quarantined != 1 || s.Suppressed != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestFlapDampingQuarantine: the third drift inside the damping window
// parks the device instead of fighting whoever keeps changing it.
func TestFlapDampingQuarantine(t *testing.T) {
	w := newFakeWorld("d1")
	r, clk := newTestRec(w, Config{
		BackoffBase: time.Second, DampingWindow: time.Hour, DampingThreshold: 3,
	})
	for i := 0; i < 2; i++ {
		driftAndNotify(w, r, "d1")
		clk.Advance(time.Second)
		wantState(t, r, "d1", StateConverged)
	}
	driftAndNotify(w, r, "d1")
	wantState(t, r, "d1", StateQuarantined)
	clk.Advance(time.Minute)
	if n := w.deployCount(); n != 2 {
		t.Errorf("deploys = %d, want 2 (third drift must not deploy)", n)
	}
	if w.running["d1"] == w.golden["d1"] {
		t.Error("quarantined device was remediated")
	}
}

// TestDampingWindowExpires: slow drift (outside the window) never
// quarantines.
func TestDampingWindowExpires(t *testing.T) {
	w := newFakeWorld("d1")
	r, clk := newTestRec(w, Config{
		BackoffBase: time.Second, DampingWindow: 10 * time.Second, DampingThreshold: 3,
	})
	for i := 0; i < 5; i++ {
		driftAndNotify(w, r, "d1")
		clk.Advance(time.Second)
		wantState(t, r, "d1", StateConverged)
		clk.Advance(30 * time.Second) // let the window drain
	}
	if s := r.Stats(); s.Quarantined != 0 || s.Converged != 5 {
		t.Errorf("stats = %+v", s)
	}
}

// TestBudgetTripOnMassDrift: demand beyond min(K, X·fleet) opens the
// breaker — nothing deploys until the operator resets.
func TestBudgetTripOnMassDrift(t *testing.T) {
	w := newFakeWorld("d1", "d2", "d3", "d4")
	var alerts []string
	clkHolder := Config{
		BackoffBase: time.Second, BudgetMaxDevices: 2, BudgetMaxFraction: 1.0,
		DampingThreshold: -1,
		Alert:            func(f string, a ...any) { alerts = append(alerts, fmt.Sprintf(f, a...)) },
	}
	r, clk := newTestRec(w, clkHolder)
	for _, d := range []string{"d1", "d2", "d3", "d4"} {
		driftAndNotify(w, r, d)
	}
	if !r.Tripped() {
		t.Fatal("breaker did not trip on mass drift")
	}
	clk.Advance(time.Minute)
	if n := w.deployCount(); n != 0 {
		t.Errorf("deploys while tripped = %d, want 0", n)
	}
	if s := r.Stats(); s.BudgetTrips != 1 {
		t.Errorf("budget trips = %d, want 1", s.BudgetTrips)
	}
	if len(alerts) == 0 || !strings.Contains(alerts[0], "budget") {
		t.Errorf("no budget alert: %v", alerts)
	}
	// Operator inspected, re-arms: backlog drains within the budget.
	r.ResetBreaker()
	clk.Advance(time.Minute)
	for _, d := range []string{"d1", "d2", "d3", "d4"} {
		wantState(t, r, d, StateConverged)
	}
	if max := r.Journal().MaxActive(); max > 2 {
		t.Errorf("max concurrent remediations = %d, budget 2", max)
	}
}

// TestBudgetFractionOfFleet: the fractional term tightens the budget.
func TestBudgetFractionOfFleet(t *testing.T) {
	w := newFakeWorld("d1", "d2")
	clk := vclock.NewVirtualClock(t0)
	r := New(Deps{
		Golden:   w,
		Deployer: deployerFunc(w.deployClock(clk)),
		Checker:  w,
		// Fleet of 4 at 25% → budget min(10, 1) = 1.
		FleetSize: func() int { return 4 },
	}, Config{Clock: clk, BackoffBase: time.Second, BudgetMaxDevices: 10, BudgetMaxFraction: 0.25, DampingThreshold: -1})
	driftAndNotify(w, r, "d1")
	if r.Tripped() {
		t.Fatal("single drift must not trip a budget of 1")
	}
	driftAndNotify(w, r, "d2")
	if !r.Tripped() {
		t.Fatal("second concurrent drift must trip a budget of 1")
	}
}

// TestCheckErrorRetryQueue: errored conformance checks are retried with
// backoff instead of being dropped, and a drift found on retry enters
// the loop.
func TestCheckErrorRetryQueue(t *testing.T) {
	w := newFakeWorld("d1")
	w.drift("d1")
	w.checkFail["d1"] = 2
	r, clk := newTestRec(w, Config{BackoffBase: time.Second, MaxCheckRetries: 5, DampingThreshold: -1})
	// The monitor's OnCheckError hook fires (the device was unreachable
	// when the CONFIG_CHANGED alert triggered the check).
	r.HandleCheckError("d1", fmt.Errorf("unreachable"))
	clk.Advance(time.Minute)
	wantState(t, r, "d1", StateConverged)
	if s := r.Stats(); s.CheckErrors != 3 { // 1 reported + 2 retry failures
		t.Errorf("check errors = %d, want 3", s.CheckErrors)
	}
	if w.running["d1"] != w.golden["d1"] {
		t.Error("drift found by retried check was not remediated")
	}
}

func TestCheckErrorRetriesBounded(t *testing.T) {
	w := newFakeWorld("d1")
	w.checkFail["d1"] = 1000
	var alerts []string
	r, clk := newTestRec(w, Config{
		BackoffBase: time.Second, MaxCheckRetries: 3, DampingThreshold: -1,
		Alert: func(f string, a ...any) { alerts = append(alerts, fmt.Sprintf(f, a...)) },
	})
	r.HandleCheckError("d1", fmt.Errorf("unreachable"))
	clk.Advance(time.Hour)
	if s := r.Stats(); s.CheckErrors != 4 { // initial + MaxCheckRetries
		t.Errorf("check errors = %d, want 4", s.CheckErrors)
	}
	if len(alerts) != 1 {
		t.Errorf("alerts = %v, want one giving-up alert", alerts)
	}
}

func TestSweepFindsSilentDrift(t *testing.T) {
	w := newFakeWorld("d1", "d2")
	clk := vclock.NewVirtualClock(t0)
	r := New(Deps{
		Golden:    w,
		Deployer:  deployerFunc(w.deployClock(clk)),
		Checker:   w,
		SweepList: func() []string { return []string{"d1", "d2"} },
	}, Config{Clock: clk, BackoffBase: time.Second, SweepInterval: time.Minute, DampingThreshold: -1})
	r.Start()
	w.drift("d2") // no deviation event: the syslog never arrived
	clk.Advance(time.Minute + time.Second)
	wantState(t, r, "d2", StateConverged)
	if r.States()["d1"] != StateConverged && r.States()["d1"] != "" {
		t.Errorf("d1 state = %v", r.States()["d1"])
	}
	// The sweep re-arms itself.
	w.drift("d1")
	clk.Advance(2 * time.Minute)
	wantState(t, r, "d1", StateConverged)
	r.Stop()
}

func TestReleaseFromQuarantine(t *testing.T) {
	w := newFakeWorld("d1")
	r, clk := newTestRec(w, Config{BackoffBase: time.Second, DampingWindow: time.Hour, DampingThreshold: 2})
	driftAndNotify(w, r, "d1")
	clk.Advance(time.Second)
	wantState(t, r, "d1", StateConverged)
	driftAndNotify(w, r, "d1") // second drift inside the window: quarantined
	wantState(t, r, "d1", StateQuarantined)
	if err := r.Release("d2"); err == nil {
		t.Error("releasing an unknown device must error")
	}
	if err := r.Release("d1"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Minute)
	wantState(t, r, "d1", StateConverged)
	if w.running["d1"] != w.golden["d1"] {
		t.Error("released device was not remediated")
	}
}

func TestStopCancelsPendingWork(t *testing.T) {
	w := newFakeWorld("d1")
	r, clk := newTestRec(w, Config{BackoffBase: time.Second})
	driftAndNotify(w, r, "d1")
	r.Stop()
	clk.Advance(time.Minute)
	if n := w.deployCount(); n != 0 {
		t.Errorf("deploys after Stop = %d", n)
	}
	// New deviations are ignored after Stop.
	driftAndNotify(w, r, "d1")
	if s := r.Stats(); s.Detected != 1 {
		t.Errorf("detected = %d, want 1 (pre-Stop only)", s.Detected)
	}
}

func TestJournalSinkReceivesLines(t *testing.T) {
	var buf bytes.Buffer
	w := newFakeWorld("d1")
	clk := vclock.NewVirtualClock(t0)
	r := New(Deps{Golden: w, Deployer: deployerFunc(w.deployClock(clk)), Checker: w},
		Config{Clock: clk, BackoffBase: time.Second, JournalSink: &buf})
	driftAndNotify(w, r, "d1")
	clk.Advance(time.Second)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != r.Journal().Len() {
		t.Errorf("sink lines = %d, journal entries = %d", len(lines), r.Journal().Len())
	}
	if !strings.Contains(buf.String(), "converged") {
		t.Errorf("sink missing converged entry:\n%s", buf.String())
	}
}

func TestDeviceTableRendersStates(t *testing.T) {
	w := newFakeWorld("d1", "d2")
	r, clk := newTestRec(w, Config{BackoffBase: time.Second, DampingThreshold: -1})
	driftAndNotify(w, r, "d1")
	clk.Advance(time.Second)
	tbl := FormatDeviceTable(r.Devices())
	if !strings.Contains(tbl, "d1") || !strings.Contains(tbl, string(StateConverged)) {
		t.Errorf("device table missing content:\n%s", tbl)
	}
}

func TestGenerateFailureRetries(t *testing.T) {
	w := newFakeWorld("d1")
	w.genFail["d1"] = 1
	r, clk := newTestRec(w, Config{BackoffBase: time.Second, DampingThreshold: -1})
	driftAndNotify(w, r, "d1")
	clk.Advance(10 * time.Second)
	wantState(t, r, "d1", StateConverged)
	if s := r.Stats(); s.Retries != 1 {
		t.Errorf("retries = %d, want 1", s.Retries)
	}
}

func TestVirtualClockOrdersTimers(t *testing.T) {
	clk := vclock.NewVirtualClock(t0)
	var order []string
	clk.AfterFunc(2*time.Second, func() { order = append(order, "b") })
	clk.AfterFunc(time.Second, func() { order = append(order, "a") })
	clk.AfterFunc(2*time.Second, func() { order = append(order, "c") })
	tm := clk.AfterFunc(3*time.Second, func() { order = append(order, "dropped") })
	tm.Stop()
	// A callback scheduling another due timer fires in the same Advance;
	// it lands after b and c (same due time, later sequence number).
	clk.AfterFunc(time.Second, func() {
		clk.AfterFunc(time.Second, func() { order = append(order, "nested") })
	})
	clk.Advance(5 * time.Second)
	want := "a b c nested"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("fire order = %q, want %q", got, want)
	}
	if clk.Now() != t0.Add(5*time.Second) {
		t.Errorf("now = %v", clk.Now())
	}
	if clk.PendingTimers() != 0 {
		t.Errorf("pending timers = %d", clk.PendingTimers())
	}
}
