package reconcile

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/vclock"
)

// transportFlaky wraps a deployer so its first n calls fail with a
// transport-classified error (the management session flapped), after
// which the underlying deployer runs normally.
type transportFlaky struct {
	mu    sync.Mutex
	fails int
	calls int
	next  deployerFunc
}

func (f *transportFlaky) Deploy(c map[string]string, o deploy.Options) (deploy.Report, error) {
	f.mu.Lock()
	f.calls++
	fail := f.fails > 0
	if fail {
		f.fails--
	}
	f.mu.Unlock()
	if fail {
		return deploy.Report{}, fmt.Errorf("deploy: commit failed: %w", netsim.ErrConnDropped)
	}
	return f.next(c, o)
}

func newTransportRec(w *fakeWorld, cfg Config, fails int) (*Reconciler, *vclock.VirtualClock, *transportFlaky) {
	clk := vclock.NewVirtualClock(t0)
	cfg.Clock = clk
	fd := &transportFlaky{fails: fails, next: w.deployClock(clk)}
	r := New(Deps{Golden: w, Deployer: fd, Checker: w}, cfg)
	return r, clk, fd
}

// A flapping management session during remediation must ride the bounded
// transport-retry queue, not the drift→quarantine path: with
// MaxAttempts=1 any ordinary remediation failure would quarantine
// immediately, so converging here proves transport errors carry no
// quarantine credit.
func TestTransportErrorsNeverQuarantine(t *testing.T) {
	w := newFakeWorld("d1")
	r, clk, fd := newTransportRec(w, Config{
		BackoffBase: time.Second, MaxAttempts: 1, MaxCheckRetries: 3, DampingThreshold: -1,
	}, 2)
	driftAndNotify(w, r, "d1")
	clk.Advance(time.Minute)
	wantState(t, r, "d1", StateConverged)
	if w.running["d1"] != w.golden["d1"] {
		t.Error("running config not restored")
	}
	if fd.calls != 3 {
		t.Errorf("deploy calls = %d, want 3 (2 transport failures + 1 success)", fd.calls)
	}
	s := r.Stats()
	if s.Quarantined != 0 {
		t.Fatalf("transport faults caused quarantine:\n%s", r.Journal().Format())
	}
	if s.TransportRetries != 2 {
		t.Errorf("transport retries = %d, want 2", s.TransportRetries)
	}
	if s.Retries != 0 {
		t.Errorf("ordinary retries = %d, want 0 — transport errors must not land there", s.Retries)
	}
	var sawRetry bool
	for _, e := range r.Journal().Events() {
		if e.Type == EvTransportRetry {
			sawRetry = true
		}
		if e.Type == EvQuarantined {
			t.Error("journal records a quarantine")
		}
	}
	if !sawRetry {
		t.Error("journal missing transport-retry events")
	}
}

// When the device stays unreachable, the loop gives up after the bounded
// budget with an alert and parks the device as converged so the next
// sweep re-detects the still-standing drift — it does NOT quarantine.
func TestTransportGiveUpAwaitsNextSweep(t *testing.T) {
	w := newFakeWorld("d1")
	var alerts []string
	var mu sync.Mutex
	cfg := Config{
		BackoffBase: time.Second, MaxAttempts: 5, MaxCheckRetries: 2, DampingThreshold: -1,
		Alert: func(format string, args ...any) {
			mu.Lock()
			alerts = append(alerts, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}
	r, clk, _ := newTransportRec(w, cfg, 1000) // never reachable
	driftAndNotify(w, r, "d1")
	clk.Advance(time.Hour)
	wantState(t, r, "d1", StateConverged)

	s := r.Stats()
	if s.Quarantined != 0 {
		t.Fatalf("unreachable device was quarantined:\n%s", r.Journal().Format())
	}
	if s.TransportRetries != 3 {
		t.Errorf("transport retries = %d, want 3 (budget 2 + the exhausting attempt)", s.TransportRetries)
	}
	var gaveUp bool
	for _, e := range r.Journal().Events() {
		if e.Type == EvTransportGiveUp {
			gaveUp = true
		}
	}
	if !gaveUp {
		t.Fatalf("journal missing transport-giveup:\n%s", r.Journal().Format())
	}
	mu.Lock()
	n := len(alerts)
	mu.Unlock()
	if n == 0 {
		t.Error("give-up should alert the operator")
	}

	// The drift is still standing; the next detection re-enters the loop
	// cleanly (give-up reset the transport budget, so the device is
	// re-admittable rather than stuck in a skipped state).
	r.HandleDeviation(monitor.Deviation{Device: "d1", Added: 1})
	wantState(t, r, "d1", StateBackoff)
}

// Ordinary (permanent) remediation failures still quarantine: the
// transport carve-out must not swallow real config rejections.
func TestPermanentDeployFailuresStillQuarantine(t *testing.T) {
	w := newFakeWorld("d1")
	w.deployFail["d1"] = 100 // "fake deploy failure": not a transport error
	r, clk := newTestRec(w, Config{BackoffBase: time.Second, MaxAttempts: 2, DampingThreshold: -1})
	driftAndNotify(w, r, "d1")
	clk.Advance(time.Minute)
	wantState(t, r, "d1", StateQuarantined)
	if s := r.Stats(); s.TransportRetries != 0 {
		t.Errorf("permanent failures counted as transport retries: %d", s.TransportRetries)
	}
}
