package monitor

import (
	"fmt"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/confdiff"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/telemetry"
)

// ConfigMonitor implements config monitoring (§5.4.3): a running-config
// change detected by passive monitoring triggers an ad-hoc active job that
// collects the config, compares it with the Robotron-generated golden
// config, archives it, and notifies engineers of any discrepancy.
type ConfigMonitor struct {
	jm     *JobManager
	repo   *revctl.Repo // holds golden/<device> and backups/<device>
	store  *fbnet.Store // Derived conformance records; may be nil
	golden func(device string) (string, error)

	mu          sync.Mutex
	deviations  ring[Deviation]
	handlers    []func(Deviation)
	checkErrs   int64
	checkPanics int64
	errHandlers []func(device string, err error)

	// Registry-backed mirrors of the counters above; nil (no-op) until
	// Instrument.
	mChecks     *telemetry.Counter
	mCheckErrs  *telemetry.Counter
	mPanics     *telemetry.Counter
	mDeviations *telemetry.Counter
}

// Instrument mirrors the monitor's counters onto reg so they appear in
// /metrics. The authoritative counts (CheckErrors, CheckPanics) remain
// the in-struct fields, updated under cm.mu together with the hooks.
func (cm *ConfigMonitor) Instrument(reg *telemetry.Registry) {
	reg.Help("robotron_monitor_check_errors_total", "event-triggered config checks that errored")
	reg.Help("robotron_monitor_check_panics_total", "panics recovered from backend config checks")
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.mChecks = reg.Counter("robotron_monitor_checks_total")
	cm.mCheckErrs = reg.Counter("robotron_monitor_check_errors_total")
	cm.mPanics = reg.Counter("robotron_monitor_check_panics_total")
	cm.mDeviations = reg.Counter("robotron_monitor_deviations_total")
}

// Deviation is one detected divergence between running and golden config.
type Deviation struct {
	Device  string
	Diff    string
	Added   int
	Removed int
	At      time.Time
}

// NewConfigMonitor builds a config monitor. golden resolves a device's
// golden config (typically configgen.Generator.Golden).
func NewConfigMonitor(jm *JobManager, repo *revctl.Repo, store *fbnet.Store, golden func(string) (string, error)) *ConfigMonitor {
	return &ConfigMonitor{jm: jm, repo: repo, store: store, golden: golden}
}

// Attach subscribes the monitor to the classifier: every CONFIG_CHANGED
// alert triggers a check of the originating device. A check that errors —
// typically a device unreachable mid-collection — is not silently
// dropped: the error counter advances and every OnCheckError subscriber
// is told, so a reconciler (or operator tooling) can queue a retry
// rather than waiting for the next change event that may never come.
func (cm *ConfigMonitor) Attach(cls *Classifier) {
	cls.OnAlert(func(a Alert) {
		if a.Rule != "config-changed" {
			return
		}
		if _, err := cm.CheckDevice(a.Message.Host); err != nil {
			cm.noteCheckError(a.Message.Host, err)
		}
	})
}

// OnDeviation registers a handler for detected discrepancies.
func (cm *ConfigMonitor) OnDeviation(h func(Deviation)) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.handlers = append(cm.handlers, h)
}

// OnCheckError registers a handler for event-triggered checks that
// errored (the device was unreachable, golden was missing, ...).
func (cm *ConfigMonitor) OnCheckError(h func(device string, err error)) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.errHandlers = append(cm.errHandlers, h)
}

// CheckErrors reports how many event-triggered checks have errored.
func (cm *ConfigMonitor) CheckErrors() int64 {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.checkErrs
}

// CheckPanics reports how many panics were recovered from backend
// checks. Each recovered panic is also counted as a check error.
func (cm *ConfigMonitor) CheckPanics() int64 {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.checkPanics
}

// noteCheckError advances the error counter and notifies every
// OnCheckError subscriber under one critical section, so the counter
// and the hook can never diverge: an observer that sees checkErrs == N
// knows exactly N handler invocation rounds have been entered, and a
// concurrent OnCheckError registration cannot land between the count
// and the callbacks. Handlers must not call back into the monitor.
func (cm *ConfigMonitor) noteCheckError(device string, err error) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.checkErrs++
	cm.mCheckErrs.Inc()
	for _, h := range cm.errHandlers {
		h(device, err)
	}
}

// notePanic counts a panic recovered from a backend check.
func (cm *ConfigMonitor) notePanic() {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.checkPanics++
	cm.mPanics.Inc()
}

// CheckDevice collects the device's running config now, archives it, and
// compares it to golden. It returns the deviation (nil if conforming).
// A panic out of the collection backends or the golden resolver is
// recovered and surfaced as an error (and counted via CheckPanics), so
// one broken backend cannot kill the classifier's alert goroutine.
func (cm *ConfigMonitor) CheckDevice(device string) (dev *Deviation, err error) {
	cm.mChecks.Inc()
	defer func() {
		if p := recover(); p != nil {
			cm.notePanic()
			dev, err = nil, fmt.Errorf("monitor: check of %s panicked: %v", device, p)
		}
	}()
	cols, err := cm.jm.RunOnce(JobSpec{
		Name: "adhoc-config-" + device, Period: time.Second,
		Engine: EngineCLI, Data: DataConfig,
		Devices: []string{device}, Backends: []string{"config-backup"},
	})
	if err != nil {
		return nil, err
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("monitor: could not collect config from %s", device)
	}
	running := cols[0].Config
	golden, err := cm.golden(device)
	if err != nil {
		return nil, fmt.Errorf("monitor: no golden config for %s: %w", device, err)
	}
	d := confdiff.Compute(golden, running)
	conforms := d.Empty()
	if err := cm.recordConformance(device, running, conforms, cols[0].At); err != nil {
		return nil, err
	}
	if conforms {
		return nil, nil
	}
	stats := d.Stats(true)
	found := Deviation{
		Device: device, Diff: d.Unified(3),
		Added: stats.Added, Removed: stats.Removed, At: cols[0].At,
	}
	cm.mu.Lock()
	cm.deviations.push(found)
	cm.mDeviations.Inc()
	handlers := cm.handlers
	cm.mu.Unlock()
	for _, h := range handlers {
		h(found)
	}
	return &found, nil
}

// recordConformance syncs the DerivedConfig object for the device,
// stamped with the collection's time like every other Derived row.
func (cm *ConfigMonitor) recordConformance(device, running string, conforms bool, at time.Time) error {
	if cm.store == nil {
		return nil
	}
	_, _, err := syncDerived(cm.store, conformance(device, running, conforms, at))
	return err
}

// conformance is the observation recordConformance writes.
func conformance(device, running string, conforms bool, at time.Time) *observation {
	dev := any(device)
	return &observation{derivedShape: &derivedConfig, scope: fbnet.Eq("device_name", dev),
		rows: []any{dev, revctl.Hash(running), at.Unix(), conforms}}
}

// Deviations returns the recorded deviations (the newest historyLimit of
// them), oldest first.
func (cm *ConfigMonitor) Deviations() []Deviation {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.deviations.all()
}
