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
	errHandlers []func(device string, err error)

	checks, checkErrs, panics, deviationsFound *telemetry.Counter
}

// Deviation is one detected divergence between running and golden config.
// Added and Removed count the diff's lines, comment lines included.
type Deviation struct {
	Device  string
	Diff    string
	Added   int
	Removed int
	At      time.Time
}

// NewConfigMonitor builds a config monitor that counts its checks, their
// errors and recovered panics, and the deviations they find into reg
// (nil counts nothing). golden resolves a device's golden config
// (typically configgen.Generator.Golden).
func NewConfigMonitor(jm *JobManager, repo *revctl.Repo, store *fbnet.Store, golden func(string) (string, error), reg *telemetry.Registry) *ConfigMonitor {
	reg.Help("robotron_monitor_checks_total", "config checks run (CheckDevice)")
	reg.Help("robotron_monitor_check_errors_total", "event-triggered config checks that errored")
	reg.Help("robotron_monitor_check_panics_total", "panics recovered from backend config checks")
	reg.Help("robotron_monitor_deviations_total", "config checks that found running differing from golden")
	return &ConfigMonitor{
		jm: jm, repo: repo, store: store, golden: golden,
		checks:          reg.Counter("robotron_monitor_checks_total"),
		checkErrs:       reg.Counter("robotron_monitor_check_errors_total"),
		panics:          reg.Counter("robotron_monitor_check_panics_total"),
		deviationsFound: reg.Counter("robotron_monitor_deviations_total"),
	}
}

// Attach subscribes the monitor to the classifier: every CONFIG_CHANGED
// alert triggers a check of the originating device, and a deviation it
// finds goes to every OnDeviation subscriber. A check that errors —
// typically a device unreachable mid-collection — is not silently
// dropped: the error counter advances and every OnCheckError subscriber
// is told, so a reconciler (or operator tooling) can queue a retry
// rather than waiting for the next change event that may never come.
func (cm *ConfigMonitor) Attach(cls *Classifier) {
	cls.OnAlert(func(a Alert) {
		if a.Rule != "config-changed" {
			return
		}
		dev, err := cm.CheckDevice(a.Message.Host)
		if err != nil {
			cm.noteCheckError(a.Message.Host, err)
			return
		}
		if dev != nil {
			cm.mu.Lock()
			handlers := cm.handlers
			cm.mu.Unlock()
			for _, h := range handlers {
				h(*dev)
			}
		}
	})
}

// OnDeviation registers a handler for the discrepancies that
// event-triggered checks (see Attach) detect.
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

// noteCheckError advances the error counter and notifies every
// OnCheckError subscriber under one critical section, so the counter
// and the hook can never diverge: an observer that sees
// robotron_monitor_check_errors_total == N knows exactly N handler
// invocation rounds have been entered, and a concurrent OnCheckError
// registration cannot land between the count and the callbacks.
// Handlers must not call back into the monitor.
func (cm *ConfigMonitor) noteCheckError(device string, err error) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.checkErrs.Inc()
	for _, h := range cm.errHandlers {
		h(device, err)
	}
}

// CheckDevice collects the device's running config now, archives it, and
// compares it to golden. It returns the deviation (nil if conforming) and
// records it in Deviations; it tells no subscriber, so the caller that
// asked is the one that acts on it.
// A panic out of the collection backends or the golden resolver is
// recovered and surfaced as an error (and counted in
// robotron_monitor_check_panics_total), so
// one broken backend cannot kill the classifier's alert goroutine.
func (cm *ConfigMonitor) CheckDevice(device string) (dev *Deviation, err error) {
	cm.checks.Inc()
	defer func() {
		if p := recover(); p != nil {
			cm.panics.Inc()
			dev, err = nil, fmt.Errorf("monitor: check of %s panicked: %v", device, p)
		}
	}()
	cols, err := cm.jm.RunOnce(JobSpec{
		Name: "adhoc-config-" + device, Period: time.Second,
		Engine: EngineCLI, Data: DataConfig, Devices: []string{device},
	})
	if err != nil {
		return nil, err
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("monitor: could not collect config from %s", device)
	}
	running, at := cols[0].Config, cols[0].At
	// The check archives the config itself, so the backup's revision hash
	// is the one DerivedConfig records: the config is hashed once, and
	// not at all when it repeats the last backup.
	rev, err := backup(cm.repo, device, running)
	if err != nil {
		return nil, err
	}
	golden, err := cm.golden(device)
	if err != nil {
		return nil, fmt.Errorf("monitor: no golden config for %s: %w", device, err)
	}
	// Equal configs conform undiffed. Any other pair is diffed, and the
	// diff decides: configs that differ only in a trailing newline still
	// conform.
	var d confdiff.Diff
	conforms := running == golden
	if !conforms {
		d = confdiff.Compute(golden, running)
		conforms = d.Empty()
	}
	if err := cm.recordConformance(device, rev.Hash, conforms, at); err != nil {
		return nil, err
	}
	if conforms {
		return nil, nil
	}
	// The counts are of the lines the verdict counted, comments included:
	// a comment-only drift deviates, so it is not reported as +0/-0.
	stats := d.Stats(false)
	found := Deviation{
		Device: device, Diff: d.Unified(3),
		Added: stats.Added, Removed: stats.Removed, At: at,
	}
	cm.mu.Lock()
	cm.deviations.push(found)
	cm.deviationsFound.Inc()
	cm.mu.Unlock()
	return &found, nil
}

// recordConformance syncs the DerivedConfig object for the device. Its
// collected_unix is the stamp of the row: the time of the check that
// created it or moved its hash or verdict, so a repeated verdict writes
// nothing.
func (cm *ConfigMonitor) recordConformance(device, hash string, conforms bool, at time.Time) error {
	if cm.store == nil {
		return nil
	}
	_, _, err := syncDerived(cm.store, conformance(device, hash, conforms, at))
	return err
}

// conformance is the observation recordConformance writes.
func conformance(device, hash string, conforms bool, at time.Time) *observation {
	dev := any(device)
	return &observation{derivedShape: &derivedConfig, scope: fbnet.Eq("device_name", dev),
		rows: []any{dev, hash, at.Unix(), conforms}}
}

// Deviations returns the recorded deviations (the newest historyLimit of
// them), oldest first.
func (cm *ConfigMonitor) Deviations() []Deviation {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.deviations.all()
}
