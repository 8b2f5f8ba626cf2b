package reconcile

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/fanout"
	"github.com/robotron-net/robotron/internal/vclock"
)

// State is a device's position in the reconciliation state machine:
//
//	detected → backoff → remediating → confirming → converged
//	                                             ↘ quarantined
//
// A detected device has drifted but is not yet scheduled, which lasts
// only while its shard's breaker is open; normally it moves to backoff at
// once. In backoff, remediation waits out the deterministic backoff
// delay. Remediating regenerates golden and deploys it with
// commit-confirm; confirming holds the provisional commit while a health
// check decides confirm or rollback. A converged device matches golden
// again and stays tracked so flap damping spans episodes. Flap damping or
// repeated failure quarantines a device for operator review; further
// drift is suppressed until Release.
type State string

const (
	StateDetected    State = "detected"
	StateBackoff     State = "backoff"
	StateRemediating State = "remediating"
	StateConfirming  State = "confirming"
	StateConverged   State = "converged"
	StateQuarantined State = "quarantined"
)

// deviceState is the reconciler's per-device record. All fields are
// guarded by Reconciler.mu.
type deviceState struct {
	name             string
	shard            *shard // the device's failure domain (never nil once tracked)
	state            State
	attempt          int          // failed remediation attempts this episode
	checkAttempt     int          // consecutive conformance-check errors
	transportAttempt int          // consecutive transport-layer remediation failures
	detections       []time.Time  // drift detections inside the damping window
	timer            vclock.Timer // pending backoff timer, nil when none
	pending          bool         // an attempt is due: its timer is armed or it waits in the flush queue
	inflight         *slot        // the window slot of the attempt in flight, nil when none
	lastDetail       string
	changedAt        time.Time
}

// DeviceStatus is the exported view of one tracked device.
type DeviceStatus struct {
	Device     string
	Shard      string // failure domain
	State      State
	Attempts   int       // failed remediation attempts this episode
	Detections int       // drift detections inside the damping window
	ChangedAt  time.Time // last state transition
	Detail     string    // last journal detail for the device
}

// Config tunes the reconciler. The zero value selects the defaults below.
type Config struct {
	// Clock drives all scheduling; nil uses the wall clock. Tests pass a
	// VirtualClock for deterministic runs. core.New sets it to the
	// instance's one clock and rejects any other.
	Clock vclock.Clock

	// SweepInterval is the period of the full-fleet conformance sweep
	// that catches drift whose syslog never arrived. 0 disables it.
	SweepInterval time.Duration

	// BackoffBase is the delay before the first remediation attempt; the
	// delay doubles on every failed attempt (jitter-free, so schedules
	// are reproducible). Default 1s.
	BackoffBase time.Duration
	// BackoffMax caps the exponential delay. Default 60s.
	BackoffMax time.Duration
	// MaxAttempts quarantines a device after this many failed
	// remediation attempts in one episode. Default 5. Negative disables.
	MaxAttempts int

	// DampingWindow and DampingThreshold implement flap damping: a
	// device detected drifting DampingThreshold times inside the window
	// is quarantined instead of remediated — someone (or something) is
	// fighting the reconciler. Defaults: 15m, 3. DampingThreshold < 0
	// disables damping.
	DampingWindow    time.Duration
	DampingThreshold int

	// BudgetMaxDevices (K) and BudgetMaxFraction (X) form the per-shard
	// safety budget min(K, X·shard_fleet): within one failure domain the
	// reconciler never has more than that many devices in flight, and
	// when *demand* exceeds the budget — more unconverged devices in the
	// shard than it may touch — that shard's circuit breaker opens and
	// the shard halts with an alert instead of deploying. Mass drift
	// usually means the desired state is wrong; remediating it at scale
	// would push the error everywhere. Other shards keep converging.
	// Defaults: 4, 0.25. Without a ShardFleetSize dependency the
	// fraction uses the fleet-wide size.
	BudgetMaxDevices  int
	BudgetMaxFraction float64

	// ConfirmGrace is the commit-confirm window handed to the deployer;
	// a remediation that fails its health check rolls back inside it.
	// Default 30s.
	ConfirmGrace time.Duration

	// MaxCheckRetries bounds the retry queue for conformance checks that
	// error (unreachable device). Default 3. Negative disables retries.
	// The same bound applies to transport-layer remediation failures
	// (management session flapped mid-deploy): those ride this retry
	// queue, never the drift→quarantine path, because the device didn't
	// reject the config — we just couldn't talk to it.
	MaxCheckRetries int

	// DeployRetry, when set, is handed to the deployment engine for
	// remediation pushes so transient transport faults are absorbed by
	// per-device backoff inside the deploy instead of failing the whole
	// remediation attempt. Nil keeps single-shot commits.
	DeployRetry *deploy.RetryPolicy

	// Parallelism bounds the remediations that run at once: those that
	// fall due at one instant run through a window of this many devices,
	// and settle in the order they fell due. 0 selects
	// DefaultParallelism; 1 remediates one device at a time.
	Parallelism int

	// Author is recorded on golden commits. Default "reconciler".
	Author string

	// Alert receives operator-facing notifications (quarantines, budget
	// trips). Nil silences them.
	Alert func(format string, args ...any)

	// JournalSink receives each journal entry as one line when set
	// (point it at a file for a durable journal).
	JournalSink io.Writer
}

// defaults for Config zero values.
const (
	DefaultBackoffBase      = time.Second
	DefaultBackoffMax       = 60 * time.Second
	DefaultMaxAttempts      = 5
	DefaultDampingWindow    = 15 * time.Minute
	DefaultDampingThreshold = 3
	DefaultBudgetDevices    = 4
	DefaultBudgetFraction   = 0.25
	DefaultConfirmGrace     = 30 * time.Second
	DefaultMaxCheckRetries  = 3
	DefaultParallelism      = fanout.DefaultWidth
)

// A breaker reset releases the parked backlog drainBatch devices per
// shard every drainEvery, instead of re-arming it all at once (thundering
// herd).
const (
	drainEvery = time.Second
	drainBatch = 1
)

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = vclock.RealClock()
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.DampingWindow <= 0 {
		c.DampingWindow = DefaultDampingWindow
	}
	if c.DampingThreshold == 0 {
		c.DampingThreshold = DefaultDampingThreshold
	}
	if c.BudgetMaxDevices <= 0 {
		c.BudgetMaxDevices = DefaultBudgetDevices
	}
	if c.BudgetMaxFraction <= 0 {
		c.BudgetMaxFraction = DefaultBudgetFraction
	}
	if c.ConfirmGrace <= 0 {
		c.ConfirmGrace = DefaultConfirmGrace
	}
	if c.MaxCheckRetries == 0 {
		c.MaxCheckRetries = DefaultMaxCheckRetries
	}
	if c.Parallelism <= 0 {
		c.Parallelism = DefaultParallelism
	}
	if c.Author == "" {
		c.Author = "reconciler"
	}
	return c
}

// backoff returns the deterministic delay before attempt n (0-based):
// base·2ⁿ capped at BackoffMax.
func (c Config) backoff(attempt int) time.Duration {
	d := c.BackoffBase
	for i := 0; i < attempt && d < c.BackoffMax; i++ {
		d *= 2
	}
	return min(d, c.BackoffMax)
}

// FormatDeviceTable renders per-device states as an operator table,
// sorted by device name.
func FormatDeviceTable(rows []DeviceStatus) string {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Device < rows[j].Device })
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-10s %-12s %8s %6s  %s\n", "DEVICE", "SHARD", "STATE", "ATTEMPTS", "DRIFTS", "DETAIL")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-10s %-12s %8d %6d  %s\n", r.Device, r.Shard, r.State, r.Attempts, r.Detections, r.Detail)
	}
	return b.String()
}
