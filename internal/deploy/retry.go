package deploy

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/robotron-net/robotron/internal/netsim"
)

// Retry layer: error classification plus bounded, jittered backoff for
// the per-device commit pipeline. The paper's deployment engine talks to
// tens of thousands of devices over sessions that hiccup, stall and drop
// mid-commit (§5.3); one flaky session must cost a retry, not a failed
// phase — while a commit whose reply was lost must never be blindly
// re-driven without first finding out whether it landed.

// ErrorClass buckets a management-plane error by the safe response.
type ErrorClass int

const (
	// ClassPermanent errors will not heal with time: fail fast into the
	// existing rollback/settlement paths.
	ClassPermanent ErrorClass = iota
	// ClassTransient errors are safe to retry blindly: the operation did
	// not take effect.
	ClassTransient
	// ClassAmbiguous errors leave the operation's effect unknown (the
	// session died or the reply was unreadable): the device state must
	// be read back before deciding between retry and success.
	ClassAmbiguous
)

// String renders the class for notifications and test output.
func (c ErrorClass) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassAmbiguous:
		return "ambiguous"
	default:
		return "permanent"
	}
}

// Transienter lets non-netsim targets mark their own errors retryable.
type Transienter interface{ Transient() bool }

// Classify buckets err. Connection drops, timeouts and garbled replies
// are ambiguous — the request may have been applied before the reply was
// lost. Session hiccups and unreachability are transient. Everything
// else (vendor rejection, validation failure, unknown device) is
// permanent.
func Classify(err error) ErrorClass {
	if err == nil {
		return ClassPermanent
	}
	switch {
	case errors.Is(err, netsim.ErrConnDropped),
		errors.Is(err, netsim.ErrTimeout),
		errors.Is(err, netsim.ErrGarbledReply):
		return ClassAmbiguous
	case errors.Is(err, netsim.ErrInjectedTransient),
		errors.Is(err, netsim.ErrUnreachable):
		return ClassTransient
	}
	var tr Transienter
	if errors.As(err, &tr) && tr.Transient() {
		return ClassTransient
	}
	return ClassPermanent
}

// RetryPolicy bounds and paces per-device retries.
type RetryPolicy struct {
	// MaxAttempts is the per-device attempt budget per operation
	// (first try included). 0 defaults to 4.
	MaxAttempts int
	// Seed makes the jitter stream reproducible; combined with the
	// device name so concurrent devices draw independent streams.
	Seed int64
	// Sleep replaces time.Sleep in tests. Nil uses time.Sleep.
	Sleep func(time.Duration)
}

// The backoff before retry n is retryBaseDelay·2ⁿ⁻¹, capped at
// retryMaxDelay, with up to retryJitter of it randomized away.
const (
	retryBaseDelay = 50 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
	retryJitter    = 0.5
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	return p
}

// rng derives a per-device jitter stream so parallel workers never
// contend on one source and runs replay deterministically per seed.
func (p RetryPolicy) rng(device string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", p.Seed, device)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// delay computes the backoff before retry number n (1-based), jittered
// downward so synchronized failures fan out instead of thundering back.
func (p RetryPolicy) delay(n int, rng *rand.Rand) time.Duration {
	d := retryBaseDelay << (n - 1)
	if d > retryMaxDelay || d <= 0 {
		d = retryMaxDelay
	}
	return time.Duration(float64(d) * (1 - retryJitter*rng.Float64()))
}

func (p RetryPolicy) sleep(d time.Duration) {
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// pause books one backoff sleep: metrics, then sleep.
func (p RetryPolicy) pause(n int, rng *rand.Rand, met deployMetrics) {
	d := p.delay(n, rng)
	met.retries.Inc()
	met.backoffSec.Observe(d.Seconds())
	p.sleep(d)
}

// commitStage tells the retry loop which operation an error came from:
// staging is idempotent (ambiguity collapses to retry), committing is
// not (ambiguity demands readback).
type commitStage int

const (
	stageLoad commitStage = iota
	stageCommit
)

// commitAttemptOnce drives one load+commit pass, provisionally when grace
// > 0: vendor2 uses the device's native commit-confirmed, other platforms
// are emulated by the deployer's rollback timer. It reports the failing
// stage and whether the device-native commit-confirmed path was in play
// (it decides how a resolved ambiguous commit registers with pending).
func commitAttemptOnce(t Target, cfg string, grace time.Duration, pending *Pending) (commitStage, bool, error) {
	if err := t.LoadConfig(cfg); err != nil {
		return stageLoad, false, err
	}
	if grace <= 0 {
		return stageCommit, false, t.Commit()
	}
	err := t.CommitConfirmed(grace)
	if err == nil {
		pending.add(t, true)
		return stageCommit, true, nil
	}
	if !errors.Is(err, netsim.ErrNotSupported) {
		return stageCommit, true, err
	}
	if err := t.Commit(); err != nil {
		return stageCommit, false, err
	}
	pending.add(t, false)
	return stageCommit, false, nil
}

// commitOneRetry commits one device under a retry budget. Transient
// errors back off and retry; ambiguous commit errors are resolved by
// reading the running config back — if it already matches the intent the
// commit landed and is reported as success without being driven again; if
// not, the commit demonstrably did not apply and is retried. Permanent
// errors, and an exhausted budget, fail into the caller's existing
// rollback/settlement paths. A nil policy is a budget of one attempt with
// nothing left for a retry or a readback: the device's own error is the
// result.
func commitOneRetry(t Target, cfg string, grace time.Duration, pending *Pending,
	policy *RetryPolicy, met deployMetrics, nf *notifier) error {

	if policy == nil {
		_, _, err := commitAttemptOnce(t, cfg, grace, pending)
		return err
	}
	rp := policy.withDefaults()
	rng := rp.rng(t.Name())
	var lastErr error
	for attempt := 1; attempt <= rp.MaxAttempts; attempt++ {
		if attempt > 1 {
			rp.pause(attempt-1, rng, met)
		}
		stage, native, err := commitAttemptOnce(t, cfg, grace, pending)
		if err == nil {
			return nil
		}
		lastErr = err
		class := Classify(err)
		if class == ClassAmbiguous && stage == stageLoad {
			// Staging is idempotent; an ambiguous load is just a retry.
			class = ClassTransient
		}
		switch class {
		case ClassPermanent:
			return err
		case ClassTransient:
			nf.notify("%s: %s error (attempt %d/%d), will retry: %v", t.Name(), class, attempt, rp.MaxAttempts, err)
			continue
		case ClassAmbiguous:
			applied, rerr := resolveAmbiguousCommit(t, cfg, rp, rng, met)
			if rerr != nil {
				return fmt.Errorf("deploy: %s: ambiguous commit unresolvable (%v) after: %w", t.Name(), rerr, err)
			}
			if applied {
				// The commit landed before the session died; do not
				// drive it again. Register the provisional commit the
				// same way the direct path would have.
				met.ambigApplied.Inc()
				nf.notify("%s: ambiguous commit resolved: config already applied (attempt %d)", t.Name(), attempt)
				if grace > 0 {
					pending.add(t, native)
				}
				return nil
			}
			met.ambigRetried.Inc()
			nf.notify("%s: ambiguous commit resolved: not applied, retrying (attempt %d/%d)", t.Name(), attempt, rp.MaxAttempts)
			continue
		}
	}
	return fmt.Errorf("deploy: %s: retry budget (%d attempts) exhausted: %w", t.Name(), rp.MaxAttempts, lastErr)
}

// resolveAmbiguousCommit decides whether an ambiguous commit actually
// applied by reading the running config back and comparing it against
// the intent. The readback itself runs under a bounded transient-retry
// loop (the same flaky session may still be flaky).
func resolveAmbiguousCommit(t Target, cfg string, rp RetryPolicy, rng *rand.Rand, met deployMetrics) (bool, error) {
	var lastErr error
	for attempt := 1; attempt <= rp.MaxAttempts; attempt++ {
		if attempt > 1 {
			rp.pause(attempt-1, rng, met)
		}
		running, err := t.RunningConfig()
		if err != nil {
			if Classify(err) == ClassPermanent {
				return false, err
			}
			lastErr = err
			continue
		}
		return running == cfg, nil
	}
	return false, fmt.Errorf("readback failed: %w", lastErr)
}

// retryIdempotent runs an idempotent read-side operation (dryrun,
// readback, health check) under the retry budget: transient and
// ambiguous errors retry, permanent errors return immediately.
func retryIdempotent(rp RetryPolicy, device string, met deployMetrics, op func() error) error {
	rp = rp.withDefaults()
	rng := rp.rng(device + "|read")
	var lastErr error
	for attempt := 1; attempt <= rp.MaxAttempts; attempt++ {
		if attempt > 1 {
			rp.pause(attempt-1, rng, met)
		}
		err := op()
		if err == nil {
			return nil
		}
		if Classify(err) == ClassPermanent {
			return err
		}
		lastErr = err
	}
	return lastErr
}
