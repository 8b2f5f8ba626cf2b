package reconcile

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// EventType labels one journal entry.
type EventType string

const (
	EvDetected        EventType = "detected"         // drift observed, device entered the loop
	EvScheduled       EventType = "scheduled"        // remediation queued behind a backoff delay
	EvRemediate       EventType = "remediate"        // remediation started (budget slot acquired)
	EvConfirming      EventType = "confirming"       // deployed provisionally, health check running
	EvConverged       EventType = "converged"        // running config matches golden again
	EvRetry           EventType = "retry"            // remediation failed, rescheduled with backoff
	EvQuarantined     EventType = "quarantined"      // device parked for operator review
	EvReleased        EventType = "released"         // operator released a quarantined device
	EvSuppressed      EventType = "suppressed"       // drift ignored (quarantined device)
	EvBudgetTrip      EventType = "budget-trip"      // safety budget exceeded, shard breaker opened
	EvBreakerReset    EventType = "breaker-reset"    // operator re-armed a shard breaker
	EvCheckError      EventType = "check-error"      // conformance check failed (device unreachable...)
	EvTransportRetry  EventType = "transport-retry"  // remediation hit a transport fault; rescheduled without penalty
	EvTransportGiveUp EventType = "transport-giveup" // transport retries exhausted; device re-enters via next sweep
	EvSweep           EventType = "sweep"            // periodic full-fleet conformance sweep ran
	EvHalted          EventType = "halted"           // drift seen while the breaker is open
	EvResumed         EventType = "resumed"          // in-flight remediation interrupted by a restart, rescheduled
)

// Event is one journal entry. Active and ShardActive snapshot the
// in-flight remediation counts (fleet-wide and in the device's shard) at
// append time, so budget compliance is auditable from the journal alone
// at both levels. FireAt records when a pending timer is due (scheduled
// and retried check-error entries) — the field ResumeFromJournal replays
// to re-arm timers exactly where a killed process left them.
type Event struct {
	Seq         int64
	At          time.Time
	Device      string // empty for loop-wide events (sweep, breaker-reset)
	Shard       string // failure domain; empty for sweeps
	Type        EventType
	Detail      string
	Active      int
	ShardActive int
	FireAt      time.Time // pending-timer due time; zero when none
}

// Journal is the reconciler's append-only event log. Every state
// transition lands here before any side effect is visible to callers, and
// an optional sink receives each entry as one line as it is appended —
// pointed at a file, the journal is durable across the process.
type Journal struct {
	mu     sync.Mutex
	events []Event
	seq    int64
	sink   io.Writer
}

// NewJournal returns a journal; sink may be nil.
func NewJournal(sink io.Writer) *Journal {
	return &Journal{sink: sink}
}

func (j *Journal) add(at time.Time, device, shard string, typ EventType, detail string, active, shardActive int, fireAt time.Time) Event {
	j.mu.Lock()
	j.seq++
	e := Event{Seq: j.seq, At: at, Device: device, Shard: shard, Type: typ,
		Detail: detail, Active: active, ShardActive: shardActive, FireAt: fireAt}
	j.events = append(j.events, e)
	sink := j.sink
	j.mu.Unlock()
	if sink != nil {
		fmt.Fprintf(sink, "%s\n", e.String())
	}
	return e
}

// restore seeds the journal with a replayed prefix: entries are adopted
// verbatim and the sequence counter continues after them. The sink is
// deliberately not re-fed — when resuming from a sink file, those lines
// are already in it.
func (j *Journal) restore(events []Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append([]Event(nil), events...)
	j.seq = 0
	if n := len(events); n > 0 {
		j.seq = events[n-1].Seq
	}
}

// String renders one entry as a single journal line.
func (e Event) String() string {
	dev := e.Device
	if dev == "" {
		dev = "-"
	}
	sh := e.Shard
	if sh == "" {
		sh = "-"
	}
	return fmt.Sprintf("%06d %s %-14s %-12s shard=%-8s active=%d/%d %s",
		e.Seq, e.At.UTC().Format(time.RFC3339), e.Type, dev, sh, e.ShardActive, e.Active, e.Detail)
}

// Events returns a copy of every entry, oldest first.
func (j *Journal) Events() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// Len returns the number of entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// MaxActive returns the highest fleet-wide in-flight remediation count
// ever recorded, the journal-side witness for the safety-budget
// invariant.
func (j *Journal) MaxActive() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	max := 0
	for _, e := range j.events {
		if e.Active > max {
			max = e.Active
		}
	}
	return max
}

// MaxActiveByShard returns the highest in-flight remediation count ever
// recorded per shard — the budget-compliance invariant must hold inside
// every failure domain, not just in aggregate.
func (j *Journal) MaxActiveByShard() map[string]int {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]int)
	for _, e := range j.events {
		if e.Shard == "" {
			continue
		}
		if e.ShardActive > out[e.Shard] {
			out[e.Shard] = e.ShardActive
		}
	}
	return out
}

// Format renders the whole journal for operators.
func (j *Journal) Format() string {
	var b strings.Builder
	for _, e := range j.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ReconcileStats counts reconciler outcomes since construction.
type ReconcileStats struct {
	Detected         int64 // deviations that entered the loop
	Remediated       int64 // successful remediation deployments
	Converged        int64 // devices driven back to running == golden
	Quarantined      int64 // devices parked for operator review
	BudgetTrips      int64 // circuit-breaker openings
	Retries          int64 // failed remediation attempts rescheduled
	CheckErrors      int64 // conformance checks that errored (retried)
	Suppressed       int64 // deviations ignored on quarantined devices
	TransportRetries int64 // remediations rescheduled after transport faults

	// ShardTrips counts breaker openings per failure domain; shards that
	// never tripped are omitted.
	ShardTrips map[string]int64
}

// String renders the counters in one line, shard trip counts sorted.
func (s ReconcileStats) String() string {
	shards := make([]string, 0, len(s.ShardTrips))
	for name := range s.ShardTrips {
		shards = append(shards, name)
	}
	sort.Strings(shards)
	var b strings.Builder
	for i, name := range shards {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", name, s.ShardTrips[name])
	}
	return fmt.Sprintf("detected=%d remediated=%d converged=%d quarantined=%d budget-trips=%d retries=%d check-errors=%d suppressed=%d transport-retries=%d shard-trips{%s}",
		s.Detected, s.Remediated, s.Converged, s.Quarantined, s.BudgetTrips, s.Retries, s.CheckErrors, s.Suppressed, s.TransportRetries, b.String())
}
