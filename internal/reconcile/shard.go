package reconcile

import (
	"fmt"
	"sort"
	"strings"

	"github.com/robotron-net/robotron/internal/telemetry"
)

// shard is one failure domain's slice of the reconciler: its own safety
// budget, circuit breaker, and in-flight/backlog accounting. A drift
// storm in one site trips only that shard's breaker; every other domain
// keeps converging. All fields are guarded by Reconciler.mu.
type shard struct {
	name    string
	tripped bool  // this shard's circuit breaker is open
	trips   int64 // lifetime breaker openings
	open    int   // devices in detected|backoff|remediating|confirming
	active  int   // devices in remediating|confirming
	devices int   // devices ever tracked in this shard

	tripsCounter *telemetry.Counter
}

// DeriveShard maps a device name to its failure-domain shard when no
// SiteOf dependency is wired: the site segment of an FBNet-style name
// ("psw1.popa-c1" → "popa"), else the leading non-digit prefix
// ("dev00017" → "dev"). The mapping is deterministic and total, so
// journal replay regroups devices identically.
func DeriveShard(device string) string {
	if i := strings.IndexByte(device, '.'); i >= 0 && i+1 < len(device) {
		scope := device[i+1:]
		if j := strings.IndexByte(scope, '-'); j > 0 {
			return scope[:j]
		}
		return scope
	}
	for i := 0; i < len(device); i++ {
		if device[i] >= '0' && device[i] <= '9' {
			if i == 0 {
				break
			}
			return device[:i]
		}
	}
	if device == "" {
		return "default"
	}
	return device
}

// shardNameOf resolves a device's failure domain: the wired SiteOf
// dependency (FBNet site membership) with DeriveShard as the
// deterministic fallback for devices the fleet model doesn't know.
func (r *Reconciler) shardNameOf(device string) string {
	if r.deps.SiteOf != nil {
		if s := r.deps.SiteOf(device); s != "" {
			return s
		}
	}
	return DeriveShard(device)
}

// shardLocked returns (creating on first use) the named shard.
func (r *Reconciler) shardLocked(name string) *shard {
	sh := r.shards[name]
	if sh == nil {
		sh = &shard{name: name}
		sh.tripsCounter = r.reg.Counter("robotron_reconcile_shard_trips_total",
			telemetry.Label{Key: "shard", Value: name})
		r.shards[name] = sh
		r.instrumentShardLocked(sh)
	}
	return sh
}

// shardBudgetLocked resolves one shard's safety budget
// min(K, X·shard_fleet). Without a ShardFleetSize dependency the
// fraction falls back to the fleet-wide size, preserving the historical
// single-domain behaviour.
func (r *Reconciler) shardBudgetLocked(sh *shard) int {
	n := 0
	if r.deps.ShardFleetSize != nil {
		n = r.deps.ShardFleetSize(sh.name)
	} else if r.deps.FleetSize != nil {
		n = r.deps.FleetSize()
	}
	if n <= 0 {
		return r.cfg.BudgetMaxDevices
	}
	return min(r.cfg.BudgetMaxDevices, max(1, int(r.cfg.BudgetMaxFraction*float64(n))))
}

// tripShardLocked opens one shard's breaker.
func (r *Reconciler) tripShardLocked(sh *shard, device, detail string, alerts *[]string) {
	sh.tripped = true
	sh.trips++
	sh.tripsCounter.Inc()
	r.trippedShards++
	r.met.budgetTrips.Inc()
	r.eventLocked(device, sh, EvBudgetTrip, detail)
	*alerts = append(*alerts, fmt.Sprintf(
		"reconcile: safety budget exceeded in shard %s (%s) — shard halted; mass drift usually means the desired state is wrong. Inspect and ResetBreaker().",
		sh.name, detail))
}

// isOpenState reports whether a state counts against the demand-side
// safety budget (the loop is committed to remediating the device).
func isOpenState(s State) bool {
	switch s {
	case StateDetected, StateBackoff, StateRemediating, StateConfirming:
		return true
	}
	return false
}

// ShardTripped reports whether the named shard's breaker is open.
func (r *Reconciler) ShardTripped(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh := r.shards[name]
	return sh != nil && sh.tripped
}

// ShardStatus is the exported view of one shard, served on /reconcile
// and rendered by `robotron obs reconcile`.
type ShardStatus struct {
	Shard   string `json:"shard"`
	Tripped bool   `json:"tripped"`
	Trips   int64  `json:"trips"`
	Budget  int    `json:"budget"`  // min(K, X·shard_fleet) right now
	Active  int    `json:"active"`  // in-flight remediations (budget occupancy)
	Open    int    `json:"open"`    // devices the loop is committed to
	Backlog int    `json:"backlog"` // open − active: waiting on backoff/breaker
	Devices int    `json:"devices"` // devices ever tracked in this shard
}

// Snapshot is the reconciler's point-in-time operational state.
type Snapshot struct {
	Tripped bool          `json:"tripped"` // any shard breaker open
	Active  int           `json:"active"`  // fleet-wide in-flight remediations
	Open    int           `json:"open"`    // fleet-wide open devices
	Devices int           `json:"devices"`
	Shards  []ShardStatus `json:"shards"`
}

// Snapshot captures per-shard breaker position, budget occupancy, and
// backlog depth — the programmatic source the HTTP and CLI surfaces are
// parity-pinned to.
func (r *Reconciler) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Tripped: r.trippedShards > 0,
		Active:  r.active,
		Devices: len(r.devices),
		Shards:  make([]ShardStatus, 0, len(r.shards)),
	}
	for name, sh := range r.shards {
		s.Open += sh.open
		s.Shards = append(s.Shards, ShardStatus{
			Shard:   name,
			Tripped: sh.tripped,
			Trips:   sh.trips,
			Budget:  r.shardBudgetLocked(sh),
			Active:  sh.active,
			Open:    sh.open,
			Backlog: sh.open - sh.active,
			Devices: sh.devices,
		})
	}
	sort.Slice(s.Shards, func(i, j int) bool { return s.Shards[i].Shard < s.Shards[j].Shard })
	return s
}

// FormatSnapshot renders a snapshot as an operator table.
func FormatSnapshot(s Snapshot) string {
	var b strings.Builder
	breaker := "closed"
	if s.Tripped {
		breaker = "OPEN (shard)"
	}
	fmt.Fprintf(&b, "breaker=%s active=%d open=%d devices=%d shards=%d\n",
		breaker, s.Active, s.Open, s.Devices, len(s.Shards))
	fmt.Fprintf(&b, "%-16s %-8s %6s %6s %6s %7s %7s %5s\n",
		"SHARD", "BREAKER", "BUDGET", "ACTIVE", "OPEN", "BACKLOG", "DEVICES", "TRIPS")
	for _, sh := range s.Shards {
		pos := "closed"
		if sh.Tripped {
			pos = "OPEN"
		}
		fmt.Fprintf(&b, "%-16s %-8s %6d %6d %6d %7d %7d %5d\n",
			sh.Shard, pos, sh.Budget, sh.Active, sh.Open, sh.Backlog, sh.Devices, sh.Trips)
	}
	return b.String()
}
