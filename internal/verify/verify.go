// Package verify implements Robotron's pre-deploy intent verification
// gate: a network-wide invariant checker that runs between config
// generation and deployment (between §5.2 and §5.3 of SIGCOMM '16) and
// rejects a deployment with a concrete counterexample instead of letting
// the fleet discover the damage post-commit.
//
// The paper's core claim is that top-down generation prevents
// configuration error, and its §1 war stories enumerate what that error
// looks like: iBGP sessions configured on one peer only, circuits
// "misconfigured with conflicting IPs", p2p endpoints in different
// subnets, references to devices that no longer exist. Each of those
// classes is an invariant here:
//
//   - BGPSymmetry: every session is consistent on *both* endpoints —
//     session type, AS numbers, and the neighbor statements each side's
//     rendered config must carry.
//   - P2PConsistency: both ends of a point-to-point subnet exist, land on
//     adjacent devices, and no subnet is reused across circuits or
//     contained in another allocation.
//   - Reachability: every cluster device retains an intact circuit path
//     to its aggregation layer in the derived topology.
//   - OrphanRef: every circuit endpoint, prefix binding, session prefix,
//     and interface or neighbor named in a rendered config resolves in
//     FBNet.
//
// A violation carries the offending device and, when that device's config
// is part of the checked set, the confdiff hunk of the pending change
// around the offending lines — the counterexample an engineer reviews.
package verify

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/confdiff"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vendorcfg"
)

// Invariant names one checked property class.
type Invariant string

const (
	BGPSymmetry    Invariant = "bgp-symmetry"
	P2PConsistency Invariant = "p2p-consistency"
	Reachability   Invariant = "reachability"
	OrphanRef      Invariant = "orphan-ref"
)

// Invariants lists every invariant the gate checks.
var Invariants = []Invariant{BGPSymmetry, P2PConsistency, Reachability, OrphanRef}

// Violation is one invariant breach with its counterexample.
type Violation struct {
	Invariant Invariant
	// Device is the offending device's name ("" when the breach is not
	// attributable to a single device).
	Device string
	// Model/ID locate the FBNet object at fault, when there is one.
	Model string
	ID    int64
	// Detail is the human-readable counterexample.
	Detail string
	// Hunk is the confdiff hunk of the device's pending config change
	// around the offending lines; empty when the device is not in the
	// checked set or its config did not change.
	Hunk string

	// needle locates the offending lines inside the device's diff.
	needle string
}

func (v Violation) String() string {
	s := fmt.Sprintf("[%s] %s: %s", v.Invariant, v.Device, v.Detail)
	if v.Hunk != "" {
		s += "\n" + v.Hunk
	}
	return s
}

// Result is the outcome of one gate run.
type Result struct {
	Violations []Violation
	// Devices is how many rendered configs were checked.
	Devices int
	// Elapsed is the gate latency.
	Elapsed time.Duration
	// DeltaEntries is how many binlog entries this run read to bring the
	// resident model up to date (none when another reader of the model,
	// see Intent, already had), Rechecked how many stored checks it
	// re-evaluated because the delta touched what they read, and Rebuilt
	// whether this run had to reload the model from the store (the first
	// sync, or a schema change): a slow run is usually a rebuild.
	DeltaEntries int
	Rechecked    int
	Rebuilt      bool
}

// Pass reports whether the deployment may proceed.
func (r Result) Pass() bool { return len(r.Violations) == 0 }

// ByInvariant returns violation counts per invariant.
func (r Result) ByInvariant() map[Invariant]int {
	out := map[Invariant]int{}
	for _, v := range r.Violations {
		out[v.Invariant]++
	}
	return out
}

// RejectionError is returned by the deployment pipeline when the gate
// fails; it wraps the full result so callers can render every
// counterexample.
type RejectionError struct {
	Result Result
}

func (e *RejectionError) Error() string {
	n := len(e.Result.Violations)
	first := ""
	if n > 0 {
		v := e.Result.Violations[0]
		first = fmt.Sprintf("; first: [%s] %s: %s", v.Invariant, v.Device, v.Detail)
	}
	return fmt.Sprintf("verify: deployment rejected, %d invariant violation(s)%s", n, first)
}

// Checker verifies rendered configs against FBNet intent. It keeps a
// resident model of the object graph (model.go) that follows the store's
// binlog, so a run costs what the change since the last run touched, not
// the size of the fleet.
type Checker struct {
	store *fbnet.Store
	// golden returns a device's current golden config (the diff baseline
	// for counterexample hunks); an error means no golden exists yet and
	// the whole config is treated as new.
	golden func(device string) (string, error)

	mu sync.Mutex
	m  *model // nil until the first run, and after a change it cannot follow

	runs       *telemetry.Counter
	rejections *telemetry.Counter
	violations map[Invariant]*telemetry.Counter
	latency    *telemetry.Histogram
	entries    *telemetry.Counter
	rechecked  map[Invariant]*telemetry.Counter
	rebuilds   *telemetry.Counter
}

// NewChecker builds a gate over the store, counting its runs into the
// robotron_verify_* metrics of reg (nil counts nothing). golden may be
// nil when no config repository exists (hunks are then diffed against
// empty).
func NewChecker(store *fbnet.Store, golden func(device string) (string, error), reg *telemetry.Registry) *Checker {
	reg.Help("robotron_verify_runs_total", "Pre-deploy verification gate runs.")
	reg.Help("robotron_verify_rejections_total", "Gate runs that rejected a deployment.")
	reg.Help("robotron_verify_violations_total", "Invariant violations found by the gate, by invariant.")
	reg.Help("robotron_verify_seconds", "Verification gate latency in seconds.")
	reg.Help("robotron_verify_delta_entries_total", "Binlog entries read to bring the gate's resident model up to date.")
	reg.Help("robotron_verify_rechecked_keys_total", "Stored checks re-evaluated because the delta touched what they read, by invariant.")
	reg.Help("robotron_verify_model_rebuilds_total", "Reloads of the resident model from the store (first sync, schema change).")
	c := &Checker{
		store:      store,
		golden:     golden,
		runs:       reg.Counter("robotron_verify_runs_total"),
		rejections: reg.Counter("robotron_verify_rejections_total"),
		violations: map[Invariant]*telemetry.Counter{},
		rechecked:  map[Invariant]*telemetry.Counter{},
		latency:    reg.Histogram("robotron_verify_seconds"),
		entries:    reg.Counter("robotron_verify_delta_entries_total"),
		rebuilds:   reg.Counter("robotron_verify_model_rebuilds_total"),
	}
	for _, inv := range Invariants {
		c.violations[inv] = reg.Counter("robotron_verify_violations_total",
			telemetry.L("invariant", string(inv))...)
		c.rechecked[inv] = reg.Counter("robotron_verify_rechecked_keys_total",
			telemetry.L("invariant", string(inv))...)
	}
	return c
}

// Check verifies the rendered configs (device name → config text) against
// the whole FBNet Desired state. The configs map is the deployment's
// candidate set; invariants over FBNet alone (subnets, reachability,
// circuit endpoints) are checked network-wide regardless of the set.
func (c *Checker) Check(configs map[string]string) (Result, error) {
	start := time.Now()
	c.runs.Inc()
	res := Result{Devices: len(configs)}
	ran, err := c.collect(configs, &res)
	if err != nil {
		return Result{}, err
	}
	slices.SortFunc(res.Violations, compareViolations)
	c.attachHunks(configs, res.Violations)
	res.Elapsed = time.Since(start)
	for inv, n := range ran {
		res.Rechecked += n
		c.rechecked[inv].Add(int64(n))
	}
	for _, v := range res.Violations {
		c.violations[v.Invariant].Inc()
	}
	if !res.Pass() {
		c.rejections.Inc()
	}
	c.latency.ObserveSince(start)
	return res, nil
}

// collect is the part of a run that touches the resident model: bring it
// up to date, re-evaluate what the delta marked, and gather the stored
// and the candidate-set violations. It returns how many checks ran per
// invariant.
func (c *Checker) collect(configs map[string]string, res *Result) (map[Invariant]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if res.DeltaEntries, res.Rebuilt, err = c.sync(); err != nil {
		return nil, err
	}
	ran := c.m.recheck()
	res.Violations = append(c.m.violations(), c.m.checkCandidates(configs)...)
	return ran, nil
}

// compareViolations is the report order: invariant, device, detail, then
// the object at fault, so the order never depends on how violations were
// collected.
func compareViolations(a, b Violation) int {
	return cmp.Or(
		cmp.Compare(a.Invariant, b.Invariant),
		cmp.Compare(a.Device, b.Device),
		cmp.Compare(a.Detail, b.Detail),
		cmp.Compare(a.Model, b.Model),
		cmp.Compare(a.ID, b.ID),
	)
}

// sync brings the resident model to the sequence the store's read path
// reflects (ReadSeq) and reports what that cost: entries applied, and
// whether the model had to be reloaded. The sequence is captured first and
// entries are applied only up to it (commits publish whole transactions,
// so it is a transaction boundary): the model is the store at one
// sequence, and a row read after the sync is at least as new as the model. A store that is down
// is an error even though a warm model needs no rows from it — neither the
// gate nor a derivation vouches for a store it cannot read. The delta and
// rebuild counters advance here, whichever reader paid for the sync.
func (c *Checker) sync() (applied int, rebuilt bool, err error) {
	db := c.store.DB()
	if !db.Healthy() {
		return 0, false, fmt.Errorf("verify: store %s is down", db.Name())
	}
	if c.m != nil {
		seq := db.ReadSeq()
		followed := true
		entries := db.EntriesSince(c.m.seq)
		c.m.seq = seq // the stamp of what the entries change; a model that cannot follow is dropped
		for i := 0; i < len(entries) && entries[i].Seq <= seq && followed; i++ {
			applied++
			followed = c.m.apply(&entries[i])
		}
		c.entries.Add(int64(applied))
		if followed {
			return applied, false, nil
		}
		c.m = nil
	}
	// Rebuild from one pinned view: one committed state, which its Seq
	// names.
	err = db.View(func(v relstore.View) error {
		m, err := load(v)
		if err == nil {
			c.m = m
			c.rebuilds.Inc()
		}
		return err
	})
	return applied, true, err
}

// checkCandidates runs the checks that read the rendered configs and are
// therefore never stored: each endpoint in the set carries the neighbor
// statement the other end of its sessions expects (the §1 failure class
// "iBGP sessions configured on only one peer"), and every interface or
// neighbor a config names resolves back to FBNet intent. Both read the
// one line pass scanConfig makes, with the grammar the device applies a
// config with: a session's address counts only in a neighbor statement,
// not in a description or policy line.
func (m *model) checkCandidates(configs map[string]string) []Violation {
	var vs []Violation
	for name, cfg := range configs {
		dev, ok := m.devByName[name]
		if !ok {
			vs = append(vs, Violation{
				Invariant: OrphanRef, Device: name,
				Detail: "config rendered for a device that does not exist in FBNet",
			})
			continue
		}
		refs, stated := m.scanConfig(dev, name, cfg)
		for _, k := range m.sessByDev[dev] {
			s := m.sess[k]
			if !s.internal() {
				continue
			}
			if s.local == dev && s.remoteAddr != "" && !stated[s.remoteAddr] {
				vs = append(vs, Violation{
					Invariant: BGPSymmetry, Device: name, Model: k.sessionModel(), ID: k.id,
					Detail: fmt.Sprintf("rendered config omits neighbor %s (session to %s)",
						s.remoteAddr, m.devName(s.remote)),
					needle: s.remoteAddr,
				})
			}
			if addr := m.localSideAddr(k, s); s.remote == dev && addr != "" && !stated[addr] {
				vs = append(vs, Violation{
					Invariant: BGPSymmetry, Device: name, Model: k.sessionModel(), ID: k.id,
					Detail: fmt.Sprintf("rendered config omits neighbor %s (session from %s)",
						addr, m.devName(s.local)),
					needle: addr,
				})
			}
		}
		vs = append(vs, refs...)
	}
	return vs
}

// expectedNeighbors returns every neighbor address the device's designed
// sessions can render — remote_addr where it is the local side, and the
// far side's prefix address or loopback where it is the remote side —
// each mapped to false.
func (m *model) expectedNeighbors(dev int64) map[string]bool {
	out := map[string]bool{}
	for _, k := range m.sessByDev[dev] {
		s := m.sess[k]
		if s.local == dev && s.remoteAddr != "" {
			out[s.remoteAddr] = false
		}
		if addr := m.localSideAddr(k, s); s.remote == dev && addr != "" {
			out[addr] = false
		}
	}
	return out
}

// localSideAddr resolves the address the *remote* peer must configure as
// its neighbor statement for this session: the local side's p2p prefix
// address (eBGP over a bundle) or its loopback (iBGP mesh) — the
// vendorcfg.Addr configgen renders in that statement.
func (m *model) localSideAddr(k rowKey, s session) string {
	if s.localPrefix != 0 {
		return vendorcfg.Addr(m.pfxs[rowKey{k.v4, s.localPrefix}].text)
	}
	if k.v4 {
		return vendorcfg.Addr(m.devs[s.local].lo4)
	}
	return vendorcfg.Addr(m.devs[s.local].lo6)
}

// scanConfig cross-checks one rendered config against FBNet, reading each
// line as the device that runs it would (vendorcfg): the ports it declares,
// loopbacks aside, must be interfaces of the device, and the neighbors it
// declares must correspond to designed sessions. stated maps each neighbor
// address the device's sessions expect to whether a neighbor statement
// names it.
func (m *model) scanConfig(dev int64, name, cfg string) (vs []Violation, stated map[string]bool) {
	valid := map[string]bool{}
	for _, port := range m.portNames[dev] {
		valid[port] = true
	}
	for _, id := range m.aggsByDev[dev] {
		valid[m.aggs[id].name] = true
	}
	expectedNbrs := m.expectedNeighbors(dev)
	syntax := m.syntax(dev)
	for len(cfg) > 0 {
		var line string
		line, cfg, _ = strings.Cut(cfg, "\n")
		if port, ok := vendorcfg.Port(syntax, line); ok && !strings.HasPrefix(port, "lo") && !valid[port] {
			vs = append(vs, Violation{
				Invariant: OrphanRef, Device: name,
				Detail: fmt.Sprintf("config references interface %s which does not resolve in FBNet", port),
				needle: port,
			})
		}
		if addr, ok := vendorcfg.Neighbor(line); ok {
			if _, ok := expectedNbrs[addr]; ok {
				expectedNbrs[addr] = true
			} else {
				vs = append(vs, Violation{
					Invariant: OrphanRef, Device: name,
					Detail: fmt.Sprintf("config references BGP neighbor %s which matches no designed session", addr),
					needle: addr,
				})
			}
		}
	}
	return vs, expectedNbrs
}

// attachHunks computes, for each device-attributed violation whose config
// is in the checked set, the diff hunk (golden → candidate) around the
// violation's needle.
func (c *Checker) attachHunks(configs map[string]string, vs []Violation) {
	diffs := map[string]confdiff.Diff{}
	for i := range vs {
		v := &vs[i]
		cfg, ok := configs[v.Device]
		if v.Device == "" || !ok {
			continue
		}
		d, cached := diffs[v.Device]
		if !cached {
			old := ""
			if c.golden != nil {
				old, _ = c.golden(v.Device) // no golden yet: diff vs empty
			}
			d = confdiff.Compute(old, cfg)
			diffs[v.Device] = d
		}
		if d.Empty() {
			continue
		}
		v.Hunk = d.HunkContaining(v.needle, 2)
	}
}

// parseCircuitEnd recovers the (device, interface) names of one circuit
// end from the circuit_id convention "aDev:aIf--zDev:zIf".
func parseCircuitEnd(circuitID string, aSide bool) (dev, iface string) {
	parts := strings.SplitN(circuitID, "--", 2)
	side := parts[0]
	if !aSide && len(parts) == 2 {
		side = parts[1]
	}
	if i := strings.IndexByte(side, ':'); i >= 0 {
		return side[:i], side[i+1:]
	}
	return side, ""
}
