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
	"regexp"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/confdiff"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/telemetry"
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

// NewChecker builds a gate over the store. golden may be nil when no
// config repository exists (hunks are then diffed against empty).
func NewChecker(store *fbnet.Store, golden func(device string) (string, error)) *Checker {
	return &Checker{store: store, golden: golden}
}

// Instrument registers the robotron_verify_* metrics on reg.
func (c *Checker) Instrument(reg *telemetry.Registry) {
	reg.Help("robotron_verify_runs_total", "Pre-deploy verification gate runs.")
	reg.Help("robotron_verify_rejections_total", "Gate runs that rejected a deployment.")
	reg.Help("robotron_verify_violations_total", "Invariant violations found by the gate, by invariant.")
	reg.Help("robotron_verify_seconds", "Verification gate latency in seconds.")
	reg.Help("robotron_verify_delta_entries_total", "Binlog entries read to bring the gate's resident model up to date.")
	reg.Help("robotron_verify_rechecked_keys_total", "Stored checks re-evaluated because the delta touched what they read, by invariant.")
	reg.Help("robotron_verify_model_rebuilds_total", "Reloads of the resident model from the store (first sync, schema change).")
	c.runs = reg.Counter("robotron_verify_runs_total")
	c.rejections = reg.Counter("robotron_verify_rejections_total")
	c.violations = map[Invariant]*telemetry.Counter{}
	c.rechecked = map[Invariant]*telemetry.Counter{}
	for _, inv := range Invariants {
		c.violations[inv] = reg.Counter("robotron_verify_violations_total",
			telemetry.L("invariant", string(inv))...)
		c.rechecked[inv] = reg.Counter("robotron_verify_rechecked_keys_total",
			telemetry.L("invariant", string(inv))...)
	}
	c.latency = reg.Histogram("robotron_verify_seconds")
	c.entries = reg.Counter("robotron_verify_delta_entries_total")
	c.rebuilds = reg.Counter("robotron_verify_model_rebuilds_total")
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

// sync brings the resident model to the store's current binlog sequence
// and reports what that cost: entries applied, and whether the model had to
// be reloaded. The sequence is captured first and entries are applied only
// up to it (commits publish whole transactions, so it is a transaction
// boundary): the model is the store at one sequence. A store that is down
// is an error even though a warm model needs no rows from it — neither the
// gate nor a derivation vouches for a store it cannot read. The delta and
// rebuild counters advance here, whichever reader paid for the sync.
func (c *Checker) sync() (applied int, rebuilt bool, err error) {
	db := c.store.DB()
	if !db.Healthy() {
		return 0, false, fmt.Errorf("verify: store %s is down", db.Name())
	}
	if c.m != nil {
		seq := db.Seq()
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
	// Rebuild inside one store transaction: it holds the write lock, so
	// the Finds read one committed state and Seq names it.
	_, err = c.store.Mutate(func(tx *fbnet.Mutation) error {
		m, err := load(tx, db.Seq())
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
// neighbor a config names resolves back to FBNet intent.
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
		for _, k := range m.sessByDev[dev] {
			s := m.sess[k]
			if !s.internal() {
				continue
			}
			if s.local == dev && s.remoteAddr != "" && !containsAddr(cfg, s.remoteAddr) {
				vs = append(vs, Violation{
					Invariant: BGPSymmetry, Device: name, Model: k.sessionModel(), ID: k.id,
					Detail: fmt.Sprintf("rendered config omits neighbor %s (session to %s)",
						s.remoteAddr, m.devName(s.remote)),
					needle: s.remoteAddr,
				})
			}
			if addr := m.localSideAddr(k, s); s.remote == dev && addr != "" && !containsAddr(cfg, addr) {
				vs = append(vs, Violation{
					Invariant: BGPSymmetry, Device: name, Model: k.sessionModel(), ID: k.id,
					Detail: fmt.Sprintf("rendered config omits neighbor %s (session from %s)",
						addr, m.devName(s.local)),
					needle: addr,
				})
			}
		}
		vs = append(vs, m.scanConfig(dev, name, cfg)...)
	}
	return vs
}

// expectedNeighbors returns every neighbor address the device's designed
// sessions can render: remote_addr where it is the local side, and the
// far side's prefix address or loopback where it is the remote side.
func (m *model) expectedNeighbors(dev int64) map[string]bool {
	out := map[string]bool{}
	for _, k := range m.sessByDev[dev] {
		s := m.sess[k]
		if s.local == dev && s.remoteAddr != "" {
			out[s.remoteAddr] = true
		}
		if addr := m.localSideAddr(k, s); s.remote == dev && addr != "" {
			out[addr] = true
		}
	}
	return out
}

// localSideAddr resolves the address the *remote* peer must configure as
// its neighbor statement for this session: the local side's p2p prefix
// address (eBGP over a bundle) or its loopback (iBGP mesh) — mirroring
// exactly what configgen renders.
func (m *model) localSideAddr(k rowKey, s session) string {
	if s.localPrefix != 0 {
		return addrOf(m.pfxs[rowKey{k.v4, s.localPrefix}].text)
	}
	if k.v4 {
		return addrOf(m.devs[s.local].lo4)
	}
	return addrOf(m.devs[s.local].lo6)
}

var (
	ifaceV1Re    = regexp.MustCompile(`^interface +(\S+)$`)
	ifaceV2Re    = regexp.MustCompile(`^(?:replace: +)?((?:et|xe|ge|ae|lo)[-0-9/.]*\d\S*) +\{`)
	neighborV1Re = regexp.MustCompile(`^ neighbor +(\S+) +remote-as +\d+`)
	neighborV2Re = regexp.MustCompile(`^\s*neighbor +(\S+) +\{`)
)

// scanConfig cross-checks one rendered config against FBNet: interface
// stanzas must name interfaces of the device, neighbor statements must
// correspond to designed sessions.
func (m *model) scanConfig(dev int64, name, cfg string) []Violation {
	var vs []Violation
	valid := map[string]bool{"lo0": true}
	for _, port := range m.portNames[dev] {
		valid[port] = true
	}
	for _, id := range m.aggsByDev[dev] {
		valid[m.aggs[id].name] = true
	}
	expectedNbrs := m.expectedNeighbors(dev)
	ifaceRe, nbrRe := ifaceV1Re, neighborV1Re
	if m.vendors[m.hws[m.devs[dev].hw].vendor].syntax == "vendor2" {
		ifaceRe, nbrRe = ifaceV2Re, neighborV2Re
	}
	for len(cfg) > 0 {
		var line string
		line, cfg, _ = strings.Cut(cfg, "\n")
		if m := ifaceRe.FindStringSubmatch(line); m != nil {
			iface := m[1]
			if strings.HasPrefix(iface, "tunnel-te") || strings.HasPrefix(iface, "lo") {
				continue
			}
			if !valid[iface] {
				vs = append(vs, Violation{
					Invariant: OrphanRef, Device: name,
					Detail: fmt.Sprintf("config references interface %s which does not resolve in FBNet", iface),
					needle: iface,
				})
			}
		}
		if m := nbrRe.FindStringSubmatch(line); m != nil {
			addr := m[1]
			if !expectedNbrs[addr] {
				vs = append(vs, Violation{
					Invariant: OrphanRef, Device: name,
					Detail: fmt.Sprintf("config references BGP neighbor %s which matches no designed session", addr),
					needle: addr,
				})
			}
		}
	}
	return vs
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

// addrOf strips the prefix length: "2401::1/127" -> "2401::1".
func addrOf(pfx string) string {
	if i := strings.IndexByte(pfx, '/'); i >= 0 {
		return pfx[:i]
	}
	return pfx
}

// containsAddr reports whether cfg contains addr as a whole token (not as
// a substring of a longer address: "10.0.0.1" must not match "10.0.0.10").
func containsAddr(cfg, addr string) bool {
	if addr == "" {
		return false
	}
	for i := 0; ; {
		j := strings.Index(cfg[i:], addr)
		if j < 0 {
			return false
		}
		j += i
		k := j + len(addr)
		before := j == 0 || !addrChar(cfg[j-1])
		after := k >= len(cfg) || !addrChar(cfg[k])
		if before && after {
			return true
		}
		i = j + 1
	}
}

func addrChar(b byte) bool {
	switch {
	case b >= '0' && b <= '9', b >= 'a' && b <= 'f', b >= 'A' && b <= 'F':
		return true
	case b == '.' || b == ':' || b == '/':
		return true
	}
	return false
}
