package netsim

import (
	"fmt"
	"sort"
	"sync"
)

// Fleet owns a set of devices and the cabling between them. It derives
// link-level operational state: an interface is up when it is configured
// on both ends of a cable and neither device is down, and LLDP adjacency
// tables reflect the same cabling — the raw data from which FBNet Derived
// circuits are built (§4.1.2).
//
// Derivation is incremental: config commits, wiring changes, and health
// events enqueue only the affected devices into a dirty set, and
// flushDirty re-derives per-device state from three indexes maintained on
// every commit — cablesByDev (incident cables), addrOwners (address token
// -> owning devices), and sessionsByAddr (peer address -> devices with a
// session to it). A single-device commit therefore costs O(degree +
// sessions) instead of a full-fleet pass. The original whole-fleet
// derivation survives as a test-only oracle (recompute_oracle_test.go);
// the incremental engine's results are property-tested to be a fixed
// point of it.
type Fleet struct {
	mu      sync.Mutex
	devices map[string]*Device
	cables  []cable
	faults  *FaultPolicy // attached to every device, present and future
	// cablingVersion counts the Wire and Uncable calls that changed the
	// cabling (CablingVersion).
	cablingVersion uint64

	// cablesByDev indexes f.cables by endpoint device name so wiring
	// checks and per-device recompute are O(degree), not O(cables).
	cablesByDev map[string][]cable
	// devTokens holds the address-like tokens of each device's committed
	// running config; addrOwners is its inverse (token -> owner names).
	devTokens  map[string][]string
	addrOwners map[string]map[string]struct{}
	// devSessions holds each device's configured BGP peer addresses;
	// sessionsByAddr is its inverse (peer addr -> session holder names).
	devSessions    map[string][]string
	sessionsByAddr map[string]map[string]struct{}
	// dirty is the set of devices whose derived state must be re-derived
	// on the next flush.
	dirty map[string]struct{}

	// recomputeMu serializes whole recompute flushes. Commits from a
	// parallel deployment trigger concurrent recomputes; without this, a
	// pass computed from a stale snapshot (a peer's config not yet
	// committed) can write its LLDP/link tables after a newer pass and
	// leave a one-sided adjacency. Serialized, the last pass to run reads
	// post-commit state and settles every table consistently.
	recomputeMu sync.Mutex
}

type cable struct {
	aDev, aIf, zDev, zIf string
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet {
	return &Fleet{
		devices:        make(map[string]*Device),
		cablesByDev:    make(map[string][]cable),
		devTokens:      make(map[string][]string),
		addrOwners:     make(map[string]map[string]struct{}),
		devSessions:    make(map[string][]string),
		sessionsByAddr: make(map[string]map[string]struct{}),
		dirty:          make(map[string]struct{}),
	}
}

// AddDevice creates a device in the fleet and returns it.
func (f *Fleet) AddDevice(name string, vendor Vendor, role, site string) (*Device, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.devices[name]; dup {
		return nil, fmt.Errorf("netsim: device %q already exists", name)
	}
	d := NewDevice(name, vendor, role, site)
	d.onCommit = func(dd *Device) { f.deviceChanged(dd, true) }
	d.onManual = func(dd *Device) { f.deviceChanged(dd, false) }
	d.onHealth = func(dd *Device) { f.healthChanged(dd) }
	d.faults = f.faults
	f.devices[name] = d
	return d, nil
}

// Device returns a device by name.
func (f *Fleet) Device(name string) (*Device, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.devices[name]
	return d, ok
}

// Len returns the number of devices.
func (f *Fleet) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.devices)
}

// CablingVersion moves with every Wire and Uncable that changes the
// cabling. A caller that keeps the cabling in step with a design reads it
// after its own changes; finding it moved later means someone else — a
// fiber cut, a hand-wired port — recabled the fleet in between.
func (f *Fleet) CablingVersion() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cablingVersion
}

// Devices returns all devices sorted by name.
func (f *Fleet) Devices() []*Device {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.devices))
	for n := range f.devices {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Device, len(names))
	for i, n := range names {
		out[i] = f.devices[n]
	}
	return out
}

// Wire cables aDev:aIf to zDev:zIf. Link state is recomputed immediately.
func (f *Fleet) Wire(aDev, aIf, zDev, zIf string) error {
	f.mu.Lock()
	if _, ok := f.devices[aDev]; !ok {
		f.mu.Unlock()
		return fmt.Errorf("netsim: unknown device %q", aDev)
	}
	if _, ok := f.devices[zDev]; !ok {
		f.mu.Unlock()
		return fmt.Errorf("netsim: unknown device %q", zDev)
	}
	for _, end := range [2][2]string{{aDev, aIf}, {zDev, zIf}} {
		for _, c := range f.cablesByDev[end[0]] {
			if (c.aDev == end[0] && c.aIf == end[1]) || (c.zDev == end[0] && c.zIf == end[1]) {
				f.mu.Unlock()
				return fmt.Errorf("netsim: %s:%s is already cabled", end[0], end[1])
			}
		}
	}
	nc := cable{aDev: aDev, aIf: aIf, zDev: zDev, zIf: zIf}
	f.cables = append(f.cables, nc)
	f.cablesByDev[aDev] = append(f.cablesByDev[aDev], nc)
	if zDev != aDev {
		f.cablesByDev[zDev] = append(f.cablesByDev[zDev], nc)
	}
	f.dirty[aDev] = struct{}{}
	f.dirty[zDev] = struct{}{}
	f.cablingVersion++
	f.mu.Unlock()
	f.flushDirty()
	return nil
}

// CableOf returns the far end of the cable attached to dev:iface.
func (f *Fleet) CableOf(dev, iface string) (farDev, farIface string, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.cablesByDev[dev] {
		if c.aDev == dev && c.aIf == iface {
			return c.zDev, c.zIf, true
		}
		if c.zDev == dev && c.zIf == iface {
			return c.aDev, c.aIf, true
		}
	}
	return "", "", false
}

// Uncable removes the cable attached to dev:iface (a fiber cut or
// recabling event).
func (f *Fleet) Uncable(dev, iface string) bool {
	f.mu.Lock()
	var removed cable
	found := false
	for _, c := range f.cablesByDev[dev] {
		if (c.aDev == dev && c.aIf == iface) || (c.zDev == dev && c.zIf == iface) {
			removed, found = c, true
			break
		}
	}
	if !found {
		f.mu.Unlock()
		return false
	}
	for i, c := range f.cables {
		if c == removed {
			f.cables = append(f.cables[:i], f.cables[i+1:]...)
			break
		}
	}
	f.removeCableFromDevLocked(removed.aDev, removed)
	if removed.zDev != removed.aDev {
		f.removeCableFromDevLocked(removed.zDev, removed)
	}
	f.dirty[removed.aDev] = struct{}{}
	f.dirty[removed.zDev] = struct{}{}
	f.cablingVersion++
	f.mu.Unlock()
	f.flushDirty()
	return true
}

func (f *Fleet) removeCableFromDevLocked(dev string, c cable) {
	list := f.cablesByDev[dev]
	for i := range list {
		if list[i] == c {
			f.cablesByDev[dev] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// --- incremental derivation engine ---

// deviceChanged is the onCommit/onManual hook: refresh the device's
// ownership and session indexes from its committed running config, mark
// the device — and every holder of a session to a token that appeared or
// disappeared — dirty, and (for commits) flush immediately. Manual
// out-of-band edits only update the indexes and the dirty set; their
// derived state stays stale until the next flush, matching the
// full-recompute era where drift was only picked up by the next pass.
func (f *Fleet) deviceChanged(d *Device, flush bool) {
	cfg, peers := d.indexSnapshot()
	tokens := addrTokens(cfg)
	name := d.Name()
	f.mu.Lock()
	changed := f.updateIndexesLocked(name, tokens, peers)
	f.dirty[name] = struct{}{}
	for _, t := range changed {
		for holder := range f.sessionsByAddr[t] {
			f.dirty[holder] = struct{}{}
		}
	}
	f.mu.Unlock()
	if flush {
		f.flushDirty()
	}
}

// healthChanged is the onHealth hook: reachability and hardware events
// mark the device dirty but do not flush — exactly the pre-incremental
// behavior, where SetDown/Reboot/RemoveLinecard never triggered a
// recompute and derived state stayed stale until the next pass. The
// flush-time closure pulls in the session holders affected by the
// device's reachability.
func (f *Fleet) healthChanged(d *Device) {
	f.mu.Lock()
	f.dirty[d.Name()] = struct{}{}
	f.mu.Unlock()
}

// updateIndexesLocked replaces name's token and session index entries and
// returns the tokens that appeared or disappeared.
func (f *Fleet) updateIndexesLocked(name string, tokens, peers []string) (changed []string) {
	oldTokens := f.devTokens[name]
	oldSet := make(map[string]struct{}, len(oldTokens))
	for _, t := range oldTokens {
		oldSet[t] = struct{}{}
	}
	newTokens := make([]string, 0, len(tokens))
	newSet := make(map[string]struct{}, len(tokens))
	for _, t := range tokens {
		if _, dup := newSet[t]; dup {
			continue
		}
		newSet[t] = struct{}{}
		newTokens = append(newTokens, t)
		if _, had := oldSet[t]; !had {
			owners := f.addrOwners[t]
			if owners == nil {
				owners = make(map[string]struct{}, 1)
				f.addrOwners[t] = owners
			}
			owners[name] = struct{}{}
			changed = append(changed, t)
		}
	}
	for _, t := range oldTokens {
		if _, still := newSet[t]; !still {
			if owners := f.addrOwners[t]; owners != nil {
				delete(owners, name)
				if len(owners) == 0 {
					delete(f.addrOwners, t)
				}
			}
			changed = append(changed, t)
		}
	}
	f.devTokens[name] = newTokens

	oldPeers := f.devSessions[name]
	peerSet := make(map[string]struct{}, len(peers))
	newPeers := make([]string, 0, len(peers))
	for _, a := range peers {
		if _, dup := peerSet[a]; dup {
			continue
		}
		peerSet[a] = struct{}{}
		newPeers = append(newPeers, a)
		holders := f.sessionsByAddr[a]
		if holders == nil {
			holders = make(map[string]struct{}, 1)
			f.sessionsByAddr[a] = holders
		}
		holders[name] = struct{}{}
	}
	for _, a := range oldPeers {
		if _, still := peerSet[a]; !still {
			if holders := f.sessionsByAddr[a]; holders != nil {
				delete(holders, name)
				if len(holders) == 0 {
					delete(f.sessionsByAddr, a)
				}
			}
		}
	}
	f.devSessions[name] = newPeers
	return changed
}

// cableEval is one cable with both endpoints resolved.
type cableEval struct {
	c    cable
	a, z *Device
}

// sessionEval is one BGP session with the other owners of its peer
// address resolved.
type sessionEval struct {
	addr   string
	owners []*Device
}

// recomputeUnit is the per-device work of one flush: the incident cables
// to re-derive (deduplicated across units), the cabled interface set, and
// the sessions to re-evaluate.
type recomputeUnit struct {
	d        *Device
	cables   []cableEval
	cabled   map[string]bool
	sessions []sessionEval
}

// flushDirty drains the dirty set: it expands the set with every holder
// of a session to a token owned by a dirty device (reachability or
// ownership of those tokens may have changed), snapshots per-device work
// units from the indexes, and re-derives links, LLDP, and BGP for each
// unit. Loops until the dirty set is empty so dirt enqueued concurrently
// is settled too.
func (f *Fleet) flushDirty() {
	f.recomputeMu.Lock()
	defer f.recomputeMu.Unlock()
	for {
		f.mu.Lock()
		if len(f.dirty) == 0 {
			f.mu.Unlock()
			return
		}
		names := make([]string, 0, len(f.dirty))
		for n := range f.dirty {
			names = append(names, n)
		}
		seen := make(map[string]struct{}, len(names))
		for _, n := range names {
			seen[n] = struct{}{}
		}
		// One level of expansion: holders re-derive their own sessions
		// only, which cannot dirty anything further.
		initial := len(names)
		for i := 0; i < initial; i++ {
			for _, t := range f.devTokens[names[i]] {
				for holder := range f.sessionsByAddr[t] {
					if _, ok := seen[holder]; !ok {
						seen[holder] = struct{}{}
						names = append(names, holder)
					}
				}
			}
		}
		f.dirty = make(map[string]struct{})

		units := make([]recomputeUnit, 0, len(names))
		doneCables := make(map[cable]bool)
		for _, n := range names {
			d := f.devices[n]
			if d == nil {
				continue
			}
			u := recomputeUnit{d: d, cabled: make(map[string]bool, len(f.cablesByDev[n]))}
			for _, c := range f.cablesByDev[n] {
				if c.aDev == n {
					u.cabled[c.aIf] = true
				}
				if c.zDev == n {
					u.cabled[c.zIf] = true
				}
				if !doneCables[c] {
					doneCables[c] = true
					u.cables = append(u.cables, cableEval{c: c, a: f.devices[c.aDev], z: f.devices[c.zDev]})
				}
			}
			for _, addr := range f.devSessions[n] {
				se := sessionEval{addr: addr}
				for o := range f.addrOwners[addr] {
					if o != n {
						se.owners = append(se.owners, f.devices[o])
					}
				}
				u.sessions = append(u.sessions, se)
			}
			units = append(units, u)
		}
		f.mu.Unlock()

		for _, u := range units {
			recomputeDevice(u)
		}
	}
}

// recomputeDevice re-derives one device's slice of the fleet state: link
// and LLDP entries of its incident cables (both ends), the
// uncabled-configured-interfaces-down rule, and its BGP session states.
func recomputeDevice(u recomputeUnit) {
	for _, ce := range u.cables {
		if ce.a == nil || ce.z == nil {
			continue
		}
		up := ce.a.Reachable() && ce.z.Reachable() && ce.a.HasInterface(ce.c.aIf) && ce.z.HasInterface(ce.c.zIf)
		ce.a.setLink(ce.c.aIf, up)
		ce.z.setLink(ce.c.zIf, up)
		if up {
			ce.a.setLLDPEntry(LLDPNeighbor{LocalInterface: ce.c.aIf, NeighborDevice: ce.c.zDev, NeighborInterface: ce.c.zIf})
			ce.z.setLLDPEntry(LLDPNeighbor{LocalInterface: ce.c.zIf, NeighborDevice: ce.c.aDev, NeighborInterface: ce.c.aIf})
		} else {
			ce.a.clearLLDPEntry(ce.c.aIf)
			ce.z.clearLLDPEntry(ce.c.zIf)
		}
	}
	u.d.pruneLLDP(u.cabled)
	if !u.d.Reachable() {
		return
	}
	// Uncabled configured interfaces stay down.
	for _, name := range u.d.ifaceNames() {
		if !u.cabled[name] {
			u.d.setLink(name, false)
		}
	}
	for _, s := range u.sessions {
		state := "Active"
		if s.addr != "" {
			for _, o := range s.owners {
				if o != nil && o.Reachable() {
					state = "Established"
					break
				}
			}
		}
		u.d.setBGP(s.addr, state)
	}
}

// Recompute re-derives every link's operational state, LLDP table, and
// BGP session state. Wiring changes and config commits now settle
// incrementally on their own; Recompute remains the full-fleet safety
// valve (tests and health-event settlement use it) and is implemented by
// refreshing every device's indexes, marking everything dirty, and
// flushing.
func (f *Fleet) Recompute() {
	f.mu.Lock()
	devs := make([]*Device, 0, len(f.devices))
	for n, d := range f.devices {
		devs = append(devs, d)
		f.dirty[n] = struct{}{}
	}
	f.mu.Unlock()
	for _, d := range devs {
		f.deviceChanged(d, false)
	}
	f.flushDirty()
}

// addrTokens extracts the address-like tokens of a config: maximal runs
// of [0-9a-fA-F:.] that contain at least one digit and at least one '.'
// or ':'. IPv4 and IPv6 addresses qualify; interface names, AS numbers,
// and hostnames do not (prefix lengths are cut off by the '/'). Exact
// token matching is what fixes the old substring bug where a session to
// 10.0.0.1 was established by any config merely containing 10.0.0.12.
func addrTokens(cfg string) []string {
	var out []string
	for i, n := 0, len(cfg); i < n; {
		if !isAddrChar(cfg[i]) {
			i++
			continue
		}
		j := i
		hasDigit, hasSep := false, false
		for j < n && isAddrChar(cfg[j]) {
			switch c := cfg[j]; {
			case c >= '0' && c <= '9':
				hasDigit = true
			case c == '.' || c == ':':
				hasSep = true
			}
			j++
		}
		if hasDigit && hasSep {
			out = append(out, cfg[i:j])
		}
		i = j
	}
	return out
}

func isAddrChar(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' ||
		c >= 'A' && c <= 'F' || c == ':' || c == '.'
}
