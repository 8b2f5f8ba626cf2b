package netsim

import (
	"fmt"
	"sort"
	"sync"

	"github.com/robotron-net/robotron/internal/vclock"
)

// Fleet owns a set of devices and the cabling between them. It derives
// link-level operational state: an interface is up when it is configured
// on both ends of a cable and neither device is down, and LLDP adjacency
// tables reflect the same cabling — the raw data from which FBNet Derived
// circuits are built (§4.1.2).
//
// Derivation is incremental and costs what an event changed. Config
// commits, wiring changes and health events mark the devices they hit
// dirty; config and health events also mark the addresses whose owners
// they moved. flushDirty re-derives each dirty device whole and, for each
// dirty address, only that one session of every other holder. It reads
// three indexes maintained on every commit — cablesByDev (incident
// cables), addrOwners (address token -> owning devices), and
// sessionsByAddr (peer address -> devices with a session to it). A
// single-device commit therefore costs O(degree + sessions + holders of
// the addresses it moved) instead of a full-fleet pass. The original
// whole-fleet derivation survives as a test-only oracle
// (recompute_oracle_test.go); the incremental engine's results are
// property-tested to be a fixed point of it.
type Fleet struct {
	clock   vclock.Clock // every device's clock
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
	// whole on the next flush: cables, LLDP, uncabled ports and every
	// session. dirtyAddrs is the set of addresses whose owners moved — one
	// appeared or disappeared, or its reachability changed — so every
	// holder of a session to one re-evaluates that session.
	dirty      map[string]struct{}
	dirtyAddrs map[string]struct{}

	// recomputeMu serializes whole recompute flushes. Commits from a
	// parallel deployment trigger concurrent recomputes; without this, a
	// pass computed from a stale snapshot (a peer's config not yet
	// committed) can write its LLDP/link tables after a newer pass and
	// leave a one-sided adjacency. Serialized, the last pass to run reads
	// post-commit state and settles every table consistently.
	recomputeMu sync.Mutex

	// onPlan, when set, sees every flush plan before it is applied, under
	// f.mu (tests count what a commit marked through it).
	onPlan func(*flushPlan)
}

type cable struct {
	aDev, aIf, zDev, zIf string
}

// NewFleet returns an empty fleet whose devices run on clock.
func NewFleet(clock vclock.Clock) *Fleet {
	return &Fleet{
		clock:          clock,
		devices:        make(map[string]*Device),
		cablesByDev:    make(map[string][]cable),
		devTokens:      make(map[string][]string),
		addrOwners:     make(map[string]map[string]struct{}),
		devSessions:    make(map[string][]string),
		sessionsByAddr: make(map[string]map[string]struct{}),
		dirty:          make(map[string]struct{}),
		dirtyAddrs:     make(map[string]struct{}),
	}
}

// AddDevice creates a device in the fleet and returns it.
func (f *Fleet) AddDevice(name string, vendor Vendor, role, site string) (*Device, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.devices[name]; dup {
		return nil, fmt.Errorf("netsim: device %q already exists", name)
	}
	d := newDevice(name, vendor, role, site, f.clock)
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

// deviceChanged is the onCommit/onManual hook. It brings the device's
// ownership and session indexes up to date by merging the sorted lists
// the device's scan yields against the ones indexed, and marks only what
// moved:
//
//   - the device itself, to be re-derived whole, on first sight or when a
//     reparse added or removed an interface;
//   - otherwise each session the reparse created, as an address touch;
//   - every token that appeared or disappeared, as an address touch.
//
// That is exact because a device's re-derivation reads its interface set,
// its session set, address owners, reachability and cabling, and each of
// these has its own mark: a config that moves none of the first three
// (a comment, an snmp-server line) marks nothing, and the hook then
// allocates and writes nothing. Commits flush at once; manual out-of-band
// edits only mark, so their derived state stays stale until the next
// flush, matching the full-recompute era where drift was only picked up by
// the next pass.
func (f *Fleet) deviceChanged(d *Device, flush bool) {
	name := d.Name()
	f.mu.Lock()
	// Read under f.mu, so concurrent hooks of one device apply its states
	// in the order they were read.
	tokens, peers, ifacesMoved, addedPeers := d.indexState()
	oldTokens, seen := f.devTokens[name]
	whole := !seen || ifacesMoved
	if whole {
		f.dirty[name] = struct{}{}
	} else {
		for _, a := range addedPeers {
			f.dirtyAddrs[a] = struct{}{}
		}
	}
	moved := false
	eachDiff(oldTokens, tokens, func(t string) {
		if owners := f.addrOwners[t]; owners != nil {
			delete(owners, name)
			if len(owners) == 0 {
				delete(f.addrOwners, t)
			}
		}
		f.dirtyAddrs[t] = struct{}{}
		moved = true
	}, func(t string) {
		owners := f.addrOwners[t]
		if owners == nil {
			owners = make(map[string]struct{}, 1)
			f.addrOwners[t] = owners
		}
		owners[name] = struct{}{}
		f.dirtyAddrs[t] = struct{}{}
		moved = true
	})
	if moved || !seen {
		f.devTokens[name] = tokens
	}
	moved = false
	eachDiff(f.devSessions[name], peers, func(a string) {
		if holders := f.sessionsByAddr[a]; holders != nil {
			delete(holders, name)
			if len(holders) == 0 {
				delete(f.sessionsByAddr, a)
			}
		}
		moved = true
	}, func(a string) {
		holders := f.sessionsByAddr[a]
		if holders == nil {
			holders = make(map[string]struct{}, 1)
			f.sessionsByAddr[a] = holders
		}
		holders[name] = struct{}{}
		moved = true
	})
	if moved {
		f.devSessions[name] = peers
	}
	f.mu.Unlock()
	if flush {
		f.flushDirty()
	}
}

// eachDiff walks two sorted lists without repeats in step, calling gone
// for each string only in old and came for each only in cur.
func eachDiff(old, cur []string, gone, came func(string)) {
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		switch {
		case j == len(cur) || i < len(old) && old[i] < cur[j]:
			gone(old[i])
			i++
		case i == len(old) || cur[j] < old[i]:
			came(cur[j])
			j++
		default:
			i++
			j++
		}
	}
}

// healthChanged is the onHealth hook: reachability and hardware events
// mark the device dirty but do not flush — exactly the pre-incremental
// behavior, where SetDown/Reboot/RemoveLinecard never triggered a
// recompute and derived state stayed stale until the next pass. Every
// token the device owns is marked too: its owner's reachability may have
// moved, so each session to one must be re-evaluated.
func (f *Fleet) healthChanged(d *Device) {
	name := d.Name()
	f.mu.Lock()
	f.dirty[name] = struct{}{}
	for _, t := range f.devTokens[name] {
		f.dirtyAddrs[t] = struct{}{}
	}
	f.mu.Unlock()
}

// cableEval is one cable with both endpoints resolved.
type cableEval struct {
	c    cable
	a, z *Device
}

// recomputeUnit is one dirty device's work in a flush: the incident
// cables to re-derive (deduplicated across units), the cabled interface
// set, and the peer addresses of all its sessions.
type recomputeUnit struct {
	d        *Device
	cables   []cableEval
	cabled   map[string]bool
	sessions []string
}

// addrTouch is one dirty address and the holders of a session to it that
// re-evaluate just that session: those not re-derived whole as a unit.
type addrTouch struct {
	addr    string
	holders []*Device
}

// addrOwnerSet is one address's owning devices, read once per flush. A
// session is Established when some reachable owner other than its holder
// exists, so the first two reachable owners decide it for every holder.
type addrOwnerSet struct {
	devs          []*Device
	read          bool
	first, second *Device
}

// establishes reports whether holder's session to the address is
// Established. Owner reachability is read on first use, with f.mu
// released, and only until two reachable owners are found.
func (o *addrOwnerSet) establishes(holder *Device) bool {
	if !o.read {
		o.read = true
		for _, d := range o.devs {
			if !d.Reachable() {
				continue
			}
			if o.first == nil {
				o.first = d
				continue
			}
			o.second = d
			break
		}
	}
	return o.second != nil || (o.first != nil && o.first != holder)
}

// flushPlan is one flush's work, snapshotted from the indexes under f.mu
// and applied with f.mu released. Its order comes from names alone — the
// units by device name, then each address in order with its holders by
// name — so the syslog messages a flush emits come out the same every
// run.
type flushPlan struct {
	units   []recomputeUnit
	touches []addrTouch
	owners  map[string]*addrOwnerSet
}

// flushDirty drains both dirty sets: it plans the flush from the indexes
// under f.mu, then re-derives links, LLDP and BGP with f.mu released.
// Loops until both sets are empty so dirt enqueued concurrently is
// settled too.
func (f *Fleet) flushDirty() {
	f.recomputeMu.Lock()
	defer f.recomputeMu.Unlock()
	for {
		f.mu.Lock()
		if len(f.dirty) == 0 && len(f.dirtyAddrs) == 0 {
			f.mu.Unlock()
			return
		}
		p := f.planLocked()
		if f.onPlan != nil {
			f.onPlan(p)
		}
		f.mu.Unlock()
		p.apply()
	}
}

// planLocked drains both dirty sets into a flushPlan: a unit per dirty
// device, and per dirty address the holders outside those units.
func (f *Fleet) planLocked() *flushPlan {
	dirty, dirtyAddrs := f.dirty, f.dirtyAddrs
	f.dirty, f.dirtyAddrs = make(map[string]struct{}), make(map[string]struct{})
	p := &flushPlan{owners: make(map[string]*addrOwnerSet)}
	doneCables := make(map[cable]bool)
	for _, n := range sortedKeys(dirty) {
		d := f.devices[n]
		if d == nil {
			continue
		}
		u := recomputeUnit{d: d, cabled: make(map[string]bool, len(f.cablesByDev[n])), sessions: f.devSessions[n]}
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
		for _, addr := range u.sessions {
			f.readOwnersLocked(p, addr)
		}
		p.units = append(p.units, u)
	}
	for _, addr := range sortedKeys(dirtyAddrs) {
		var names []string
		for h := range f.sessionsByAddr[addr] {
			if _, whole := dirty[h]; !whole {
				names = append(names, h)
			}
		}
		if len(names) == 0 {
			continue
		}
		sort.Strings(names)
		t := addrTouch{addr: addr, holders: make([]*Device, len(names))}
		for i, h := range names {
			t.holders[i] = f.devices[h]
		}
		p.touches = append(p.touches, t)
		f.readOwnersLocked(p, addr)
	}
	return p
}

// readOwnersLocked snapshots addr's owners into the plan, once per flush.
func (f *Fleet) readOwnersLocked(p *flushPlan, addr string) {
	if _, ok := p.owners[addr]; ok {
		return
	}
	o := &addrOwnerSet{devs: make([]*Device, 0, len(f.addrOwners[addr]))}
	for name := range f.addrOwners[addr] {
		o.devs = append(o.devs, f.devices[name])
	}
	p.owners[addr] = o
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// apply re-derives the plan: each unit whole, then each touched session.
func (p *flushPlan) apply() {
	for _, u := range p.units {
		p.recomputeDevice(u)
	}
	for _, t := range p.touches {
		o := p.owners[t.addr]
		for _, h := range t.holders {
			if h.Reachable() {
				h.setBGP(t.addr, sessionState(o.establishes(h)))
			}
		}
	}
}

func sessionState(established bool) string {
	if established {
		return "Established"
	}
	return "Active"
}

// recomputeDevice re-derives one device's slice of the fleet state: link
// and LLDP entries of its incident cables (both ends), the
// uncabled-configured-interfaces-down rule, and its BGP session states.
func (p *flushPlan) recomputeDevice(u recomputeUnit) {
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
	for _, addr := range u.sessions {
		u.d.setBGP(addr, sessionState(p.owners[addr].establishes(u.d)))
	}
}

// Recompute re-derives every link's operational state, LLDP table, and
// BGP session state. Wiring changes and config commits settle
// incrementally on their own; Recompute remains the full-fleet safety
// valve (tests and health-event settlement use it): it refreshes every
// device's indexes, marks every device dirty, and flushes.
func (f *Fleet) Recompute() {
	for _, d := range f.Devices() {
		f.deviceChanged(d, false)
	}
	f.mu.Lock()
	for name := range f.devices {
		f.dirty[name] = struct{}{}
	}
	f.mu.Unlock()
	f.flushDirty()
}
