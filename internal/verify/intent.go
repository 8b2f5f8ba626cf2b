package verify

import (
	"cmp"
	"slices"
)

// Intent is a read-only view of the resident model at one binlog
// sequence: the Desired topology everything outside the gate derives from
// — collection jobs and alarm rules, the simulated fleet's devices and
// cables — resolved once, by the model that already follows the store. It
// is valid only inside the Checker.Intent call that produced it; what its
// methods return are copies and may be kept.
type Intent struct{ m *model }

// Device is one Desired device with its references resolved.
type Device struct {
	Name, Role string
	Site       string // name of the device's site
	Syntax     string // config syntax of its hardware profile's vendor; "" when that does not resolve
	id         int64
}

// Circuit is one circuit: its circuit_id, its status, and its two ends as
// (device, interface) names.
type Circuit struct {
	ID, Status          string
	ADevice, AInterface string
	ZDevice, ZInterface string
}

// Peer is one BGP session seen from its local end: the remote address
// ("" when the session names none) and the session type.
type Peer struct{ Addr, Type string }

// Changes is what the syncs after a consumer's stamp changed in the view
// (Intent.Since).
type Changes struct {
	// Stamp is the view's own stamp: the one to pass to the next Since.
	Stamp uint64
	// All is set when the stamp predates the model — a consumer's first
	// call, or the model was rebuilt since. Every device and circuit is
	// then listed, and whatever the consumer derived from a device name
	// that is not listed is gone.
	All bool
	// Devices are the devices whose row, site, hardware profile, vendor,
	// ports, or sessions they are the local end of changed, sorted by name.
	Devices []Device
	// Gone are the names devices gave up — removed, or renamed away — and
	// no device holds now, sorted.
	Gone []string
	// Circuits are the changed circuits among those Circuits returns —
	// their row, or the names their ends resolve to — in id order.
	Circuits []Circuit
}

// Intent brings the resident model to the store's current sequence exactly
// as Check does — the same sync, failing closed on a store that is down,
// rebuilding on a change it cannot follow — and calls read with a view of
// it. read runs under the model's lock: it copies out of the view and
// returns, and whoever acts on the copy (store writes, job and rule swaps,
// fleet calls that raise syslog) does so after Intent has returned.
func (c *Checker) Intent(read func(Intent) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, _, err := c.sync(); err != nil {
		return err
	}
	return read(Intent{c.m})
}

// Since returns what changed after stamp: 0 for a consumer that has not
// read before, else the Stamp of its last Changes. A consumer that derives
// per device and per circuit re-derives what is listed, drops what Gone
// names, and so pays for what the design change touched; with every key
// listed (All), the same code is the full derivation.
func (in Intent) Since(stamp uint64) Changes {
	m := in.m
	ch := Changes{Stamp: m.seq, All: stamp == 0 || stamp < m.st.born}
	if ch.All {
		stamp = 0
	}
	ch.Devices, ch.Circuits = m.devicesSince(stamp), m.circuitsSince(stamp)
	for name, at := range m.st.gone {
		if at > stamp {
			ch.Gone = append(ch.Gone, name)
		}
	}
	slices.Sort(ch.Gone)
	return ch
}

// Devices returns every device, sorted by name.
func (in Intent) Devices() []Device { return in.m.devicesSince(0) }

// Circuits returns the non-decommissioned circuits that have both ends, in
// id order.
func (in Intent) Circuits() []Circuit { return in.m.circuitsSince(0) }

// devicesSince returns the devices stamped after stamp, sorted by name.
func (m *model) devicesSince(stamp uint64) []Device {
	var out []Device
	m.stampedSince(stamp, func(k stampKey) {
		if !k.circuit {
			d := m.devs[k.id]
			out = append(out, Device{
				Name: d.name, Role: d.role, Site: m.sites[d.site].name,
				Syntax: m.vendors[m.hws[d.hw].vendor].syntax, id: k.id,
			})
		}
	})
	slices.SortFunc(out, func(a, b Device) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// circuitsSince returns the circuits stamped after stamp that are not
// decommissioned and have both ends, in id order.
func (m *model) circuitsSince(stamp uint64) []Circuit {
	var ids []int64
	m.stampedSince(stamp, func(k stampKey) {
		if !k.circuit {
			return
		}
		if c := m.circs[k.id]; c.status != "decommissioned" && c.a != 0 && c.z != 0 {
			ids = append(ids, k.id)
		}
	})
	slices.Sort(ids)
	out := make([]Circuit, len(ids))
	for i, id := range ids {
		c := m.circs[id]
		out[i] = Circuit{
			ID: c.name, Status: c.status,
			ADevice: m.devs[m.portDev(c.a)].name, AInterface: m.ports[c.a].name,
			ZDevice: m.devs[m.portDev(c.z)].name, ZInterface: m.ports[c.z].name,
		}
	}
	return out
}

// Ports returns the names of the device's physical interfaces, sorted.
func (in Intent) Ports(d Device) []string {
	names := slices.Clone(in.m.portNames[d.id])
	slices.Sort(names)
	return names
}

// Peers returns every BGP session the device is the local end of, sorted
// by remote address.
func (in Intent) Peers(d Device) []Peer {
	m := in.m
	var peers []Peer
	for _, k := range m.sessByDev[d.id] {
		if s := m.sess[k]; s.local == d.id {
			peers = append(peers, Peer{Addr: s.remoteAddr, Type: s.kind})
		}
	}
	slices.SortFunc(peers, func(a, b Peer) int {
		return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.Type, b.Type))
	})
	return peers
}
