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

// Devices returns every device, sorted by name.
func (in Intent) Devices() []Device {
	m := in.m
	out := make([]Device, 0, len(m.devs))
	for id, d := range m.devs {
		out = append(out, Device{
			Name: d.name, Role: d.role, Site: m.sites[d.site].name,
			Syntax: m.vendors[m.hws[d.hw].vendor].syntax, id: id,
		})
	}
	slices.SortFunc(out, func(a, b Device) int { return cmp.Compare(a.Name, b.Name) })
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

// Circuits returns the non-decommissioned circuits that have both ends, in
// id order.
func (in Intent) Circuits() []Circuit {
	m := in.m
	ids := make([]int64, 0, len(m.circs))
	for id, c := range m.circs {
		if c.status != "decommissioned" && c.a != 0 && c.z != 0 {
			ids = append(ids, id)
		}
	}
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
