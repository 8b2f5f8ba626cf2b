package design

import (
	"fmt"
	"net/netip"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/ipam"
)

// designTx is one design change's write scope: its FBNet mutation, the
// pool allocations to hand back if it rolls back, the prefixes to free
// once it commits, and the ports it has handed out per device. Its
// methods are the one vocabulary every design op writes FBNet with
// (§4.2.2's portmap and device write APIs): a device, an aggregate, a
// bundle's members, a point-to-point address pair, a rack, and the
// release of a device's or an aggregate's addresses are each written
// here once.
type designTx struct {
	*fbnet.Mutation
	pools     Pools
	allocated []trackedAlloc
	toFree    []trackedAlloc
	ports     map[int64]*devPorts
}

type trackedAlloc struct {
	pool *ipam.Pool
	pfx  netip.Prefix
}

// bundleMTU is the MTU of a link bundle's aggregated interfaces.
const bundleMTU = 9192

// --- pool allocations ---

func (m *designTx) p2p(v6 bool, owner string) (ipam.P2P, error) {
	pool := m.pools.V4P2P
	if v6 {
		pool = m.pools.V6P2P
	}
	if pool == nil {
		return ipam.P2P{}, fmt.Errorf("design: no p2p pool configured for this address family")
	}
	pp, err := pool.AllocateP2P(owner)
	if err != nil {
		return ipam.P2P{}, err
	}
	m.allocated = append(m.allocated, trackedAlloc{pool: pool, pfx: pp.Subnet})
	return pp, nil
}

func (m *designTx) loopback(v6 bool, owner string) (netip.Prefix, error) {
	pool := m.pools.V4Loopback
	if v6 {
		pool = m.pools.V6Loopback
	}
	if pool == nil {
		return netip.Prefix{}, fmt.Errorf("design: no loopback pool configured for this address family")
	}
	pfx, err := pool.AllocateHost(owner)
	if err != nil {
		return netip.Prefix{}, err
	}
	m.allocated = append(m.allocated, trackedAlloc{pool: pool, pfx: pfx})
	return pfx, nil
}

// free schedules an existing prefix for release when the change commits.
func (m *designTx) free(pfxStr string) {
	pfx, err := netip.ParsePrefix(pfxStr)
	if err != nil {
		return
	}
	for _, pool := range []*ipam.Pool{m.pools.V6P2P, m.pools.V4P2P, m.pools.V6Loopback, m.pools.V4Loopback} {
		if pool != nil && pool.Root().Overlaps(pfx) {
			m.toFree = append(m.toFree, trackedAlloc{pool: pool, pfx: pfx})
			return
		}
	}
}

func (m *designTx) releaseAll() {
	for _, t := range m.allocated {
		_ = t.pool.Free(t.pfx)
	}
	m.allocated = nil
	m.toFree = nil
}

func (m *designTx) releaseFreed() {
	for _, t := range m.toFree {
		_ = t.pool.Free(t.pfx)
	}
	m.toFree = nil
}

// releaseDevice schedules a device's loopbacks and every prefix on its
// aggregates for release when the change commits.
func (m *designTx) releaseDevice(dev fbnet.Object) error {
	for _, fam := range families(true, true) {
		m.free(dev.String(fam.loopback))
	}
	aggs, err := m.Referencing("AggregatedInterface", "device", dev.ID)
	if err != nil {
		return err
	}
	ids := make([]int64, len(aggs))
	for i, a := range aggs {
		ids[i] = a.ID
	}
	_, err = m.releasePrefixes("", ids...)
	return err
}

// releasePrefixes schedules the prefixes on the aggregates (0 for none)
// for release when the change commits, only those of the given purpose
// unless it is "", and returns their rows: every aggregate's v6 prefixes,
// then every aggregate's v4 ones. Both ends of a p2p subnet free the one
// allocation; the second free is a no-op.
func (m *designTx) releasePrefixes(purpose string, aggs ...int64) ([]fbnet.Object, error) {
	var out []fbnet.Object
	for _, fam := range families(true, true) {
		for _, agg := range aggs {
			if agg == 0 {
				continue
			}
			pfxs, err := m.Referencing(fam.prefix, "interface", agg)
			if err != nil {
				return nil, err
			}
			for _, p := range pfxs {
				if purpose != "" && p.String("purpose") != purpose {
					continue
				}
				m.free(p.String("prefix"))
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// --- addresses ---

// family is one address family's models and device loopback field.
type family struct {
	v6       bool
	prefix   string
	session  string
	loopback string
}

var (
	familyV6 = family{true, "V6Prefix", "BgpV6Session", "loopback_v6"}
	familyV4 = family{false, "V4Prefix", "BgpV4Session", "loopback_v4"}
)

// families lists the selected address families, v6 first.
func families(v6, v4 bool) []family {
	var out []family
	if v6 {
		out = append(out, familyV6)
	}
	if v4 {
		out = append(out, familyV4)
	}
	return out
}

// addressPair allocates one point-to-point subnet of the family, puts its
// A address on aAgg and its Z address on zAgg (0 for a far end outside
// FBNet), and returns the A prefix row and the Z address.
func (m *designTx) addressPair(fam family, owner, purpose string, aAgg, zAgg int64) (aPrefix int64, zAddr string, err error) {
	pp, err := m.p2p(fam.v6, owner)
	if err != nil {
		return 0, "", err
	}
	aPrefix, err = m.Create(fam.prefix, map[string]any{
		"prefix": pp.APrefix(), "interface": aAgg, "purpose": purpose,
	})
	if err != nil {
		return 0, "", err
	}
	if zAgg != 0 {
		if _, err := m.Create(fam.prefix, map[string]any{
			"prefix": pp.ZPrefix(), "interface": zAgg, "purpose": purpose,
		}); err != nil {
			return 0, "", err
		}
	}
	return aPrefix, pp.Z.String(), nil
}

// --- devices and ports ---

type deviceHandle struct {
	id   int64
	name string
	as   int64
}

// device creates a drained device with loopbacks per the addressing spec.
func (m *designTx) device(name, role string, siteID, clusterID, hwID int64, addr AddressingSpec) (deviceHandle, error) {
	fields := map[string]any{
		"name": name, "role": role, "site": siteID,
		"hw_profile": hwID, "drain_state": "drained",
	}
	if clusterID != 0 {
		fields["cluster"] = clusterID
	}
	for _, fam := range families(addr.V6, addr.V4) {
		lo, err := m.loopback(fam.v6, name)
		if err != nil {
			return deviceHandle{}, err
		}
		fields[fam.loopback] = lo.String()
	}
	id, err := m.Create("Device", fields)
	if err != nil {
		return deviceHandle{}, err
	}
	return deviceHandle{id: id, name: name}, nil
}

// devPorts is what port allocation knows of one device: its vendor
// syntax, chassis, linecards, and the interface names already taken.
type devPorts struct {
	syntax    string
	slots     []int64 // linecard ids in slot order
	slotNums  []int
	numSlots  int // chassis capacity; linecards are added on demand
	portsPer  int
	speedMbps int64
	taken     map[string]bool
}

// devicePorts loads a device's port state on first use in the change.
func (m *designTx) devicePorts(devID int64) (*devPorts, error) {
	if dp, ok := m.ports[devID]; ok {
		return dp, nil
	}
	dev, err := m.Get("Device", devID)
	if err != nil {
		return nil, err
	}
	hw, err := m.Get("HardwareProfile", dev.Ref("hw_profile"))
	if err != nil {
		return nil, err
	}
	vendor, err := m.Get("Vendor", hw.Ref("vendor"))
	if err != nil {
		return nil, err
	}
	dp := &devPorts{
		syntax:    vendor.String("syntax"),
		numSlots:  int(hw.Int("num_slots")),
		portsPer:  int(hw.Int("ports_per_linecard")),
		speedMbps: hw.Int("port_speed_mbps"),
		taken:     map[string]bool{},
	}
	lcs, err := m.Referencing("Linecard", "device", devID)
	if err != nil {
		return nil, err
	}
	for _, lc := range lcs {
		dp.slots = append(dp.slots, lc.ID)
		dp.slotNums = append(dp.slotNums, int(lc.Int("slot")))
		pifs, err := m.Referencing("PhysicalInterface", "linecard", lc.ID)
		if err != nil {
			return nil, err
		}
		for _, p := range pifs {
			dp.taken[p.String("name")] = true
		}
	}
	if m.ports == nil {
		m.ports = map[int64]*devPorts{}
	}
	m.ports[devID] = dp
	return dp, nil
}

// ifaceName builds the vendor-specific interface name for slot/port.
func ifaceName(syntax string, slot, port int) string {
	if syntax == "vendor2" {
		return fmt.Sprintf("et-%d/0/%d", slot, port)
	}
	return fmt.Sprintf("et%d/%d", slot, port)
}

// allocPort creates a PhysicalInterface on the first free port of devID,
// associated with aggID (0 for none). Linecards are installed on demand up
// to the chassis slot capacity. Returns the new pif id and name.
func (m *designTx) allocPort(devID, aggID int64) (int64, string, error) {
	dp, err := m.devicePorts(devID)
	if err != nil {
		return 0, "", err
	}
	for {
		for i, lcID := range dp.slots {
			slot := dp.slotNums[i]
			for port := 1; port <= dp.portsPer; port++ {
				name := ifaceName(dp.syntax, slot, port)
				if dp.taken[name] {
					continue
				}
				fields := map[string]any{
					"name": name, "speed_mbps": dp.speedMbps, "linecard": lcID,
				}
				if aggID != 0 {
					fields["agg_interface"] = aggID
				}
				id, err := m.Create("PhysicalInterface", fields)
				if err != nil {
					return 0, "", err
				}
				dp.taken[name] = true
				return id, name, nil
			}
		}
		if len(dp.slots) >= dp.numSlots {
			return 0, "", fmt.Errorf("design: device %d is out of ports (%d slots of %d ports)",
				devID, dp.numSlots, dp.portsPer)
		}
		nextSlot := 1
		for _, s := range dp.slotNums {
			if s >= nextSlot {
				nextSlot = s + 1
			}
		}
		lcID, err := m.Create("Linecard", map[string]any{"slot": nextSlot, "device": devID})
		if err != nil {
			return 0, "", err
		}
		dp.slots = append(dp.slots, lcID)
		dp.slotNums = append(dp.slotNums, nextSlot)
	}
}

// pifDevice resolves a physical interface and the device it sits on.
func (m *designTx) pifDevice(pifID int64) (fbnet.Object, int64, error) {
	pif, err := m.Get("PhysicalInterface", pifID)
	if err != nil {
		return fbnet.Object{}, 0, err
	}
	lc, err := m.Get("Linecard", pif.Ref("linecard"))
	if err != nil {
		return fbnet.Object{}, 0, err
	}
	return pif, lc.Ref("device"), nil
}

// aggregate creates the next free aggregated interface ("ae<n>") on a
// device.
func (m *designTx) aggregate(devID, mtu int64) (int64, error) {
	aggs, err := m.Referencing("AggregatedInterface", "device", devID)
	if err != nil {
		return 0, err
	}
	used := map[int64]bool{}
	for _, a := range aggs {
		used[a.Int("number")] = true
	}
	n := int64(0)
	for used[n] {
		n++
	}
	return m.Create("AggregatedInterface", map[string]any{
		"name": fmt.Sprintf("ae%d", n), "number": n, "mtu": mtu, "device": devID,
	})
}

// --- bundles ---

// bundle is a link group between two devices and each side's aggregate.
type bundle struct {
	lg           int64
	aDev, zDev   int64
	aName, zName string
	aAgg, zAgg   int64
}

// addMembers adds n circuits to a bundle, each a new port in each side's
// aggregate.
func (m *designTx) addMembers(b bundle, n int) error {
	for i := 0; i < n; i++ {
		aPif, aPifName, err := m.allocPort(b.aDev, b.aAgg)
		if err != nil {
			return err
		}
		zPif, zPifName, err := m.allocPort(b.zDev, b.zAgg)
		if err != nil {
			return err
		}
		if _, err := m.Create("Circuit", map[string]any{
			"circuit_id":  fmt.Sprintf("%s:%s--%s:%s", b.aName, aPifName, b.zName, zPifName),
			"a_interface": aPif, "z_interface": zPif,
			"link_group": b.lg, "status": "provisioning",
		}); err != nil {
			return err
		}
	}
	return nil
}

// capacity is the capacity of n circuits at dev's port speed.
func (m *designTx) capacity(devID int64, n int) int64 {
	speed := int64(10000)
	if dp, err := m.devicePorts(devID); err == nil {
		speed = dp.speedMbps
	}
	return speed * int64(n)
}

// portmapSpec describes one device-pair connection, the unit manipulated
// by FBNet's portmap write API (§4.2.2, Fig. 4).
type portmapSpec struct {
	aDev, zDev   int64
	aName, zName string
	circuits     int
	v6, v4       bool
	ebgp         bool
	aAS, zAS     int64
}

// portmap realizes one portmap: an aggregated interface on each device, a
// link group of N circuits between them, point-to-point prefixes from one
// subnet per family on both aggregates, and (optionally) an eBGP session
// per family over the bundle.
func (m *designTx) portmap(spec portmapSpec) error {
	if spec.aDev == spec.zDev {
		return fmt.Errorf("design: portmap endpoints must be distinct devices (%s)", spec.aName)
	}
	if spec.circuits <= 0 {
		return fmt.Errorf("design: portmap %s--%s needs at least one circuit", spec.aName, spec.zName)
	}
	b := bundle{aDev: spec.aDev, zDev: spec.zDev, aName: spec.aName, zName: spec.zName}
	var err error
	if b.aAgg, err = m.aggregate(spec.aDev, bundleMTU); err != nil {
		return err
	}
	if b.zAgg, err = m.aggregate(spec.zDev, bundleMTU); err != nil {
		return err
	}
	lgName := spec.aName + "--" + spec.zName
	if b.lg, err = m.Create("LinkGroup", map[string]any{
		"name": lgName, "a_device": spec.aDev, "z_device": spec.zDev,
		"capacity_mbps": m.capacity(spec.aDev, spec.circuits),
	}); err != nil {
		return err
	}
	if err := m.addMembers(b, spec.circuits); err != nil {
		return err
	}
	type end struct {
		fam    family
		prefix int64
		zAddr  string
	}
	var ends []end
	for _, fam := range families(spec.v6, spec.v4) {
		prefix, zAddr, err := m.addressPair(fam, lgName, "p2p", b.aAgg, b.zAgg)
		if err != nil {
			return err
		}
		ends = append(ends, end{fam, prefix, zAddr})
	}
	if !spec.ebgp {
		return nil
	}
	for _, e := range ends {
		if _, err := m.Create(e.fam.session, map[string]any{
			"local_device": spec.aDev, "remote_device": spec.zDev,
			"local_prefix": e.prefix, "remote_addr": e.zAddr,
			"local_as": spec.aAS, "remote_as": spec.zAS,
			"session_type": "ebgp",
		}); err != nil {
			return err
		}
	}
	return nil
}

// findBundle locates the link group between two devices (either
// orientation) and each side's aggregated interface.
func (m *designTx) findBundle(a, z fbnet.Object) (bundle, bool, error) {
	lgs, err := m.Find("LinkGroup", fbnet.Or(
		fbnet.And(fbnet.Eq("a_device", a.ID), fbnet.Eq("z_device", z.ID)),
		fbnet.And(fbnet.Eq("a_device", z.ID), fbnet.Eq("z_device", a.ID)),
	))
	if err != nil || len(lgs) == 0 {
		return bundle{}, false, err
	}
	b := bundle{lg: lgs[0].ID, aDev: a.ID, zDev: z.ID, aName: a.String("name"), zName: z.String("name")}
	circuits, err := m.Referencing("Circuit", "link_group", b.lg)
	if err != nil {
		return bundle{}, false, err
	}
	for _, c := range circuits {
		for _, side := range []string{"a_interface", "z_interface"} {
			pifID := c.Ref(side)
			if pifID == 0 {
				continue
			}
			pif, dev, err := m.pifDevice(pifID)
			if err != nil {
				return bundle{}, false, err
			}
			aggID := pif.Ref("agg_interface")
			if aggID == 0 {
				continue
			}
			switch dev {
			case a.ID:
				b.aAgg = aggID
			case z.ID:
				b.zAgg = aggID
			}
		}
	}
	if b.aAgg == 0 || b.zAgg == 0 {
		return bundle{}, false, fmt.Errorf("design: link group %s has no usable aggregated interfaces", lgs[0].String("name"))
	}
	return b, true, nil
}

// --- racks ---

// torASBase is the AS numbers' base of TORs a template gives none:
// rack n's TOR is AS torASBase + n.
const torASBase = 65500

// rackSpec is one rack to add to a cluster.
type rackSpec struct {
	n                 int    // the rack's number in the cluster
	scope             string // the cluster's name scope (clusterScope)
	siteID, clusterID int64
	torHW             int64
	torAS             int64
	addr              AddressingSpec
	uplinks           []deviceHandle
	uplinksPerTOR     int
	ebgp              bool
}

// uplink is the device the TOR's u-th uplink goes to: round-robin over
// the uplink devices, starting at the rack's number.
func (s rackSpec) uplink(u int) *deviceHandle {
	return &s.uplinks[(s.n+u)%len(s.uplinks)]
}

// rack adds a Rack row, its TOR, and the TOR's uplinks — 2-circuit
// bundles spread round-robin over the uplink devices — and returns the
// TOR's name.
func (m *designTx) rack(spec rackSpec) (string, error) {
	if _, err := m.Create("Rack", map[string]any{
		"name": fmt.Sprintf("rack%d.%s", spec.n, spec.scope), "cluster": spec.clusterID,
	}); err != nil {
		return "", err
	}
	tor, err := m.device(deviceName("tor", spec.n, spec.scope), "tor", spec.siteID, spec.clusterID, spec.torHW, spec.addr)
	if err != nil {
		return "", err
	}
	for u := 0; u < spec.uplinksPerTOR; u++ {
		up := spec.uplink(u)
		if err := m.portmap(portmapSpec{
			aDev: tor.id, zDev: up.id, aName: tor.name, zName: up.name,
			circuits: 2, v6: spec.addr.V6, v4: spec.addr.V4,
			ebgp: spec.ebgp, aAS: spec.torAS, zAS: up.as,
		}); err != nil {
			return "", err
		}
	}
	return tor.name, nil
}

// --- find-or-create ---

// ensure returns the id of the model's object whose field equals v,
// calling create for it when there is none. Run inside the transaction
// that creates the object, the check and the create are one step to any
// concurrent caller.
func ensure(m *fbnet.Mutation, model, field string, v any, create func() (int64, error)) (int64, error) {
	existing, err := m.Find(model, fbnet.Eq(field, v))
	if err != nil {
		return 0, err
	}
	if len(existing) > 0 {
		return existing[0].ID, nil
	}
	return create()
}
