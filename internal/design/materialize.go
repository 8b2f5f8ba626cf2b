package design

import (
	"fmt"

	"github.com/robotron-net/robotron/internal/fbnet"
)

// BuildResult describes a materialized cluster.
type BuildResult struct {
	ChangeResult
	ClusterID   int64
	DeviceNames []string // every device built, the racks' TORs last
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
	mtu          int64
}

// createPortmap realizes one portmap: an aggregated interface on each
// device, N physical interfaces per side grouped into it, a link group
// with N parallel circuits, point-to-point prefixes from the same subnet
// on both aggregates, and (optionally) an eBGP session over the bundle.
func createPortmap(m *fbnet.Mutation, pa *portAllocator, at *allocTracker, spec portmapSpec) error {
	if spec.aDev == spec.zDev {
		return fmt.Errorf("design: portmap endpoints must be distinct devices (%s)", spec.aName)
	}
	if spec.circuits <= 0 {
		return fmt.Errorf("design: portmap %s--%s needs at least one circuit", spec.aName, spec.zName)
	}
	mtu := spec.mtu
	if mtu == 0 {
		mtu = 9192
	}
	mkAgg := func(dev int64) (int64, string, error) {
		n, err := pa.nextAggNumber(dev)
		if err != nil {
			return 0, "", err
		}
		name := fmt.Sprintf("ae%d", n)
		id, err := m.Create("AggregatedInterface", map[string]any{
			"name": name, "number": n, "mtu": mtu, "device": dev,
		})
		return id, name, err
	}
	aAgg, _, err := mkAgg(spec.aDev)
	if err != nil {
		return err
	}
	zAgg, _, err := mkAgg(spec.zDev)
	if err != nil {
		return err
	}
	lgName := fmt.Sprintf("%s--%s", spec.aName, spec.zName)
	speed := int64(10000)
	if meta, err := pa.load(spec.aDev); err == nil {
		speed = meta.speedMbps
	}
	lg, err := m.Create("LinkGroup", map[string]any{
		"name": lgName, "a_device": spec.aDev, "z_device": spec.zDev,
		"capacity_mbps": speed * int64(spec.circuits),
	})
	if err != nil {
		return err
	}
	for i := 0; i < spec.circuits; i++ {
		aPif, aPifName, err := pa.allocPort(spec.aDev, aAgg)
		if err != nil {
			return err
		}
		zPif, zPifName, err := pa.allocPort(spec.zDev, zAgg)
		if err != nil {
			return err
		}
		if _, err := m.Create("Circuit", map[string]any{
			"circuit_id":  fmt.Sprintf("%s:%s--%s:%s", spec.aName, aPifName, spec.zName, zPifName),
			"a_interface": aPif, "z_interface": zPif,
			"link_group": lg, "status": "provisioning",
		}); err != nil {
			return err
		}
	}
	var zV6str string
	var aV6ID int64
	if spec.v6 {
		pp, err := at.p2p(true, lgName)
		if err != nil {
			return err
		}
		aV6ID, err = m.Create("V6Prefix", map[string]any{
			"prefix": pp.APrefix(), "interface": aAgg, "purpose": "p2p",
		})
		if err != nil {
			return err
		}
		if _, err := m.Create("V6Prefix", map[string]any{
			"prefix": pp.ZPrefix(), "interface": zAgg, "purpose": "p2p",
		}); err != nil {
			return err
		}
		zV6str = pp.Z.String()
	}
	var aV4ID int64
	var zV4str string
	if spec.v4 {
		pp, err := at.p2p(false, lgName)
		if err != nil {
			return err
		}
		aV4ID, err = m.Create("V4Prefix", map[string]any{
			"prefix": pp.APrefix(), "interface": aAgg, "purpose": "p2p",
		})
		if err != nil {
			return err
		}
		if _, err := m.Create("V4Prefix", map[string]any{
			"prefix": pp.ZPrefix(), "interface": zAgg, "purpose": "p2p",
		}); err != nil {
			return err
		}
		zV4str = pp.Z.String()
	}
	if spec.ebgp {
		if spec.v6 {
			if _, err := m.Create("BgpV6Session", map[string]any{
				"local_device": spec.aDev, "remote_device": spec.zDev,
				"local_prefix": aV6ID, "remote_addr": zV6str,
				"local_as": spec.aAS, "remote_as": spec.zAS,
				"session_type": "ebgp",
			}); err != nil {
				return err
			}
		}
		if spec.v4 {
			if _, err := m.Create("BgpV4Session", map[string]any{
				"local_device": spec.aDev, "remote_device": spec.zDev,
				"local_prefix": aV4ID, "remote_addr": zV4str,
				"local_as": spec.aAS, "remote_as": spec.zAS,
				"session_type": "ebgp",
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// BuildCluster materializes a topology template into FBNet objects as one
// atomic design change (§5.1.1): "Robotron constructs 2 BackboneRouter
// objects and 4 NetworkSwitch objects ... In total, 94 objects of various
// types are created in FBNet."
func (d *Designer) BuildCluster(ctx ChangeContext, siteName, clusterName string, tpl TopologyTemplate) (BuildResult, error) {
	if err := tpl.Validate(); err != nil {
		return BuildResult{}, err
	}
	var out BuildResult
	res, err := d.change(ctx, func(m *fbnet.Mutation, at *allocTracker) error {
		site, err := m.FindOne("Site", fbnet.Eq("name", siteName))
		if err != nil {
			return fmt.Errorf("design: unknown site %q: %w", siteName, err)
		}
		if existing, err := m.Find("Cluster", fbnet.Eq("name", clusterName)); err != nil {
			return err
		} else if len(existing) > 0 {
			return fmt.Errorf("design: cluster %q already exists", clusterName)
		}
		clusterID, err := m.Create("Cluster", map[string]any{
			"name": clusterName, "site": site.ID,
			"generation": tpl.Generation, "status": "provisioning",
		})
		if err != nil {
			return err
		}
		out.ClusterID = clusterID

		pa := newPortAllocator(m)
		scope := clusterScope(clusterName)
		devsByRole := map[string][]deviceHandle{}
		for _, ds := range tpl.Devices {
			hw, err := m.FindOne("HardwareProfile", fbnet.Eq("name", ds.HwProfile))
			if err != nil {
				return fmt.Errorf("design: unknown hardware profile %q: %w", ds.HwProfile, err)
			}
			for n := 1; n <= ds.Count; n++ {
				name := deviceName(ds.NamePrefix, n, scope)
				h, err := d.createDevice(m, at, name, ds.Role, site.ID, clusterID, hw.ID, tpl.Addressing)
				if err != nil {
					return err
				}
				if base, ok := tpl.Addressing.LocalASBase[ds.Role]; ok {
					h.as = base + int64(n)
				}
				devsByRole[ds.Role] = append(devsByRole[ds.Role], h)
				out.DeviceNames = append(out.DeviceNames, name)
			}
		}
		for _, ls := range tpl.Links {
			for _, a := range devsByRole[ls.ARole] {
				for _, z := range devsByRole[ls.ZRole] {
					if err := createPortmap(m, pa, at, portmapSpec{
						aDev: a.id, zDev: z.id, aName: a.name, zName: z.name,
						circuits: ls.CircuitsPerLink,
						v6:       tpl.Addressing.V6, v4: tpl.Addressing.V4,
						ebgp: ls.EBGP, aAS: a.as, zAS: z.as,
					}); err != nil {
						return err
					}
				}
			}
		}
		if tpl.Racks > 0 {
			if err := d.buildRacks(m, pa, at, site.ID, clusterID, scope, tpl, devsByRole, &out.DeviceNames); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return BuildResult{}, err
	}
	out.ChangeResult = res
	return out, nil
}

type deviceHandle struct {
	id   int64
	name string
	as   int64
}

// createDevice creates a device plus loopbacks per the addressing spec.
func (d *Designer) createDevice(m *fbnet.Mutation, at *allocTracker, name, role string, siteID, clusterID, hwID int64, addr AddressingSpec) (deviceHandle, error) {
	fields := map[string]any{
		"name": name, "role": role, "site": siteID,
		"hw_profile": hwID, "drain_state": "drained",
	}
	if clusterID != 0 {
		fields["cluster"] = clusterID
	}
	if addr.V6 {
		lo, err := at.loopback(true, name)
		if err != nil {
			return deviceHandle{}, err
		}
		fields["loopback_v6"] = lo.String()
	}
	if addr.V4 {
		lo, err := at.loopback(false, name)
		if err != nil {
			return deviceHandle{}, err
		}
		fields["loopback_v4"] = lo.String()
	}
	id, err := m.Create("Device", fields)
	if err != nil {
		return deviceHandle{}, err
	}
	return deviceHandle{id: id, name: name}, nil
}

// buildRacks adds server racks, one TOR each, uplinked to the template's
// uplink role round-robin, and appends the TORs' names to names.
func (d *Designer) buildRacks(m *fbnet.Mutation, pa *portAllocator, at *allocTracker, siteID, clusterID int64, scope string, tpl TopologyTemplate, devsByRole map[string][]deviceHandle, names *[]string) error {
	hw, err := m.FindOne("HardwareProfile", fbnet.Eq("name", tpl.RackTORProfle))
	if err != nil {
		return fmt.Errorf("design: unknown TOR hardware profile %q: %w", tpl.RackTORProfle, err)
	}
	uplinks := devsByRole[tpl.UplinkRole]
	if len(uplinks) == 0 {
		return fmt.Errorf("design: no %s devices to uplink racks to", tpl.UplinkRole)
	}
	torAS := tpl.Addressing.LocalASBase["tor"]
	if torAS == 0 {
		torAS = 65500
	}
	for r := 1; r <= tpl.Racks; r++ {
		rackName := fmt.Sprintf("rack%d.%s", r, scope)
		if _, err := m.Create("Rack", map[string]any{"name": rackName, "cluster": clusterID}); err != nil {
			return err
		}
		torName := deviceName("tor", r, scope)
		tor, err := d.createDevice(m, at, torName, "tor", siteID, clusterID, hw.ID, tpl.Addressing)
		if err != nil {
			return err
		}
		tor.as = torAS + int64(r)
		// Spread UplinksPerTOR single-circuit bundles across uplink devices.
		for u := 0; u < tpl.UplinksPerTOR; u++ {
			up := uplinks[(r+u)%len(uplinks)]
			if err := createPortmap(m, pa, at, portmapSpec{
				aDev: tor.id, zDev: up.id,
				aName: tor.name, zName: up.name,
				circuits: 2,
				v6:       tpl.Addressing.V6, v4: tpl.Addressing.V4,
				ebgp: hasEBGPToRole(tpl, tpl.UplinkRole), aAS: tor.as, zAS: up.as,
			}); err != nil {
				return err
			}
		}
		*names = append(*names, torName)
	}
	return nil
}

// deviceAS recovers a device's AS number from any BGP session it already
// participates in, falling back to def.
func deviceAS(m *fbnet.Mutation, devID, def int64) int64 {
	for _, model := range []string{"BgpV6Session", "BgpV4Session"} {
		if ss, err := m.Referencing(model, "local_device", devID); err == nil && len(ss) > 0 {
			if as := ss[0].Int("local_as"); as != 0 {
				return as
			}
		}
		if ss, err := m.Referencing(model, "remote_device", devID); err == nil && len(ss) > 0 {
			if as := ss[0].Int("remote_as"); as != 0 {
				return as
			}
		}
	}
	return def
}

// hasEBGPToRole reports whether any link spec to the role uses eBGP; rack
// uplinks inherit the fabric's routing design.
func hasEBGPToRole(tpl TopologyTemplate, role string) bool {
	for _, ls := range tpl.Links {
		if (ls.ARole == role || ls.ZRole == role) && ls.EBGP {
			return true
		}
	}
	return false
}

// AddRack grows a production cluster by one rack: a Rack object, a TOR
// device, and uplinks to the cluster's uplink tier — "cluster capacity
// upgrade [is] among the most common management tasks happening in DCs"
// (§2.2). Uplink parameters mirror the cluster's existing racks.
func (d *Designer) AddRack(ctx ChangeContext, clusterName, torProfile, uplinkRole string, uplinksPerTOR int, v6, v4 bool) (ChangeResult, error) {
	if uplinksPerTOR <= 0 {
		return ChangeResult{}, fmt.Errorf("design: uplinks per TOR must be positive")
	}
	return d.change(ctx, func(m *fbnet.Mutation, at *allocTracker) error {
		cluster, err := m.FindOne("Cluster", fbnet.Eq("name", clusterName))
		if err != nil {
			return err
		}
		hw, err := m.FindOne("HardwareProfile", fbnet.Eq("name", torProfile))
		if err != nil {
			return err
		}
		racks, err := m.Referencing("Rack", "cluster", cluster.ID)
		if err != nil {
			return err
		}
		n := len(racks) + 1
		scope := clusterScope(clusterName)
		rackName := fmt.Sprintf("rack%d.%s", n, scope)
		if _, err := m.Create("Rack", map[string]any{"name": rackName, "cluster": cluster.ID}); err != nil {
			return err
		}
		uplinks, err := m.Find("Device", fbnet.And(
			fbnet.Eq("cluster", cluster.ID), fbnet.Eq("role", uplinkRole)))
		if err != nil {
			return err
		}
		if len(uplinks) == 0 {
			return fmt.Errorf("design: cluster %s has no %s devices to uplink to", clusterName, uplinkRole)
		}
		tor, err := d.createDevice(m, at, deviceName("tor", n, scope), "tor",
			cluster.Ref("site"), cluster.ID, hw.ID, AddressingSpec{V6: v6, V4: v4})
		if err != nil {
			return err
		}
		tor.as = 65500 + int64(n)
		pa := newPortAllocator(m)
		for u := 0; u < uplinksPerTOR; u++ {
			up := uplinks[(n+u)%len(uplinks)]
			if err := createPortmap(m, pa, at, portmapSpec{
				aDev: tor.id, zDev: up.ID,
				aName: tor.name, zName: up.String("name"),
				circuits: 2, v6: v6, v4: v4,
				ebgp: true, aAS: tor.as, zAS: deviceAS(m, up.ID, 64700),
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// DecommissionCluster deletes a cluster and everything in it as one design
// change, returning allocated prefixes to the pools. This is how DC
// architecture shifts retire previous generations (§6, Fig. 12).
func (d *Designer) DecommissionCluster(ctx ChangeContext, clusterName string) (ChangeResult, error) {
	return d.change(ctx, func(m *fbnet.Mutation, at *allocTracker) error {
		cluster, err := m.FindOne("Cluster", fbnet.Eq("name", clusterName))
		if err != nil {
			return err
		}
		// Free the cluster devices' prefixes after commit.
		devs, err := m.Referencing("Device", "cluster", cluster.ID)
		if err != nil {
			return err
		}
		for _, dev := range devs {
			for _, f := range []string{"loopback_v6", "loopback_v4"} {
				if s := dev.String(f); s != "" {
					at.free(s)
				}
			}
			aggs, err := m.Referencing("AggregatedInterface", "device", dev.ID)
			if err != nil {
				return err
			}
			for _, agg := range aggs {
				for _, pm := range []string{"V6Prefix", "V4Prefix"} {
					pfxs, err := m.Referencing(pm, "interface", agg.ID)
					if err != nil {
						return err
					}
					for _, p := range pfxs {
						// p2p subnets are shared by both sides; freeing is
						// idempotent per subnet since Free fails silently
						// via the tracker on the second attempt.
						at.free(p.String("prefix"))
					}
				}
			}
		}
		return m.Delete("Cluster", cluster.ID)
	})
}
