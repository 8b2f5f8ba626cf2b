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

// BuildCluster materializes a topology template into FBNet objects as one
// atomic design change (§5.1.1): "Robotron constructs 2 BackboneRouter
// objects and 4 NetworkSwitch objects ... In total, 94 objects of various
// types are created in FBNet."
func (d *Designer) BuildCluster(ctx ChangeContext, siteName, clusterName string, tpl TopologyTemplate) (BuildResult, error) {
	if err := tpl.Validate(); err != nil {
		return BuildResult{}, err
	}
	var out BuildResult
	res, err := d.change(ctx, func(m *designTx) error {
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

		scope := clusterScope(clusterName)
		devsByRole := map[string][]deviceHandle{}
		for _, ds := range tpl.Devices {
			hw, err := m.FindOne("HardwareProfile", fbnet.Eq("name", ds.HwProfile))
			if err != nil {
				return fmt.Errorf("design: unknown hardware profile %q: %w", ds.HwProfile, err)
			}
			for n := 1; n <= ds.Count; n++ {
				name := deviceName(ds.NamePrefix, n, scope)
				h, err := m.device(name, ds.Role, site.ID, clusterID, hw.ID, tpl.Addressing)
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
					if err := m.portmap(portmapSpec{
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
		if tpl.Racks <= 0 {
			return nil
		}
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
			torAS = torASBase
		}
		for r := 1; r <= tpl.Racks; r++ {
			tor, err := m.rack(rackSpec{
				n: r, scope: scope, siteID: site.ID, clusterID: clusterID,
				torHW: hw.ID, torAS: torAS + int64(r), addr: tpl.Addressing,
				uplinks: uplinks, uplinksPerTOR: tpl.UplinksPerTOR,
				ebgp: hasEBGPToRole(tpl, tpl.UplinkRole),
			})
			if err != nil {
				return err
			}
			out.DeviceNames = append(out.DeviceNames, tor)
		}
		return nil
	})
	if err != nil {
		return BuildResult{}, err
	}
	out.ChangeResult = res
	return out, nil
}

// deviceAS recovers a device's AS number from any BGP session it already
// participates in, falling back to def. It reads the lowest-id session of
// each kind, one row, not every session of the device.
func deviceAS(m *fbnet.Mutation, devID, def int64) int64 {
	for _, model := range []string{"BgpV6Session", "BgpV4Session"} {
		for _, side := range [2][2]string{{"local_device", "local_as"}, {"remote_device", "remote_as"}} {
			ids, err := m.ReferencingIDs(model, side[0], devID)
			if err != nil || len(ids) == 0 {
				continue
			}
			if s, err := m.Get(model, ids[0]); err == nil && s.Int(side[1]) != 0 {
				return s.Int(side[1])
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
	return d.change(ctx, func(m *designTx) error {
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
		devs, err := m.Find("Device", fbnet.And(
			fbnet.Eq("cluster", cluster.ID), fbnet.Eq("role", uplinkRole)))
		if err != nil {
			return err
		}
		if len(devs) == 0 {
			return fmt.Errorf("design: cluster %s has no %s devices to uplink to", clusterName, uplinkRole)
		}
		uplinks := make([]deviceHandle, len(devs))
		for i, up := range devs {
			uplinks[i] = deviceHandle{id: up.ID, name: up.String("name")}
		}
		n := len(racks) + 1
		spec := rackSpec{
			n: n, scope: clusterScope(clusterName), siteID: cluster.Ref("site"), clusterID: cluster.ID,
			torHW: hw.ID, torAS: torASBase + int64(n), addr: AddressingSpec{V6: v6, V4: v4},
			uplinks: uplinks, uplinksPerTOR: uplinksPerTOR, ebgp: true,
		}
		for u := 0; u < uplinksPerTOR; u++ {
			up := spec.uplink(u)
			up.as = deviceAS(m.Mutation, up.id, 64700)
		}
		_, err = m.rack(spec)
		return err
	})
}

// DecommissionCluster deletes a cluster and everything in it as one design
// change, returning allocated prefixes to the pools. This is how DC
// architecture shifts retire previous generations (§6, Fig. 12).
func (d *Designer) DecommissionCluster(ctx ChangeContext, clusterName string) (ChangeResult, error) {
	return d.change(ctx, func(m *designTx) error {
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
			if err := m.releaseDevice(dev); err != nil {
				return err
			}
		}
		return m.Delete("Cluster", cluster.ID)
	})
}
