package design

import (
	"fmt"
	"slices"
	"strings"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/vendorcfg"
)

// The backbone design tools (§5.1.2): the backbone "employs a constantly
// changing asymmetrical architecture"; changes are incremental router and
// circuit additions, migrations, and deletions. "A key challenge of
// supporting incremental changes is to resolve object dependency" — adding
// or removing a backbone router requires updating the iBGP mesh on all
// other edge routers; migrating a circuit requires deleting or
// re-associating interfaces, prefixes, and sessions on one router and
// creating them on the other. The tools below do exactly that, leaning on
// FBNet relationship fields (cascades and reverse connections) to find
// every dependent object.

// backboneASN is the private AS number of the backbone mesh.
const backboneASN = 64512

// meshRoles are device roles participating in the backbone iBGP full mesh.
func isMeshRole(role string) bool {
	return role == "pr" || role == "bb" || role == "dr"
}

// edgeRole reports whether a role is an MPLS-TE edge (tunnel head/tail).
func isEdgeRole(role string) bool { return role == "pr" || role == "dr" }

// AddBackboneRouter creates a backbone router with loopbacks, joins it to
// the iBGP full mesh (one session object per existing mesh member), and —
// for edge roles — establishes MPLS-TE tunnels to and from every other
// edge node.
func (d *Designer) AddBackboneRouter(ctx ChangeContext, name, siteName, hwProfile, role string) (ChangeResult, error) {
	if !isMeshRole(role) {
		return ChangeResult{}, fmt.Errorf("design: %q is not a backbone role (want pr, bb, or dr)", role)
	}
	return d.change(ctx, func(m *designTx) error {
		site, err := m.FindOne("Site", fbnet.Eq("name", siteName))
		if err != nil {
			return fmt.Errorf("design: unknown site %q: %w", siteName, err)
		}
		hw, err := m.FindOne("HardwareProfile", fbnet.Eq("name", hwProfile))
		if err != nil {
			return fmt.Errorf("design: unknown hardware profile %q: %w", hwProfile, err)
		}
		if existing, err := m.Find("Device", fbnet.Eq("name", name)); err != nil {
			return err
		} else if len(existing) > 0 {
			return fmt.Errorf("design: device %q already exists", name)
		}
		h, err := m.device(name, role, site.ID, 0, hw.ID, AddressingSpec{V6: true, V4: true})
		if err != nil {
			return err
		}
		newDev, err := m.Get("Device", h.id)
		if err != nil {
			return err
		}
		// Join the iBGP full mesh: one session object per existing member.
		members, err := m.Find("Device", fbnet.In("role", "pr", "bb", "dr"))
		if err != nil {
			return err
		}
		for _, peer := range members {
			if peer.ID == h.id {
				continue
			}
			peerLo := vendorcfg.Addr(peer.String("loopback_v6"))
			if peerLo == "" {
				continue // non-backbone PR without v6 loopback
			}
			if _, err := m.Create("BgpV6Session", map[string]any{
				"local_device": h.id, "remote_device": peer.ID,
				"remote_addr": peerLo,
				"local_as":    int64(backboneASN), "remote_as": int64(backboneASN),
				"session_type": "ibgp",
			}); err != nil {
				return err
			}
		}
		// MPLS-TE tunnel mesh between edge nodes, both directions.
		if isEdgeRole(role) {
			for _, peer := range members {
				if peer.ID == h.id || !isEdgeRole(peer.String("role")) {
					continue
				}
				for _, dir := range []struct{ head, tail fbnet.Object }{
					{newDev, peer}, {peer, newDev},
				} {
					if _, err := m.Create("MplsTunnel", map[string]any{
						"name":        fmt.Sprintf("te-%s--%s", dir.head.String("name"), dir.tail.String("name")),
						"head_device": dir.head.ID, "tail_device": dir.tail.ID,
						"bandwidth_mbps": int64(10000),
					}); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
}

// RemoveBackboneRouter deletes a backbone router. FBNet cascades remove
// its linecards, interfaces, circuits, link groups, tunnels, and — because
// BGP sessions reference both local and remote devices — the mesh sessions
// held by every other router toward it ("the device tool automatically
// handles deleting the corresponding FBNet router object and deleting or
// disassociating its related objects", §5.1.2).
func (d *Designer) RemoveBackboneRouter(ctx ChangeContext, name string) (ChangeResult, error) {
	return d.change(ctx, func(m *designTx) error {
		dev, err := m.FindOne("Device", fbnet.Eq("name", name))
		if err != nil {
			return err
		}
		if !isMeshRole(dev.String("role")) {
			return fmt.Errorf("design: %s is not a backbone router", name)
		}
		// Return this router's address space to the pools after commit.
		if err := m.releaseDevice(dev); err != nil {
			return err
		}
		// Resolve far-end dependencies before the cascade: every link
		// group terminating here also configured interfaces, aggregates,
		// and addresses on the *other* router; those objects must be
		// retired too or their now-freed subnets would linger on orphaned
		// prefixes (the "configuration changes to a large number of
		// nodes" the paper describes).
		for _, field := range []string{"a_device", "z_device"} {
			lgs, err := m.Referencing("LinkGroup", field, dev.ID)
			if err != nil {
				return err
			}
			for _, lg := range lgs {
				if err := retireFarEnd(m, lg, dev.ID); err != nil {
					return err
				}
			}
		}
		return m.Delete("Device", dev.ID)
	})
}

// retireFarEnd deletes the non-local interfaces, aggregates, and prefixes
// of a link group that is being destroyed because localDev is going away.
func retireFarEnd(m *designTx, lg fbnet.Object, localDev int64) error {
	circuits, err := m.Referencing("Circuit", "link_group", lg.ID)
	if err != nil {
		return err
	}
	farAggs := map[int64]bool{}
	var farPifs []int64
	for _, c := range circuits {
		for _, f := range []string{"a_interface", "z_interface"} {
			pifID := c.Ref(f)
			if pifID == 0 {
				continue
			}
			pif, dev, err := m.pifDevice(pifID)
			if err != nil {
				return err
			}
			if dev == localDev {
				continue
			}
			farPifs = append(farPifs, pifID)
			if aggID := pif.Ref("agg_interface"); aggID != 0 {
				farAggs[aggID] = true
			}
		}
	}
	// The link group goes first, and its circuits with it, so deleting a
	// far interface below clears no circuit end the delete then removes.
	if err := m.Delete("LinkGroup", lg.ID); err != nil {
		return err
	}
	for _, pifID := range farPifs {
		if err := m.Delete("PhysicalInterface", pifID); err != nil {
			return err
		}
	}
	aggIDs := make([]int64, 0, len(farAggs))
	for aggID := range farAggs {
		aggIDs = append(aggIDs, aggID)
	}
	slices.Sort(aggIDs) // id order: one delete logs the same entries on every run
	for _, aggID := range aggIDs {
		// Cascades the far side's prefix objects (same p2p subnets the
		// local side just freed) and any sessions over them.
		if err := m.Delete("AggregatedInterface", aggID); err != nil {
			return err
		}
	}
	return nil
}

// AddBackboneCircuit provisions circuits between two backbone routers:
// a new link group (with aggregated interfaces and point-to-point
// addressing on both ends) when none exists, or additional bundle members
// on the existing link group ("the generation and provisioning of IP
// interface configuration, including point-to-point addresses and bundle
// membership", §2.3).
func (d *Designer) AddBackboneCircuit(ctx ChangeContext, aName, zName string, circuits int) (ChangeResult, error) {
	if circuits <= 0 {
		return ChangeResult{}, fmt.Errorf("design: circuit count must be positive")
	}
	if aName == zName {
		return ChangeResult{}, fmt.Errorf("design: circuit endpoints must be distinct devices")
	}
	return d.change(ctx, func(m *designTx) error {
		a, err := m.FindOne("Device", fbnet.Eq("name", aName))
		if err != nil {
			return err
		}
		z, err := m.FindOne("Device", fbnet.Eq("name", zName))
		if err != nil {
			return err
		}
		b, found, err := m.findBundle(a, z)
		if err != nil {
			return err
		}
		if !found {
			return m.portmap(portmapSpec{
				aDev: a.ID, zDev: z.ID, aName: aName, zName: zName,
				circuits: circuits, v6: true, v4: true, ebgp: false,
			})
		}
		// Grow the existing bundle.
		if err := m.addMembers(b, circuits); err != nil {
			return err
		}
		existing, err := m.Referencing("Circuit", "link_group", b.lg)
		if err != nil {
			return err
		}
		return m.Update("LinkGroup", b.lg, map[string]any{
			"capacity_mbps": m.capacity(a.ID, len(existing)),
		})
	})
}

// MigrateCircuit moves the Z end of a circuit to a different router: the
// old Z-side interface, prefix, and aggregate are deleted, new ones are
// created on the target, and the point-to-point subnet is re-allocated so
// both ends stay in one subnet (§5.1.2's circuit migration example).
// Bundles must be shrunk to a single circuit before migration.
func (d *Designer) MigrateCircuit(ctx ChangeContext, circuitID, newZName string) (ChangeResult, error) {
	return d.change(ctx, func(m *designTx) error {
		cir, err := m.FindOne("Circuit", fbnet.Eq("circuit_id", circuitID))
		if err != nil {
			return err
		}
		newZ, err := m.FindOne("Device", fbnet.Eq("name", newZName))
		if err != nil {
			return err
		}
		lgID := cir.Ref("link_group")
		if lgID != 0 {
			siblings, err := m.Referencing("Circuit", "link_group", lgID)
			if err != nil {
				return err
			}
			if len(siblings) > 1 {
				return fmt.Errorf("design: circuit %s is part of a %d-circuit bundle; shrink the bundle before migrating", circuitID, len(siblings))
			}
		}
		aPifID, zPifID := cir.Ref("a_interface"), cir.Ref("z_interface")
		if aPifID == 0 || zPifID == 0 {
			return fmt.Errorf("design: circuit %s is not fully terminated", circuitID)
		}
		aPif, aDev, err := m.pifDevice(aPifID)
		if err != nil {
			return err
		}
		zPif, zDev, err := m.pifDevice(zPifID)
		if err != nil {
			return err
		}
		if zDev == newZ.ID {
			return fmt.Errorf("design: circuit %s already terminates on %s", circuitID, newZName)
		}
		aAggID := aPif.Ref("agg_interface")
		zAggID := zPif.Ref("agg_interface")

		// Free the old p2p subnets and remove old prefix objects from both
		// aggregates (new subnets will be allocated).
		old, err := m.releasePrefixes("p2p", aAggID, zAggID)
		if err != nil {
			return err
		}
		for _, p := range old {
			if err := m.Delete(p.Model, p.ID); err != nil {
				return err
			}
		}
		// Build the new Z side.
		newZAgg, err := m.aggregate(newZ.ID, bundleMTU)
		if err != nil {
			return err
		}
		newZPif, newZPifName, err := m.allocPort(newZ.ID, newZAgg)
		if err != nil {
			return err
		}
		// Re-address both ends from a fresh subnet per family.
		a, err := m.Get("Device", aDev)
		if err != nil {
			return err
		}
		owner := a.String("name") + "--" + newZName
		for _, fam := range families(true, true) {
			if _, _, err := m.addressPair(fam, owner, "p2p", aAggID, newZAgg); err != nil {
				return err
			}
		}
		// Re-point the circuit and retire the old Z-side objects.
		aEnd, _, _ := strings.Cut(circuitID, "--") // "<aDev>:<aPif>"
		if err := m.Update("Circuit", cir.ID, map[string]any{
			"z_interface": newZPif,
			"circuit_id":  fmt.Sprintf("%s--%s:%s", aEnd, newZName, newZPifName),
		}); err != nil {
			return err
		}
		if lgID != 0 {
			if err := m.Update("LinkGroup", lgID, map[string]any{
				"name":     owner,
				"z_device": newZ.ID,
			}); err != nil {
				return err
			}
		}
		if err := m.Delete("PhysicalInterface", zPif.ID); err != nil {
			return err
		}
		if zAggID != 0 {
			if err := m.Delete("AggregatedInterface", zAggID); err != nil {
				return err
			}
		}
		return nil
	})
}

// DeleteCircuit removes a circuit; when it was the last member of its link
// group, the whole bundle (link group, both aggregated interfaces, their
// prefixes and any sessions over them) is retired and the address space
// returned to the pools.
func (d *Designer) DeleteCircuit(ctx ChangeContext, circuitID string) (ChangeResult, error) {
	return d.change(ctx, func(m *designTx) error {
		cir, err := m.FindOne("Circuit", fbnet.Eq("circuit_id", circuitID))
		if err != nil {
			return err
		}
		aPifID, zPifID := cir.Ref("a_interface"), cir.Ref("z_interface")
		var aggIDs []int64
		for _, pifID := range []int64{aPifID, zPifID} {
			if pifID == 0 {
				continue
			}
			pif, err := m.Get("PhysicalInterface", pifID)
			if err != nil {
				return err
			}
			if aggID := pif.Ref("agg_interface"); aggID != 0 {
				aggIDs = append(aggIDs, aggID)
			}
		}
		lgID := cir.Ref("link_group")
		lastInBundle := true
		if lgID != 0 {
			siblings, err := m.Referencing("Circuit", "link_group", lgID)
			if err != nil {
				return err
			}
			lastInBundle = len(siblings) == 1
		}
		if err := m.Delete("Circuit", cir.ID); err != nil {
			return err
		}
		for _, pifID := range []int64{aPifID, zPifID} {
			if pifID != 0 {
				if err := m.Delete("PhysicalInterface", pifID); err != nil {
					return err
				}
			}
		}
		if lastInBundle {
			aggIDs = dedupe(aggIDs)
			if _, err := m.releasePrefixes("", aggIDs...); err != nil {
				return err
			}
			for _, aggID := range aggIDs {
				if err := m.Delete("AggregatedInterface", aggID); err != nil {
					return err
				}
			}
			if lgID != 0 {
				if err := m.Delete("LinkGroup", lgID); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func dedupe(ids []int64) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
