// Package design implements Robotron's network design stage (SIGCOMM '16,
// §5.1): translating high-level, human-specified designs into Desired
// FBNet objects.
//
// POP and DC clusters have standardized fat-tree architectures captured by
// topology templates (Fig. 7): device groups with hardware profiles, link
// groups connecting them, and an addressing scheme. Materializing a
// template creates all devices, linecards, interfaces, circuits, prefixes,
// and BGP sessions for the cluster in one atomic design change.
//
// The backbone, in contrast, evolves incrementally: the device and circuit
// design tools add/remove routers and add/migrate/delete circuits,
// resolving object dependencies (iBGP mesh membership, interface/prefix/
// session re-association) through FBNet's relationship fields (§5.1.2).
//
// Every operation writes FBNet through one vocabulary, designTx
// (write.go): devices, aggregates, bundle members, point-to-point address
// pairs, racks, and the release of addresses are each written there once.
// Every operation is recorded as a DesignChange with employee and ticket
// IDs; the change's created/modified/deleted object counts, taken from the
// committing transaction, are the quantity reported in the paper's
// Figure 15 and the Stats of its ChangeResult.
package design

import (
	"fmt"
)

// DeviceSpec declares one group of identical devices in a template.
type DeviceSpec struct {
	Role       string // pr, bb, dr, psw, fsw, tor
	Count      int
	HwProfile  string // HardwareProfile name; must exist in FBNet
	NamePrefix string // device names become <NamePrefix><n>.<cluster>
}

// LinkSpec declares full-mesh connectivity between two device groups:
// every (A, Z) pair gets one link group of CircuitsPerLink parallel
// circuits (the paper's "each (PR, PSW) pair is connected by a link bundle
// with 2 circuits").
type LinkSpec struct {
	ARole           string
	ZRole           string
	CircuitsPerLink int
	// EBGP establishes an eBGP session per link group over its p2p subnet.
	EBGP bool
}

// AddressingSpec selects the address families provisioned on link bundles.
type AddressingSpec struct {
	V6 bool
	V4 bool
	// LocalASBase assigns private ASNs per role for eBGP fabrics
	// (RFC 7938-style); 0 disables.
	LocalASBase map[string]int64
}

// TopologyTemplate is the Fig. 7 artifact: a reusable cluster design.
type TopologyTemplate struct {
	Name       string
	Generation string // e.g. "pop-gen1", "dc-gen3"
	Devices    []DeviceSpec
	Links      []LinkSpec
	Addressing AddressingSpec
	// Racks adds server racks with TOR switches: Racks TORs are cabled to
	// every device of UplinkRole with UplinksPerTOR circuits total.
	Racks         int
	RackTORProfle string
	UplinkRole    string
	UplinksPerTOR int
}

// Validate checks the template against design rules before any FBNet
// object is touched: "one could specify incomplete and incorrect designs
// like missing or incorrect device and link specification in the template"
// (§5.1.3).
func (t *TopologyTemplate) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("design: template name must not be empty")
	}
	roles := map[string]int{}
	for _, ds := range t.Devices {
		if ds.Count <= 0 {
			return fmt.Errorf("design: template %s: device group %s has non-positive count %d", t.Name, ds.Role, ds.Count)
		}
		if ds.HwProfile == "" {
			return fmt.Errorf("design: template %s: device group %s is missing a hardware profile", t.Name, ds.Role)
		}
		if ds.NamePrefix == "" {
			return fmt.Errorf("design: template %s: device group %s is missing a name prefix", t.Name, ds.Role)
		}
		if _, dup := roles[ds.Role]; dup {
			return fmt.Errorf("design: template %s: duplicate device group for role %s", t.Name, ds.Role)
		}
		roles[ds.Role] = ds.Count
	}
	if len(roles) == 0 {
		return fmt.Errorf("design: template %s: no device groups", t.Name)
	}
	for _, ls := range t.Links {
		if _, ok := roles[ls.ARole]; !ok {
			return fmt.Errorf("design: template %s: link spec references missing role %q", t.Name, ls.ARole)
		}
		if _, ok := roles[ls.ZRole]; !ok {
			return fmt.Errorf("design: template %s: link spec references missing role %q", t.Name, ls.ZRole)
		}
		if ls.ARole == ls.ZRole {
			return fmt.Errorf("design: template %s: link spec connects role %q to itself", t.Name, ls.ARole)
		}
		if ls.CircuitsPerLink <= 0 {
			return fmt.Errorf("design: template %s: link %s-%s has non-positive circuit count", t.Name, ls.ARole, ls.ZRole)
		}
	}
	if !t.Addressing.V4 && !t.Addressing.V6 {
		return fmt.Errorf("design: template %s: at least one address family required", t.Name)
	}
	if t.Racks > 0 {
		if t.RackTORProfle == "" {
			return fmt.Errorf("design: template %s: racks declared without a TOR hardware profile", t.Name)
		}
		if _, ok := roles[t.UplinkRole]; !ok {
			return fmt.Errorf("design: template %s: rack uplink role %q not in template", t.Name, t.UplinkRole)
		}
		if t.UplinksPerTOR <= 0 {
			return fmt.Errorf("design: template %s: non-positive uplinks per TOR", t.Name)
		}
	}
	return nil
}

// --- the standard architecture generations (Fig. 12) ---

// POPGen1 is the paper's 4-post POP cluster (Fig. 2, Fig. 7): 2 PRs, 4
// PSWs, each (PR, PSW) pair bundled with 2 circuits, eBGP over IPv6.
// Materializing it creates the paper's 94 objects of the Fig. 7 types
// (6 devices + 8 portmaps × (2 circuits + 4 physical interfaces + 2
// aggregated interfaces + 2 prefixes + 1 BGP session)).
func POPGen1() TopologyTemplate {
	return TopologyTemplate{
		Name:       "pop-4post",
		Generation: "pop-gen1",
		Devices: []DeviceSpec{
			{Role: "pr", Count: 2, HwProfile: "Router_Vendor1", NamePrefix: "pr"},
			{Role: "psw", Count: 4, HwProfile: "Switch_Vendor2", NamePrefix: "psw"},
		},
		Links: []LinkSpec{
			{ARole: "pr", ZRole: "psw", CircuitsPerLink: 2, EBGP: true},
		},
		Addressing: AddressingSpec{
			V6:          true,
			LocalASBase: map[string]int64{"pr": 65000, "psw": 65100},
		},
	}
}

// POPGen2 is the merged, larger POP generation: 4 PRs, 8 PSWs, 4-circuit
// bundles.
func POPGen2() TopologyTemplate {
	return TopologyTemplate{
		Name:       "pop-8post",
		Generation: "pop-gen2",
		Devices: []DeviceSpec{
			{Role: "pr", Count: 4, HwProfile: "Router_Vendor1", NamePrefix: "pr"},
			{Role: "psw", Count: 8, HwProfile: "Switch_Vendor2", NamePrefix: "psw"},
		},
		Links: []LinkSpec{
			{ARole: "pr", ZRole: "psw", CircuitsPerLink: 4, EBGP: true},
		},
		Addressing: AddressingSpec{
			V6: true, V4: true,
			LocalASBase: map[string]int64{"pr": 65000, "psw": 65100},
		},
	}
}

// DCGen1 is the L2 cluster generation: 4 DRs and 16 TOR-facing FSWs, no
// BGP in the fabric (pre-"Gen2 L3 BGP" transition, §6.1), v4 only.
func DCGen1(racks int) TopologyTemplate {
	return TopologyTemplate{
		Name:       "dc-gen1-l2",
		Generation: "dc-gen1",
		Devices: []DeviceSpec{
			{Role: "dr", Count: 4, HwProfile: "Router_Vendor2", NamePrefix: "dr"},
			{Role: "fsw", Count: 16, HwProfile: "Switch_Vendor1", NamePrefix: "fsw"},
		},
		Links: []LinkSpec{
			{ARole: "dr", ZRole: "fsw", CircuitsPerLink: 1},
		},
		Addressing:    AddressingSpec{V4: true},
		Racks:         racks,
		RackTORProfle: "TOR_Vendor1",
		UplinkRole:    "fsw",
		UplinksPerTOR: 2,
	}
}

// DCGen2 is the L3 BGP cluster generation: dual-stack eBGP fabric.
func DCGen2(racks int) TopologyTemplate {
	return TopologyTemplate{
		Name:       "dc-gen2-bgp",
		Generation: "dc-gen2",
		Devices: []DeviceSpec{
			{Role: "dr", Count: 4, HwProfile: "Router_Vendor2", NamePrefix: "dr"},
			{Role: "fsw", Count: 16, HwProfile: "Switch_Vendor1", NamePrefix: "fsw"},
		},
		Links: []LinkSpec{
			{ARole: "dr", ZRole: "fsw", CircuitsPerLink: 4, EBGP: true},
		},
		Addressing: AddressingSpec{
			V6: true, V4: true,
			LocalASBase: map[string]int64{"dr": 64600, "fsw": 64700},
		},
		Racks:         racks,
		RackTORProfle: "TOR_Vendor1",
		UplinkRole:    "fsw",
		UplinksPerTOR: 2,
	}
}

// DCGen3 is the IPv6-only generation, forced by "the exhaustion of the
// private IPv4 address space" (§6).
func DCGen3(racks int) TopologyTemplate {
	return TopologyTemplate{
		Name:       "dc-gen3-v6only",
		Generation: "dc-gen3",
		Devices: []DeviceSpec{
			{Role: "dr", Count: 4, HwProfile: "Router_Vendor2", NamePrefix: "dr"},
			{Role: "ssw", Count: 4, HwProfile: "Switch_Vendor2", NamePrefix: "ssw"},
			{Role: "fsw", Count: 16, HwProfile: "Switch_Vendor1", NamePrefix: "fsw"},
		},
		Links: []LinkSpec{
			{ARole: "dr", ZRole: "ssw", CircuitsPerLink: 4, EBGP: true},
			{ARole: "ssw", ZRole: "fsw", CircuitsPerLink: 2, EBGP: true},
		},
		Addressing: AddressingSpec{
			V6:          true,
			LocalASBase: map[string]int64{"dr": 64600, "ssw": 64650, "fsw": 64700},
		},
		Racks:         racks,
		RackTORProfle: "TOR_Vendor1",
		UplinkRole:    "fsw",
		UplinksPerTOR: 4,
	}
}
