package verify

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/ipam"
)

// The design-rule differential. The design tool used to carry its own rule
// checker (§5.1.3's "rules to automatically validate objects"), a second
// judge of the intent the gate already judges. The gate's stored checks
// took its rules over; the checker lives on below, verbatim, as the oracle
// that says they did.

// designViolation is one detected design-rule violation.
type designViolation struct {
	Rule   string
	Model  string
	ID     int64
	Detail string
}

// validateDesign checks the cross-object design rules over the entire
// Desired state and returns all violations found.
func validateDesign(store *fbnet.Store) ([]designViolation, error) {
	var out []designViolation
	add := func(rule, model string, id int64, format string, args ...any) {
		out = append(out, designViolation{Rule: rule, Model: model, ID: id, Detail: fmt.Sprintf(format, args...)})
	}

	// Rule: every non-decommissioned circuit terminates at two physical
	// interfaces on two distinct devices.
	circuits, err := store.Find("Circuit", fbnet.Ne("status", "decommissioned"))
	if err != nil {
		return nil, err
	}
	pifDevice := func(pifID int64) (int64, error) {
		pif, err := store.GetByID("PhysicalInterface", pifID)
		if err != nil {
			return 0, err
		}
		lc, err := store.GetByID("Linecard", pif.Ref("linecard"))
		if err != nil {
			return 0, err
		}
		return lc.Ref("device"), nil
	}
	for _, c := range circuits {
		a, z := c.Ref("a_interface"), c.Ref("z_interface")
		if a == 0 || z == 0 {
			add("circuit-endpoints", "Circuit", c.ID, "circuit %s is missing an endpoint", c.String("circuit_id"))
			continue
		}
		if a == z {
			add("circuit-endpoints", "Circuit", c.ID, "circuit %s has duplicate endpoints", c.String("circuit_id"))
			continue
		}
		aDev, err := pifDevice(a)
		if err != nil {
			return nil, err
		}
		zDev, err := pifDevice(z)
		if err != nil {
			return nil, err
		}
		if aDev == zDev {
			add("circuit-endpoints", "Circuit", c.ID, "circuit %s terminates twice on device %d", c.String("circuit_id"), aDev)
		}
	}

	// Rule: the two p2p prefixes of a link group belong to one subnet
	// ("point-to-point IP addresses of a circuit are rejected if they
	// belong to different subnets", §1).
	lgs, err := store.Find("LinkGroup", nil)
	if err != nil {
		return nil, err
	}
	for _, lg := range lgs {
		for _, pm := range []string{"V6Prefix", "V4Prefix"} {
			aPfx, err := linkGroupSidePrefixes(store, lg, pm, "a_device")
			if err != nil {
				return nil, err
			}
			zPfx, err := linkGroupSidePrefixes(store, lg, pm, "z_device")
			if err != nil {
				return nil, err
			}
			// One-sided addressing leaves the pair loop below with zero
			// pairs, so it must be rejected explicitly: a bundle with a
			// p2p address on only one end is exactly the misconfiguration
			// this rule exists for, not a vacuous pass.
			if (len(aPfx) == 0) != (len(zPfx) == 0) {
				add("p2p-same-subnet", "LinkGroup", lg.ID,
					"%s has %s p2p addressing on only one side (a=%d, z=%d prefixes)",
					lg.String("name"), pm, len(aPfx), len(zPfx))
			}
			for _, ap := range aPfx {
				for _, zp := range zPfx {
					if ap.Bits() != zp.Bits() || !ipam.SameSubnet(ap.Addr(), zp.Addr(), ap.Bits()) {
						add("p2p-same-subnet", "LinkGroup", lg.ID,
							"%s endpoints %s and %s are in different subnets", lg.String("name"), ap, zp)
					}
				}
			}
		}
	}

	// Rule: BGP sessions connect distinct devices, and iBGP peers share
	// one AS while eBGP peers do not ("proper configuration must exist in
	// both peers of every iBGP session", §1).
	for _, model := range []string{"BgpV6Session", "BgpV4Session"} {
		sessions, err := store.Find(model, nil)
		if err != nil {
			return nil, err
		}
		prefixModel := "V6Prefix"
		if model == "BgpV4Session" {
			prefixModel = "V4Prefix"
		}
		for _, s := range sessions {
			if s.Ref("local_device") != 0 && s.Ref("local_device") == s.Ref("remote_device") {
				add("bgp-distinct-peers", model, s.ID, "session peers with itself")
			}
			switch s.String("session_type") {
			case "ibgp":
				if s.Int("local_as") != s.Int("remote_as") {
					add("bgp-as-match", model, s.ID, "iBGP session with mismatched AS %d != %d",
						s.Int("local_as"), s.Int("remote_as"))
				}
			case "ebgp":
				if s.Int("local_as") == s.Int("remote_as") {
					add("bgp-as-match", model, s.ID, "eBGP session within one AS %d", s.Int("local_as"))
				}
			}
			// Rule: the session's local_prefix is addressed on an interface
			// of its *local* device. The old checks inspected only session-
			// level fields, so a session sourcing from another device's
			// subnet — unconfigurable on the box — passed validation.
			if pfxID := s.Ref("local_prefix"); pfxID != 0 && s.Ref("local_device") != 0 {
				pfx, err := store.GetByID(prefixModel, pfxID)
				if err != nil {
					return nil, err
				}
				aggID := pfx.Ref("interface")
				if aggID == 0 {
					add("bgp-local-prefix", model, s.ID,
						"local_prefix %s is not bound to any interface", pfx.String("prefix"))
				} else {
					agg, err := store.GetByID("AggregatedInterface", aggID)
					if err != nil {
						return nil, err
					}
					if agg.Ref("device") != s.Ref("local_device") {
						add("bgp-local-prefix", model, s.ID,
							"local_prefix %s lives on interface %s of device %d, not the session's local device %d",
							pfx.String("prefix"), agg.String("name"), agg.Ref("device"), s.Ref("local_device"))
					}
				}
			}
		}
	}

	// Rule: backbone mesh completeness — every pair of mesh-role devices
	// has an iBGP session object (in either direction). Cluster-resident
	// PRs/DRs (cluster field set) run the cluster's eBGP fabric instead
	// and are exempt.
	meshDevs, err := store.Find("Device", fbnet.And(
		fbnet.In("role", "pr", "bb", "dr"),
		fbnet.IsNull("cluster"),
	))
	if err != nil {
		return nil, err
	}
	ibgp, err := store.Find("BgpV6Session", fbnet.Eq("session_type", "ibgp"))
	if err != nil {
		return nil, err
	}
	havePair := map[[2]int64]bool{}
	for _, s := range ibgp {
		l, r := s.Ref("local_device"), s.Ref("remote_device")
		havePair[[2]int64{l, r}] = true
		havePair[[2]int64{r, l}] = true
	}
	for i := range meshDevs {
		for j := i + 1; j < len(meshDevs); j++ {
			a, b := meshDevs[i], meshDevs[j]
			if a.String("loopback_v6") == "" || b.String("loopback_v6") == "" {
				continue
			}
			if !havePair[[2]int64{a.ID, b.ID}] {
				add("ibgp-full-mesh", "Device", a.ID, "no iBGP session between %s and %s",
					a.String("name"), b.String("name"))
			}
		}
	}
	return out, nil
}

// linkGroupSidePrefixes collects the p2p prefixes configured on the
// aggregated interfaces of one side of a link group.
func linkGroupSidePrefixes(store *fbnet.Store, lg fbnet.Object, prefixModel, sideField string) ([]netip.Prefix, error) {
	devID := lg.Ref(sideField)
	circuits, err := store.DB().Referencing("Circuit", "link_group", lg.ID)
	if err != nil {
		return nil, err
	}
	aggSeen := map[int64]bool{}
	var out []netip.Prefix
	for _, cid := range circuits {
		c, err := store.GetByID("Circuit", cid)
		if err != nil {
			return nil, err
		}
		for _, f := range []string{"a_interface", "z_interface"} {
			pifID := c.Ref(f)
			if pifID == 0 {
				continue
			}
			pif, err := store.GetByID("PhysicalInterface", pifID)
			if err != nil {
				return nil, err
			}
			lc, err := store.GetByID("Linecard", pif.Ref("linecard"))
			if err != nil {
				return nil, err
			}
			if lc.Ref("device") != devID {
				continue
			}
			aggID := pif.Ref("agg_interface")
			if aggID == 0 || aggSeen[aggID] {
				continue
			}
			aggSeen[aggID] = true
			pfxIDs, err := store.DB().Referencing(prefixModel, "interface", aggID)
			if err != nil {
				return nil, err
			}
			for _, pid := range pfxIDs {
				p, err := store.GetByID(prefixModel, pid)
				if err != nil {
					return nil, err
				}
				if p.String("purpose") != "p2p" {
					continue
				}
				pfx, err := netip.ParsePrefix(p.String("prefix"))
				if err != nil {
					return nil, fmt.Errorf("design: stored prefix %q is invalid: %w", p.String("prefix"), err)
				}
				out = append(out, pfx)
			}
		}
	}
	return out, nil
}

// readers returns the link groups the oracle reads the bundle's prefixes
// through: those with a circuit ending on a port of the bundle that sits on
// one of the link group's two devices.
func readers(m *model, store *fbnet.Store, agg int64) []int64 {
	var lgs []int64
	for _, c := range m.circs {
		g := m.groups[c.group]
		for _, end := range []int64{c.a, c.z} {
			if dev := m.portDev(end); end != 0 && (dev == g.a || dev == g.z) {
				if pif, err := store.GetByID("PhysicalInterface", end); err == nil && pif.Ref("agg_interface") == agg {
					lgs = append(lgs, c.group)
				}
			}
		}
	}
	return lgs
}

// offGroup reports whether an end of the circuit is on neither device of
// its link group: the oracle reads a link group's ends only where they
// meet its devices.
func offGroup(m *model, id int64) bool {
	c := m.circs[id]
	g, ok := m.groups[c.group]
	on := func(port int64) bool { dev := m.portDev(port); return dev == g.a || dev == g.z }
	return ok && (!on(c.a) || !on(c.z))
}

// designSteps are the history steps that write what the design tools (and
// monitoring) write; every other step is a raw write no design tool makes.
var designSteps = map[string]bool{
	"add-rack": true, "add-circuit": true, "migrate-circuit": true, "delete-circuit": true,
	"add-mesh-router": true, "remove-mesh-router": true, "derived-writes": true,
}

// TestGateCoversDesignRules: after every step of 200 seeded histories, the
// gate's verdict on the design alone (Check(nil)) answers for every finding
// of the oracle — the same object for a circuit, session or device, some
// finding for a link group, which the gate judges subnet by subnet — and
// the stored checks that took the oracle's rules over (the full mesh,
// circuit shape, one p2p prefix per bundle and family) flag only objects
// the oracle blames. The exceptions are what the oracle cannot see: a
// circuit end off its link group's devices, and a bundle no link group
// reads. Only raw writes no design tool makes (a linecard moved to another
// device, a link group re-pointed, a device deleted from under its far-end
// bundles) reach those, so no design the design tools produce is newly
// rejected.
func TestGateCoversDesignRules(t *testing.T) {
	histories, length := 200, 30
	if testing.Short() {
		histories = 20
	}
	type object struct {
		model string
		id    int64
	}
	fired := map[string]int{} // states in which each oracle rule fires
	states, unparsed, unseen := 0, 0, 0
	for seed := int64(1); seed <= int64(histories); seed++ {
		h := newHistory(t, seed)
		c := NewChecker(h.store, nil, nil)
		raw := false // a raw write has committed in this history
		compare := func(step string) {
			t.Helper()
			want, err := validateDesign(h.store)
			if err != nil {
				unparsed++ // a stored prefix the oracle cannot parse; checkPrefix flags it
				return
			}
			got, err := c.Check(nil)
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			states++
			flagged := map[object]bool{}
			for _, v := range got.Violations {
				flagged[object{v.Model, v.ID}] = true
			}
			blamed := map[object]bool{}
			meshPairs := map[string]bool{}
			rules := map[string]bool{}
			for _, o := range want {
				rules[o.Rule] = true
				blamed[object{o.Model, o.ID}] = true
				if o.Rule == "ibgp-full-mesh" {
					meshPairs[o.Detail] = true
				}
				switch {
				case o.Model == "LinkGroup":
					if got.Pass() {
						t.Fatalf("%s: the gate passes a design the oracle rejects: %s %s#%d: %s", step, o.Rule, o.Model, o.ID, o.Detail)
					}
				case !flagged[object{o.Model, o.ID}]:
					t.Fatalf("%s: the gate misses %s %s#%d: %s\ngate:\n%s", step, o.Rule, o.Model, o.ID, o.Detail, renderViolations(got.Violations))
				}
			}
			for rule := range rules {
				fired[rule]++
			}
			for k, vs := range c.m.found {
				for _, v := range vs {
					var ok, hidden bool
					switch k.kind {
					case checkMesh:
						ok = meshPairs[v.Detail]
					case checkCircuit:
						ok = blamed[object{"Circuit", v.ID}] || blamed[object{"LinkGroup", c.m.circs[v.ID].group}]
						hidden = offGroup(c.m, v.ID)
					case checkBundle:
						lgs := readers(c.m, h.store, v.ID)
						ok = slices.ContainsFunc(lgs, func(lg int64) bool { return blamed[object{"LinkGroup", lg}] })
						hidden = len(lgs) == 0
					default:
						continue
					}
					switch {
					case ok:
					case hidden && raw:
						unseen++
					default:
						t.Fatalf("%s: the gate rejects what the oracle accepts: %s %s#%d: %s", step, v.Invariant, v.Model, v.ID, v.Detail)
					}
				}
			}
		}
		compare(fmt.Sprintf("seed %d set-up", seed))
		for i := 0; i < length; i++ {
			s := steps[h.rng.Intn(len(steps))]
			if err := s.run(h); err == nil && !designSteps[s.name] {
				raw = true
			}
			compare(fmt.Sprintf("seed %d step %d (%s)", seed, i, s.name))
		}
	}
	t.Logf("%d states compared (%d with a prefix the oracle cannot parse); oracle rules fired in: %v; "+
		"%d findings on what the oracle cannot see", states, unparsed, fired, unseen)
	for _, rule := range []string{"circuit-endpoints", "p2p-same-subnet", "bgp-distinct-peers", "bgp-as-match", "bgp-local-prefix", "ibgp-full-mesh"} {
		if fired[rule] == 0 {
			t.Errorf("no state ever broke %s", rule)
		}
	}
}
