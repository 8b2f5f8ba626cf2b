package design

import (
	"fmt"

	"github.com/robotron-net/robotron/internal/fbnet"
)

// Peering provisioning (§2.1): POPs connect to ISPs via peering and
// transit interconnects on the peering routers. A peering turn-up creates
// the partner and ASN records, an interface with point-to-point
// addressing on the PR, an eBGP session to the partner, and — when the
// partner requires one — a custom import policy of cherry-picked prefixes
// (the §8 "Complexity of Modeling" incident involved exactly such a
// session).

// PolicyTermSpec is one term of a routing policy.
type PolicyTermSpec struct {
	MatchPrefix string // empty matches everything
	Action      string // "accept", "reject", "prepend"
}

// PolicySpec is a named routing policy to create (or reuse by name).
type PolicySpec struct {
	Name  string
	Terms []PolicyTermSpec
}

// PeeringSpec describes one peering/transit turn-up.
type PeeringSpec struct {
	// Device is the peering router taking the interconnect.
	Device string
	// Partner is the external network's name; ASN its AS number.
	Partner string
	ASN     int64
	// Kind is "peering" or "transit".
	Kind string
	// LocalAS is our AS on the session.
	LocalAS int64
	// ImportPolicy optionally restricts accepted prefixes.
	ImportPolicy *PolicySpec
}

// AddPeering turns up a peering interconnect as one design change and
// returns the created BgpV6Session id alongside the change result.
func (d *Designer) AddPeering(ctx ChangeContext, spec PeeringSpec) (ChangeResult, int64, error) {
	if spec.Kind != "peering" && spec.Kind != "transit" {
		return ChangeResult{}, 0, fmt.Errorf("design: peering kind must be peering or transit, got %q", spec.Kind)
	}
	if spec.ASN <= 0 || spec.LocalAS <= 0 {
		return ChangeResult{}, 0, fmt.Errorf("design: peering requires both AS numbers")
	}
	// The old check looked at each AS in isolation; an eBGP interconnect
	// whose two sides share one AS is a contradiction the partner's side
	// would reject at session bring-up.
	if spec.ASN == spec.LocalAS {
		return ChangeResult{}, 0, fmt.Errorf("design: eBGP peering with %s requires distinct AS numbers, both sides are %d", spec.Partner, spec.ASN)
	}
	var sessionID int64
	res, err := d.change(ctx, func(m *designTx) error {
		dev, err := m.FindOne("Device", fbnet.Eq("name", spec.Device))
		if err != nil {
			return err
		}
		if dev.String("role") != "pr" {
			return fmt.Errorf("design: peering terminates on peering routers; %s is a %s", spec.Device, dev.String("role"))
		}
		// ASN and partner records (reused when they exist).
		asnID, err := ensure(m.Mutation, "ASN", "number", spec.ASN, func() (int64, error) {
			return m.Create("ASN", map[string]any{"number": spec.ASN, "name": spec.Partner})
		})
		if err != nil {
			return err
		}
		partnerID, err := ensure(m.Mutation, "PeeringPartner", "name", spec.Partner, func() (int64, error) {
			return m.Create("PeeringPartner", map[string]any{"name": spec.Partner, "asn": asnID})
		})
		if err != nil {
			return err
		}
		// The interconnect interface: a dedicated aggregate + port with
		// point-to-point addressing; our side is A, the partner takes Z.
		aggID, err := m.aggregate(dev.ID, 1500)
		if err != nil {
			return err
		}
		if _, _, err := m.allocPort(dev.ID, aggID); err != nil {
			return err
		}
		prefixID, remoteAddr, err := m.addressPair(familyV6,
			fmt.Sprintf("peering:%s--%s", spec.Device, spec.Partner), "external", aggID, 0)
		if err != nil {
			return err
		}
		// Optional custom import policy.
		var policyID int64
		if spec.ImportPolicy != nil {
			policyID, err = ensurePolicy(m.Mutation, *spec.ImportPolicy)
			if err != nil {
				return err
			}
		}
		fields := map[string]any{
			"local_device": dev.ID, "local_prefix": prefixID,
			"remote_addr": remoteAddr,
			"local_as":    spec.LocalAS, "remote_as": spec.ASN,
			"session_type": "ebgp",
		}
		if policyID != 0 {
			fields["import_policy"] = policyID
		}
		sessionID, err = m.Create("BgpV6Session", fields)
		if err != nil {
			return err
		}
		_, err = m.Create("PeeringInterconnect", map[string]any{
			"partner": partnerID, "device": dev.ID, "kind": spec.Kind,
			"v6_session": sessionID,
		})
		return err
	})
	if err != nil {
		return ChangeResult{}, 0, err
	}
	return res, sessionID, nil
}

// ensurePolicy creates (or reuses by name) a routing policy with its terms.
func ensurePolicy(m *fbnet.Mutation, spec PolicySpec) (int64, error) {
	if spec.Name == "" {
		return 0, fmt.Errorf("design: policy name required")
	}
	return ensure(m, "RoutingPolicy", "name", spec.Name, func() (int64, error) {
		id, err := m.Create("RoutingPolicy", map[string]any{"name": spec.Name})
		if err != nil {
			return 0, err
		}
		for i, term := range spec.Terms {
			fields := map[string]any{
				"policy": id, "seq": int64((i + 1) * 10), "action": term.Action,
			}
			if term.MatchPrefix != "" {
				fields["match_prefix"] = term.MatchPrefix
			}
			if _, err := m.Create("PolicyTerm", fields); err != nil {
				return 0, err
			}
		}
		return id, nil
	})
}
