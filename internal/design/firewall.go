package design

import (
	"fmt"

	"github.com/robotron-net/robotron/internal/fbnet"
)

// Firewall management: access control list modification is one of the
// paper's everyday tasks (§1), and firewall rule changes are the paper's
// example of deployments that "require applying new configurations in
// multiple phases" (§5.3.2). Policies are modeled once and attached to
// many devices, so one rule change fans out to every attached device's
// generated config.

// FirewallRuleSpec is one term of a firewall policy.
type FirewallRuleSpec struct {
	Action    string // "permit" | "deny"
	Protocol  string // "any" | "tcp" | "udp" | "icmp6"
	SrcPrefix string // empty matches any source
	DstPort   int64  // 0 matches any port
}

// FirewallSpec is a named policy with ordered rules.
type FirewallSpec struct {
	Name      string
	Direction string // "in" | "out"
	Rules     []FirewallRuleSpec
}

// EnsureFirewallPolicy creates or replaces a firewall policy's rules as
// one design change. Replacing rules is the §5.3.2 "firewall rule change":
// every device attached to the policy now generates an updated config.
func (d *Designer) EnsureFirewallPolicy(ctx ChangeContext, spec FirewallSpec) (ChangeResult, error) {
	if spec.Name == "" {
		return ChangeResult{}, fmt.Errorf("design: firewall policy name required")
	}
	if len(spec.Rules) == 0 {
		return ChangeResult{}, fmt.Errorf("design: firewall policy %q needs at least one rule", spec.Name)
	}
	return d.change(ctx, func(m *designTx) error {
		var policyID int64
		existing, err := m.Find("FirewallPolicy", fbnet.Eq("name", spec.Name))
		if err != nil {
			return err
		}
		if len(existing) == 1 {
			policyID = existing[0].ID
			// Replace the rule set.
			old, err := m.Referencing("FirewallRule", "policy", policyID)
			if err != nil {
				return err
			}
			for _, r := range old {
				if err := m.Delete("FirewallRule", r.ID); err != nil {
					return err
				}
			}
			if err := m.Update("FirewallPolicy", policyID, map[string]any{"direction": spec.Direction}); err != nil {
				return err
			}
		} else {
			policyID, err = m.Create("FirewallPolicy", map[string]any{
				"name": spec.Name, "direction": spec.Direction,
			})
			if err != nil {
				return err
			}
		}
		for i, rule := range spec.Rules {
			fields := map[string]any{
				"policy": policyID, "seq": int64((i + 1) * 10),
				"action": rule.Action, "protocol": rule.Protocol,
			}
			if rule.SrcPrefix != "" {
				fields["src_prefix"] = rule.SrcPrefix
			}
			if rule.DstPort != 0 {
				fields["dst_port"] = rule.DstPort
			}
			if _, err := m.Create("FirewallRule", fields); err != nil {
				return err
			}
		}
		return nil
	})
}

// AttachFirewall binds a policy to devices' control planes.
func (d *Designer) AttachFirewall(ctx ChangeContext, policyName string, devices []string) (ChangeResult, error) {
	return d.change(ctx, func(m *designTx) error {
		policy, err := m.FindOne("FirewallPolicy", fbnet.Eq("name", policyName))
		if err != nil {
			return err
		}
		for _, name := range devices {
			dev, err := m.FindOne("Device", fbnet.Eq("name", name))
			if err != nil {
				return err
			}
			dup, err := m.Find("DeviceFirewall", fbnet.And(
				fbnet.Eq("device", dev.ID), fbnet.Eq("policy", policy.ID)))
			if err != nil {
				return err
			}
			if len(dup) > 0 {
				continue // already attached
			}
			if _, err := m.Create("DeviceFirewall", map[string]any{
				"device": dev.ID, "policy": policy.ID,
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// AssignOsImage records a device's target OS image (the design side of an
// OS upgrade, §1); the image must exist and belong to the device's vendor.
func (d *Designer) AssignOsImage(ctx ChangeContext, device, imageName string) (ChangeResult, error) {
	return d.change(ctx, func(m *designTx) error {
		dev, err := m.FindOne("Device", fbnet.Eq("name", device))
		if err != nil {
			return err
		}
		img, err := m.FindOne("OsImage", fbnet.Eq("name", imageName))
		if err != nil {
			return err
		}
		hw, err := m.Get("HardwareProfile", dev.Ref("hw_profile"))
		if err != nil {
			return err
		}
		if hw.Ref("vendor") != img.Ref("vendor") {
			return fmt.Errorf("design: image %s is for a different vendor than %s", imageName, device)
		}
		return m.Update("Device", dev.ID, map[string]any{"os_image": img.ID})
	})
}

// EnsureOsImage registers a qualified OS image for a vendor.
func (d *Designer) EnsureOsImage(ctx ChangeContext, name, version, vendorName string) (ChangeResult, error) {
	return d.change(ctx, func(m *designTx) error {
		if existing, err := m.Find("OsImage", fbnet.Eq("name", name)); err != nil {
			return err
		} else if len(existing) > 0 {
			return fmt.Errorf("design: OS image %q already exists", name)
		}
		vendor, err := m.FindOne("Vendor", fbnet.Eq("name", vendorName))
		if err != nil {
			return err
		}
		_, err = m.Create("OsImage", map[string]any{
			"name": name, "version": version, "vendor": vendor.ID,
		})
		return err
	})
}
