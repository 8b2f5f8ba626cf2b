// Package audit detects deviations between FBNet's Desired and Derived
// model groups (SIGCOMM '16, §4.1.2): "Differences between data in both
// models could imply expected or unexpected deviation from planned network
// design due to reasons such as unapplied config changes, or unplanned
// events such as hardware failures, fiber cuts, or misconfigurations."
package audit

import (
	"fmt"
	"sort"
	"strings"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/verify"
)

// Kind classifies an anomaly.
type Kind string

const (
	// DeviceSilent: a Desired device has no Derived record (never polled
	// or unreachable).
	DeviceSilent Kind = "device-silent"
	// CircuitMissing: a Desired production circuit is not observed via
	// LLDP (fiber cut, miscable, or unapplied config).
	CircuitMissing Kind = "circuit-missing"
	// CircuitUnexpected: an observed adjacency has no Desired circuit
	// (undesigned cabling).
	CircuitUnexpected Kind = "circuit-unexpected"
	// InterfaceDown: an interface that terminates a production circuit is
	// operationally down.
	InterfaceDown Kind = "interface-down"
	// BGPDown: a designed BGP session is not Established.
	BGPDown Kind = "bgp-down"
	// ConfigDeviates: a device's running config does not match golden.
	ConfigDeviates Kind = "config-deviates"
	// OSMismatch: a device runs a different OS version than its assigned
	// image (§1's OS upgrade task, pending or drifted).
	OSMismatch Kind = "os-mismatch"
)

// Anomaly is one detected Desired/Derived divergence.
type Anomaly struct {
	Kind   Kind
	Device string
	Detail string
}

func (a Anomaly) String() string {
	return fmt.Sprintf("[%s] %s: %s", a.Kind, a.Device, a.Detail)
}

// Report is the result of one audit pass.
type Report struct {
	Anomalies []Anomaly
}

// Clean reports whether the audit found nothing.
func (r Report) Clean() bool { return len(r.Anomalies) == 0 }

// ByKind returns anomaly counts per kind.
func (r Report) ByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, a := range r.Anomalies {
		out[a.Kind]++
	}
	return out
}

// recordEvent appends one OperationalEvent, the row every Record* helper
// leaves in the operational record.
func recordEvent(store *fbnet.Store, device, kind, urgency, detail string, atUnix int64) error {
	_, err := store.Mutate(func(m *fbnet.Mutation) error {
		_, err := m.Create("OperationalEvent", map[string]any{
			"device_name": device,
			"kind":        kind,
			"detail":      detail,
			"urgency":     urgency,
			"at_unix":     atUnix,
		})
		return err
	})
	return err
}

// RecordGate persists one pre-deploy verification-gate decision as an
// OperationalEvent, so gate history is queryable next to the rest of the
// operational record (who was rejected, when, and why).
func RecordGate(store *fbnet.Store, devices int, violations []string, atUnix int64) error {
	urgency := "NOTICE"
	detail := fmt.Sprintf("verified %d devices, all invariants hold", devices)
	if len(violations) > 0 {
		urgency = "CRITICAL"
		detail = fmt.Sprintf("rejected deployment of %d devices, %d violation(s): %s",
			devices, len(violations), strings.Join(violations, "; "))
	}
	return recordEvent(store, "verify-gate", "verify-gate", urgency, detail, atUnix)
}

// RecordGateBypass persists a deployment that skipped verification
// (-no-verify): habitual bypasses must be visible in the operational
// record even though no invariants were checked.
func RecordGateBypass(store *fbnet.Store, devices int, atUnix int64) error {
	return recordEvent(store, "verify-gate", "verify-gate", "WARNING",
		fmt.Sprintf("gate BYPASSED for deployment of %d devices (-no-verify)", devices), atUnix)
}

// RecordDeploy persists one deployment (or initial provisioning) as an
// OperationalEvent, so the operational timeline can show "config moved"
// between the verify verdict and whatever alarmed afterwards. kind is
// "deploy" or "provision".
func RecordDeploy(store *fbnet.Store, kind string, devices int, detail string, atUnix int64) error {
	return recordEvent(store, "deployer", kind, "NOTICE",
		fmt.Sprintf("%s of %d device(s): %s", kind, devices, detail), atUnix)
}

// desired is the Desired side of the comparison, copied out of the
// resident model's view (the one resolver of Desired topology, DESIGN.md
// §12) before any Derived table is read.
type desired struct {
	devices  []string         // names, sorted
	circuits []verify.Circuit // production circuits with both ends
	sessions []session        // sessions with a local device and a remote address
}

type session struct{ device, addr, kind string }

// Run executes all audits: Desired topology through intent's view, observed
// state from the store's Derived models.
func Run(store *fbnet.Store, intent *verify.Checker) (Report, error) {
	var want desired
	err := intent.Intent(func(in verify.Intent) error {
		for _, d := range in.Devices() {
			want.devices = append(want.devices, d.Name)
			for _, p := range in.Peers(d) {
				if p.Addr != "" {
					want.sessions = append(want.sessions, session{d.Name, p.Addr, p.Type})
				}
			}
		}
		for _, c := range in.Circuits() {
			if c.Status == "production" {
				want.circuits = append(want.circuits, c)
			}
		}
		return nil
	})
	if err != nil {
		return Report{}, err
	}
	var rep Report
	for _, f := range []func(*fbnet.Store, *desired, *Report) error{
		auditDevices, auditCircuits, auditInterfaces, auditBGP, auditConfigs, auditOS,
	} {
		if err := f(store, &want, &rep); err != nil {
			return Report{}, err
		}
	}
	sort.Slice(rep.Anomalies, func(i, j int) bool {
		if rep.Anomalies[i].Kind != rep.Anomalies[j].Kind {
			return rep.Anomalies[i].Kind < rep.Anomalies[j].Kind
		}
		if rep.Anomalies[i].Device != rep.Anomalies[j].Device {
			return rep.Anomalies[i].Device < rep.Anomalies[j].Device
		}
		return rep.Anomalies[i].Detail < rep.Anomalies[j].Detail
	})
	return rep, nil
}

// auditDevices flags Desired devices with no Derived record.
func auditDevices(store *fbnet.Store, want *desired, rep *Report) error {
	derived, err := store.Find("DerivedDevice", nil)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, d := range derived {
		seen[d.String("name")] = true
	}
	for _, name := range want.devices {
		if !seen[name] {
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: DeviceSilent, Device: name,
				Detail: "designed device has no operational record",
			})
		}
	}
	return nil
}

// auditCircuits cross-checks Desired production circuits against LLDP-
// derived circuits, in both directions.
func auditCircuits(store *fbnet.Store, want *desired, rep *Report) error {
	observed, err := store.Find("DerivedCircuit", nil)
	if err != nil {
		return err
	}
	obsSet := map[string]bool{}
	for _, o := range observed {
		key := circuitKey(o.String("a_device"), o.String("a_interface"), o.String("z_device"), o.String("z_interface"))
		obsSet[key] = true
	}
	desSet := map[string]bool{}
	for _, c := range want.circuits {
		key := circuitKey(c.ADevice, c.AInterface, c.ZDevice, c.ZInterface)
		desSet[key] = true
		if !obsSet[key] {
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: CircuitMissing, Device: c.ADevice,
				Detail: fmt.Sprintf("circuit %s not observed via LLDP (%s)", c.ID, key),
			})
		}
	}
	for key := range obsSet {
		if !desSet[key] {
			dev := strings.SplitN(key, ":", 2)[0]
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: CircuitUnexpected, Device: dev,
				Detail: fmt.Sprintf("observed adjacency %s has no production circuit in the design", key),
			})
		}
	}
	return nil
}

// circuitKey builds an orientation-independent circuit identity.
func circuitKey(aDev, aIf, zDev, zIf string) string {
	a := aDev + ":" + aIf
	z := zDev + ":" + zIf
	if a > z {
		a, z = z, a
	}
	return a + "--" + z
}

// auditInterfaces flags production-circuit endpoints that are down.
func auditInterfaces(store *fbnet.Store, want *desired, rep *Report) error {
	derived, err := store.Find("DerivedInterface", nil)
	if err != nil {
		return err
	}
	status := map[string]string{}
	for _, d := range derived {
		status[d.String("device_name")+":"+d.String("name")] = d.String("oper_status")
	}
	for _, c := range want.circuits {
		for _, end := range [2][2]string{{c.ADevice, c.AInterface}, {c.ZDevice, c.ZInterface}} {
			if st, polled := status[end[0]+":"+end[1]]; polled && st != "up" {
				rep.Anomalies = append(rep.Anomalies, Anomaly{
					Kind: InterfaceDown, Device: end[0],
					Detail: fmt.Sprintf("interface %s terminates production circuit %s but is %s",
						end[1], c.ID, st),
				})
			}
		}
	}
	return nil
}

// auditBGP flags designed sessions whose derived state is not Established.
func auditBGP(store *fbnet.Store, want *desired, rep *Report) error {
	derived, err := store.Find("DerivedBgpSession", nil)
	if err != nil {
		return err
	}
	state := map[string]string{}
	for _, d := range derived {
		state[d.String("device_name")+"|"+d.String("peer_addr")] = d.String("state")
	}
	for _, s := range want.sessions {
		if st, polled := state[s.device+"|"+s.addr]; polled && st != "Established" {
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: BGPDown, Device: s.device,
				Detail: fmt.Sprintf("designed %s session to %s is %s", s.kind, s.addr, st),
			})
		}
	}
	return nil
}

// auditOS flags devices whose collected OS version differs from the
// version of their assigned image.
func auditOS(store *fbnet.Store, _ *desired, rep *Report) error {
	derived, err := store.Find("DerivedDevice", nil)
	if err != nil {
		return err
	}
	running := map[string]string{}
	for _, d := range derived {
		running[d.String("name")] = d.String("os_version")
	}
	devices, err := store.Find("Device", fbnet.Not(fbnet.IsNull("os_image")))
	if err != nil {
		return err
	}
	for _, dev := range devices {
		img, err := store.GetByID("OsImage", dev.Ref("os_image"))
		if err != nil {
			return err
		}
		want := img.String("version")
		got, polled := running[dev.String("name")]
		if !polled {
			continue // never collected: device-silent covers it
		}
		if got != want {
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: OSMismatch, Device: dev.String("name"),
				Detail: fmt.Sprintf("runs %s, design assigns image %s (%s)", got, img.String("name"), want),
			})
		}
	}
	return nil
}

// auditConfigs surfaces recorded config non-conformance.
func auditConfigs(store *fbnet.Store, _ *desired, rep *Report) error {
	records, err := store.Find("DerivedConfig", fbnet.Eq("conforms", false))
	if err != nil {
		return err
	}
	for _, r := range records {
		rep.Anomalies = append(rep.Anomalies, Anomaly{
			Kind: ConfigDeviates, Device: r.String("device_name"),
			Detail: "running config does not match golden config",
		})
	}
	return nil
}
