package monitor

import (
	"slices"
	"time"

	"github.com/robotron-net/robotron/internal/verify"
)

// DeriveJobs reads FBNet Desired state through the resident model's view
// (the one resolver of Desired topology, DESIGN.md §12) and emits the
// collection job set plus the alarm rule set it implies — monitoring config
// is generated from intent exactly like device config (§5.4: "collection
// configs are derived from FBNet"), so re-running the derivation after a
// design change regenerates what to collect and what to alarm on.
//
// Per device: a counters job (1m), an interfaces job (2m), and — only if
// the device terminates BGP sessions — a BGP state job (5m). The engine
// type follows the device's vendor: vendor2 speaks structured protocols
// (Thrift/RPC-XML), vendor1 is polled over SNMP/CLI (§5.4.2, Table 2).
//
// Per design object, an alarm rule: device-unreachable (absence of the
// cpu_util series) per device, bgp-session-down per BGP session with a
// remote address, interface-flatline (series absence) and flatline-octets
// (counter frozen) per physical interface.
func DeriveJobs(in verify.Intent) ([]JobSpec, []AlarmRule) {
	var jobs []JobSpec
	var sessions, devices, octets, flatline []AlarmRule
	for _, d := range in.Devices() {
		name := d.Name
		countersEngine, ifaceEngine, bgpEngine := EngineSNMP, EngineSNMP, EngineCLI
		if d.Syntax == "vendor2" {
			countersEngine, ifaceEngine, bgpEngine = EngineThrift, EngineRPCXML, EngineThrift
		}
		jobs = append(jobs,
			JobSpec{Name: "derived-counters-" + name, Period: 1 * time.Minute,
				Engine: countersEngine, Data: DataCounters,
				Devices: []string{name}, Backends: []string{"timeseries"}},
			JobSpec{Name: "derived-interfaces-" + name, Period: 2 * time.Minute,
				Engine: ifaceEngine, Data: DataInterfaces,
				Devices: []string{name}, Backends: []string{"timeseries", "fbnet-derived"}},
		)
		peers := in.Peers(d)
		if len(peers) > 0 {
			jobs = append(jobs, JobSpec{Name: "derived-bgp-" + name, Period: 5 * time.Minute,
				Engine: bgpEngine, Data: DataBGP,
				Devices: []string{name}, Backends: []string{"fbnet-derived"}})
		}
		devices = append(devices, AlarmRule{
			Name: "device-unreachable", Kind: KindAbsence, Device: name,
			Key: "cpu_util", Window: 5 * time.Minute, Urgency: Critical,
		})
		for _, peer := range peers {
			if peer.Addr != "" {
				sessions = append(sessions, AlarmRule{
					Name: "bgp-session-down", Kind: KindBGPState,
					Device: name, Key: peer.Addr, Urgency: Major,
				})
			}
		}
		for _, ifc := range in.Ports(d) {
			flatline = append(flatline, AlarmRule{Name: "interface-flatline", Kind: KindAbsence, Device: name,
				Key: ifc + "/in_octets", Window: 10 * time.Minute, Urgency: Warning})
			octets = append(octets, AlarmRule{Name: "flatline-octets", Kind: KindFlatline, Device: name,
				Key: ifc + "/out_octets", Urgency: Minor})
		}
	}
	// The alarm engine's own order — rule family, device, key — so that
	// ReplaceRules installs the set as it is.
	return jobs, slices.Concat(sessions, devices, octets, flatline)
}
