package monitor

import (
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/verify"
)

// DeriveJobs reads one device's FBNet Desired state through the resident
// model's view (the one resolver of Desired topology, DESIGN.md §12) and
// emits the collection jobs plus the alarm rules it implies — monitoring
// config is generated from intent exactly like device config (§5.4:
// "collection configs are derived from FBNet"), so re-running the
// derivation after a design change regenerates what to collect and what to
// alarm on. It is a function of the device's row, vendor, ports and the
// sessions it is the local end of — what the view stamps the device for —
// so a Derivation re-runs it for the devices a change touched.
//
// Jobs: a counters job (1m), an interfaces job (2m), and — only if the
// device terminates BGP sessions — a BGP state job (5m). The engine type
// follows the device's vendor: vendor2 speaks structured protocols
// (Thrift/RPC-XML), vendor1 is polled over SNMP/CLI (§5.4.2, Table 2).
//
// Rules, in the alarm engine's order (family, then key):
// bgp-session-down per BGP session with a remote address,
// device-unreachable (absence of the cpu_util series), and per physical
// interface flatline-octets (counter frozen) and interface-flatline
// (series absence).
func DeriveJobs(in verify.Intent, d verify.Device) ([]JobSpec, []AlarmRule) {
	name := d.Name
	countersEngine, ifaceEngine, bgpEngine := EngineSNMP, EngineSNMP, EngineCLI
	if d.Syntax == "vendor2" {
		countersEngine, ifaceEngine, bgpEngine = EngineThrift, EngineRPCXML, EngineThrift
	}
	jobs := []JobSpec{
		{Name: "derived-counters-" + name, Period: 1 * time.Minute,
			Engine: countersEngine, Data: DataCounters,
			Devices: []string{name}, Backends: []string{"timeseries"}},
		{Name: "derived-interfaces-" + name, Period: 2 * time.Minute,
			Engine: ifaceEngine, Data: DataInterfaces,
			Devices: []string{name}, Backends: []string{"timeseries", "fbnet-derived"}},
	}
	peers := in.Peers(d)
	if len(peers) > 0 {
		jobs = append(jobs, JobSpec{Name: "derived-bgp-" + name, Period: 5 * time.Minute,
			Engine: bgpEngine, Data: DataBGP,
			Devices: []string{name}, Backends: []string{"fbnet-derived"}})
	}
	ports := in.Ports(d)
	rules := make([]AlarmRule, 0, len(peers)+1+2*len(ports))
	for _, peer := range peers {
		if peer.Addr != "" {
			rules = append(rules, AlarmRule{
				Name: "bgp-session-down", Kind: KindBGPState,
				Device: name, Key: peer.Addr, Urgency: Major,
			})
		}
	}
	rules = append(rules, AlarmRule{
		Name: "device-unreachable", Kind: KindAbsence, Device: name,
		Key: "cpu_util", Window: 5 * time.Minute, Urgency: Critical,
	})
	for _, ifc := range ports {
		rules = append(rules, AlarmRule{Name: "flatline-octets", Kind: KindFlatline, Device: name,
			Key: ifc + "/out_octets", Urgency: Minor})
	}
	for _, ifc := range ports {
		rules = append(rules, AlarmRule{Name: "interface-flatline", Kind: KindAbsence, Device: name,
			Key: ifc + "/in_octets", Window: 10 * time.Minute, Urgency: Warning})
	}
	return jobs, rules
}

// derivedPrefix names the jobs a Derivation owns.
const derivedPrefix = "derived-"

// Derivation owns the intent-derived monitoring config: a job manager's
// "derived-" jobs and an alarm engine's rules. Sync keeps them equal to
// DeriveJobs over every device of the checker's view, paying only for the
// devices the view stamped since the last Sync. A write to either set by
// anyone else (ReplaceJobs, AddJob, ReplaceRules) moves its Version, and
// the next Sync derives every device and swaps both sets wholesale — the
// answer a cold instance gives.
type Derivation struct {
	jm *JobManager
	ae *AlarmEngine

	mu       sync.Mutex
	stamp    uint64 // view stamp the installed sets reflect; 0 before the first Sync
	jobsVer  uint64 // jm's and ae's Version right after this Derivation last wrote them
	rulesVer uint64

	derived *telemetry.Counter // nil (a no-op) until Instrument
}

// NewDerivation returns a Derivation over the job manager's and the alarm
// engine's sets; its first Sync derives every device.
func NewDerivation(jm *JobManager, ae *AlarmEngine) *Derivation {
	return &Derivation{jm: jm, ae: ae}
}

// Instrument registers robotron_monitor_derived_devices_total on reg.
func (d *Derivation) Instrument(reg *telemetry.Registry) {
	reg.Help("robotron_monitor_derived_devices_total", "Devices whose collection jobs and alarm rules were re-derived from intent.")
	d.mu.Lock()
	defer d.mu.Unlock()
	d.derived = reg.Counter("robotron_monitor_derived_devices_total")
}

// Sync re-derives the jobs and rules of the devices the checker's view
// changed since the last Sync, drops those of the device names it no
// longer holds, and installs both by device. It returns how many devices
// were re-derived. The view is read under the checker's lock and the sets
// written after it is released.
func (d *Derivation) Sync(c *verify.Checker) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	since := d.stamp
	if d.jm.Version() != d.jobsVer || d.ae.Version() != d.rulesVer {
		since = 0
	}
	var ch verify.Changes
	var jobs []JobSpec
	var rules []AlarmRule
	if err := c.Intent(func(in verify.Intent) error {
		ch = in.Since(since)
		for _, dev := range ch.Devices {
			j, r := DeriveJobs(in, dev)
			jobs, rules = append(jobs, j...), append(rules, r...)
		}
		return nil
	}); err != nil {
		return 0, err
	}
	if ch.All {
		if err := d.jm.ReplaceJobs(derivedPrefix, jobs); err != nil {
			return 0, err
		}
		d.ae.ReplaceRules(rules)
	} else if len(ch.Devices)+len(ch.Gone) > 0 {
		names := ch.Gone
		for _, dev := range ch.Devices {
			names = append(names, dev.Name)
		}
		if err := d.jm.ReplaceDeviceJobs(derivedPrefix, names, jobs); err != nil {
			return 0, err
		}
		d.ae.ReplaceDeviceRules(names, rules)
	}
	d.stamp, d.jobsVer, d.rulesVer = ch.Stamp, d.jm.Version(), d.ae.Version()
	d.derived.Add(int64(len(ch.Devices)))
	return len(ch.Devices), nil
}
