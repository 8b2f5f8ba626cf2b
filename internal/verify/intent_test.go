package verify_test

import (
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/verify"
)

// The view half of the warm ≡ cold property (equiv_test.go): after every
// step of every seeded history, what the long-lived checker's view yields
// — devices, ports, peers, circuits, and the monitoring config derived
// from them — equals what a cold-loaded view yields, and equals what the
// store itself says: the fleet-wide scan DeriveJobs used to run lives on
// below as its oracle, and the read API's relation paths answer for the
// topology. On the warm side the monitoring config and the device and
// circuit lists are kept by delta across the whole history, from what
// Intent.Since hands out after each step; on the cold side they are
// derived whole.

func init() { verify.AlsoEquivalent = assertViewsEquivalent }

// viewCopy is everything a view exposes, copied out.
type viewCopy struct {
	Devices  map[string]verify.Device
	Ports    map[string][]string
	Peers    map[string][]verify.Peer
	Circuits []verify.Circuit
	Jobs     []monitor.JobSpec
	Rules    []monitor.AlarmRule
}

// derivedSets are a job manager and an alarm engine with a Derivation
// keeping their derived jobs and rules.
type derivedSets struct {
	jm      *monitor.JobManager
	ae      *monitor.AlarmEngine
	derived *monitor.Derivation
}

func newDerivedSets(t *testing.T, store *fbnet.Store) derivedSets {
	t.Helper()
	jm := monitor.NewJobManager(nil)
	ts := monitor.NewTimeseriesBackend()
	for _, b := range []monitor.Backend{ts, monitor.NewDerivedBackend(store, ts)} {
		if err := jm.RegisterBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	ae := monitor.NewAlarmEngine(nil, monitor.NewTimeseriesBackend(), store)
	return derivedSets{jm, ae, monitor.NewDerivation(jm, ae)}
}

// sync brings the sets up to c's view and copies them out.
func (s derivedSets) sync(t *testing.T, c *verify.Checker, step string) ([]monitor.JobSpec, []monitor.AlarmRule) {
	t.Helper()
	if _, err := s.derived.Sync(c); err != nil {
		t.Fatalf("after %s: deriving: %v", step, err)
	}
	return s.jm.Jobs(), s.ae.Rules()
}

// follower is the delta consumers of one warm checker, carried from step
// to step of a history: the derived sets, and the devices (by name) and
// circuits (by circuit_id) Since handed out, applied as they came.
type follower struct {
	warm     *verify.Checker
	sets     derivedSets
	stamp    uint64
	devices  map[string]verify.Device
	circuits map[string]verify.Circuit
}

var following follower

// follow applies what changed in warm's view since the last step.
func (f *follower) follow(t *testing.T, store *fbnet.Store, warm *verify.Checker, step string) viewCopy {
	t.Helper()
	if f.warm != warm { // a new history
		*f = follower{warm: warm, sets: newDerivedSets(t, store), devices: map[string]verify.Device{}, circuits: map[string]verify.Circuit{}}
	}
	v := viewCopy{Ports: map[string][]string{}, Peers: map[string][]verify.Peer{}}
	v.Jobs, v.Rules = f.sets.sync(t, warm, step)
	err := warm.Intent(func(in verify.Intent) error {
		ch := in.Since(f.stamp)
		if ch.All {
			clear(f.devices)
			clear(f.circuits)
		}
		for _, name := range ch.Gone {
			delete(f.devices, name)
		}
		for _, d := range ch.Devices {
			f.devices[d.Name] = d
		}
		for _, c := range ch.Circuits {
			f.circuits[c.ID] = c
		}
		f.stamp = ch.Stamp
		v.Devices, v.Circuits = maps.Clone(f.devices), in.Circuits()
		for _, d := range in.Devices() {
			v.Ports[d.Name], v.Peers[d.Name] = in.Ports(d), in.Peers(d)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("after %s: reading the view: %v", step, err)
	}
	// A circuit is handed out whenever what the view says of it changes:
	// the copy kept of each current one is the current one. (Deleted
	// circuits are not handed out; no consumer undoes a cable.)
	for _, c := range v.Circuits {
		if f.circuits[c.ID] != c {
			t.Fatalf("after %s: circuit %s changed without being handed out: kept %+v, now %+v", step, c.ID, f.circuits[c.ID], c)
		}
	}
	return v
}

// copyView reads a cold checker's view whole.
func copyView(t *testing.T, store *fbnet.Store, c *verify.Checker, step string) viewCopy {
	t.Helper()
	v := viewCopy{Devices: map[string]verify.Device{}, Ports: map[string][]string{}, Peers: map[string][]verify.Peer{}}
	err := c.Intent(func(in verify.Intent) error {
		v.Circuits = in.Circuits()
		for _, d := range in.Devices() {
			v.Devices[d.Name], v.Ports[d.Name], v.Peers[d.Name] = d, in.Ports(d), in.Peers(d)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("after %s: reading the view: %v", step, err)
	}
	v.Jobs, v.Rules = newDerivedSets(t, store).sync(t, c, step)
	return v
}

func assertViewsEquivalent(t *testing.T, store *fbnet.Store, warm, cold *verify.Checker, step string) {
	t.Helper()
	got, fresh := following.follow(t, store, warm, step), copyView(t, store, cold, step)
	if !reflect.DeepEqual(got, fresh) {
		t.Fatalf("after %s: followed view differs from a cold-loaded one\nwarm: %+v\ncold: %+v", step, got, fresh)
	}
	jobs, rules, err := scanDeriveJobs(store)
	if err != nil {
		t.Fatalf("after %s: scan oracle: %v", step, err)
	}
	if len(jobs) == 0 || len(rules) == 0 {
		t.Fatalf("after %s: oracle derived nothing", step)
	}
	if !reflect.DeepEqual(got.Jobs, jobs) {
		t.Fatalf("after %s: jobs derived from the view differ from the store scan\nview: %+v\nscan: %+v", step, got.Jobs, jobs)
	}
	if !reflect.DeepEqual(got.Rules, rules) {
		t.Fatalf("after %s: rules derived from the view differ from the store scan\nview: %+v\nscan: %+v", step, got.Rules, rules)
	}
	devs, circuits, err := scanTopology(store)
	if err != nil {
		t.Fatalf("after %s: scan oracle: %v", step, err)
	}
	viewDevs := make([][4]string, 0, len(got.Devices))
	for _, d := range got.Devices {
		viewDevs = append(viewDevs, [4]string{d.Name, d.Role, d.Site, d.Syntax})
	}
	slices.SortFunc(viewDevs, func(a, b [4]string) int { return strings.Compare(a[0], b[0]) })
	if !reflect.DeepEqual(viewDevs, devs) {
		t.Fatalf("after %s: view devices differ from the store scan\nview: %v\nscan: %v", step, viewDevs, devs)
	}
	if !reflect.DeepEqual(got.Circuits, circuits) {
		t.Fatalf("after %s: view circuits differ from the store scan\nview: %v\nscan: %v", step, got.Circuits, circuits)
	}
}

// --- the oracles ---

// scanDeriveJobs is monitor.DeriveJobs as it was before it read the view:
// five whole-table Finds plus two GetByIDs per device.
func scanDeriveJobs(store *fbnet.Store) ([]monitor.JobSpec, []monitor.AlarmRule, error) {
	devices, err := store.Find("Device", nil)
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(devices, func(i, j int) bool {
		return devices[i].String("name") < devices[j].String("name")
	})

	// device id -> name, and vendor syntax per device.
	devName := make(map[int64]string, len(devices))
	for _, d := range devices {
		devName[d.ID] = d.String("name")
	}
	syntax := vendorSyntax(store, devices)

	// Which devices terminate BGP sessions, and the session endpoints.
	type session struct{ dev, peer string }
	var sessions []session
	hasBGP := make(map[string]bool)
	for _, model := range []string{"BgpV6Session", "BgpV4Session"} {
		rows, err := store.Find(model, nil)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range rows {
			dev := devName[s.Ref("local_device")]
			if dev == "" {
				continue
			}
			hasBGP[dev] = true
			if peer := s.String("remote_addr"); peer != "" {
				sessions = append(sessions, session{dev: dev, peer: peer})
			}
		}
	}
	sort.Slice(sessions, func(i, j int) bool {
		if sessions[i].dev != sessions[j].dev {
			return sessions[i].dev < sessions[j].dev
		}
		return sessions[i].peer < sessions[j].peer
	})

	// Interfaces per device via linecard parentage.
	cards, err := store.Find("Linecard", nil)
	if err != nil {
		return nil, nil, err
	}
	cardDev := make(map[int64]string, len(cards))
	for _, c := range cards {
		cardDev[c.ID] = devName[c.Ref("device")]
	}
	ifaces, err := store.Find("PhysicalInterface", nil)
	if err != nil {
		return nil, nil, err
	}
	type port struct{ dev, ifc string }
	ports := make([]port, 0, len(ifaces))
	for _, ifc := range ifaces {
		if dev := cardDev[ifc.Ref("linecard")]; dev != "" {
			ports = append(ports, port{dev: dev, ifc: ifc.String("name")})
		}
	}
	sort.Slice(ports, func(i, j int) bool {
		if ports[i].dev != ports[j].dev {
			return ports[i].dev < ports[j].dev
		}
		return ports[i].ifc < ports[j].ifc
	})

	var jobs []monitor.JobSpec
	var sessionRules, deviceRules, octets, flatline []monitor.AlarmRule
	for _, d := range devices {
		name := d.String("name")
		v2 := syntax[name] == "vendor2"
		countersEngine, ifaceEngine, bgpEngine := monitor.EngineSNMP, monitor.EngineSNMP, monitor.EngineCLI
		if v2 {
			countersEngine, ifaceEngine, bgpEngine = monitor.EngineThrift, monitor.EngineRPCXML, monitor.EngineThrift
		}
		jobs = append(jobs,
			monitor.JobSpec{Name: "derived-counters-" + name, Period: 1 * time.Minute,
				Engine: countersEngine, Data: monitor.DataCounters,
				Devices: []string{name}, Backends: []string{"timeseries"}},
			monitor.JobSpec{Name: "derived-interfaces-" + name, Period: 2 * time.Minute,
				Engine: ifaceEngine, Data: monitor.DataInterfaces,
				Devices: []string{name}, Backends: []string{"timeseries", "fbnet-derived"}},
		)
		if hasBGP[name] {
			jobs = append(jobs, monitor.JobSpec{Name: "derived-bgp-" + name, Period: 5 * time.Minute,
				Engine: bgpEngine, Data: monitor.DataBGP,
				Devices: []string{name}, Backends: []string{"fbnet-derived"}})
		}
		deviceRules = append(deviceRules, monitor.AlarmRule{
			Name: "device-unreachable", Kind: monitor.KindAbsence, Device: name,
			Key: "cpu_util", Window: 5 * time.Minute, Urgency: monitor.Critical,
		})
	}
	for _, s := range sessions {
		sessionRules = append(sessionRules, monitor.AlarmRule{
			Name: "bgp-session-down", Kind: monitor.KindBGPState,
			Device: s.dev, Key: s.peer, Urgency: monitor.Major,
		})
	}
	for _, p := range ports {
		flatline = append(flatline, monitor.AlarmRule{Name: "interface-flatline", Kind: monitor.KindAbsence, Device: p.dev,
			Key: p.ifc + "/in_octets", Window: 10 * time.Minute, Urgency: monitor.Warning})
		octets = append(octets, monitor.AlarmRule{Name: "flatline-octets", Kind: monitor.KindFlatline, Device: p.dev,
			Key: p.ifc + "/out_octets", Urgency: monitor.Minor})
	}
	// The alarm engine's order: family, device, key.
	return jobs, slices.Concat(sessionRules, deviceRules, octets, flatline), nil
}

// vendorSyntax resolves each device's Vendor syntax string through its
// hardware profile; devices with no resolvable profile default to the
// vendor1 personality, matching the fleet materializer.
func vendorSyntax(store *fbnet.Store, devices []fbnet.Object) map[string]string {
	out := make(map[string]string, len(devices))
	for _, d := range devices {
		out[d.String("name")] = "vendor1"
		hw, err := store.GetByID("HardwareProfile", d.Ref("hw_profile"))
		if err != nil {
			continue
		}
		vendor, err := store.GetByID("Vendor", hw.Ref("vendor"))
		if err != nil {
			continue
		}
		out[d.String("name")] = vendor.String("syntax")
	}
	return out
}

// scanTopology answers what core.SyncFleet needs — every device as {name,
// role, site name, vendor syntax}, sorted by name, and every
// non-decommissioned circuit with its id, status and both ends as (device,
// interface) names, in id order — through the read API's relation paths, a resolver that
// shares nothing with the model.
func scanTopology(store *fbnet.Store) (devs [][4]string, circuits []verify.Circuit, err error) {
	str := func(r fbnet.Result, field string) string { s, _ := r.Fields[field].(string); return s }
	rows, err := store.Get("Device", []string{"name", "role", "site.name", "hw_profile.vendor.syntax"}, nil)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range rows {
		devs = append(devs, [4]string{str(r, "name"), str(r, "role"), str(r, "site.name"), str(r, "hw_profile.vendor.syntax")})
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i][0] < devs[j][0] })

	ends := []string{"a_interface.linecard.device.name", "a_interface.name", "z_interface.linecard.device.name", "z_interface.name"}
	rows, err = store.Get("Circuit", append([]string{"circuit_id", "status"}, ends...), fbnet.And(fbnet.Ne("status", "decommissioned"),
		fbnet.Not(fbnet.IsNull("a_interface")), fbnet.Not(fbnet.IsNull("z_interface"))))
	if err != nil {
		return nil, nil, err
	}
	circuits = make([]verify.Circuit, len(rows))
	for i, r := range rows {
		circuits[i] = verify.Circuit{ID: str(r, "circuit_id"), Status: str(r, "status"), ADevice: str(r, ends[0]), AInterface: str(r, ends[1]), ZDevice: str(r, ends[2]), ZInterface: str(r, ends[3])}
	}
	return devs, circuits, nil
}
