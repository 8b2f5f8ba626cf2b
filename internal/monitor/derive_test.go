package monitor

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/vclock"
	"github.com/robotron-net/robotron/internal/verify"
)

// deriveFixture builds a two-device design: sw1 on a vendor1 profile with
// one interface and one BGP session, sw2 on vendor2 with one interface and
// no BGP.
func deriveFixture(t *testing.T) *fbnet.Store {
	t.Helper()
	store, err := fbnet.Open(relstore.NewDB("derive-test"), fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	_, err = store.Mutate(func(m *fbnet.Mutation) error {
		region, err := m.Create("Region", map[string]any{"name": "apac"})
		if err != nil {
			return err
		}
		site, err := m.Create("Site", map[string]any{"name": "pop1", "kind": "pop", "region": region})
		if err != nil {
			return err
		}
		mkDev := func(name, syntax string) (int64, error) {
			v, err := m.Create("Vendor", map[string]any{"name": "v-" + name, "syntax": syntax})
			if err != nil {
				return 0, err
			}
			hw, err := m.Create("HardwareProfile", map[string]any{
				"name": "hw-" + name, "vendor": v, "num_slots": 1,
				"ports_per_linecard": 4, "port_speed_mbps": 10000,
			})
			if err != nil {
				return 0, err
			}
			dev, err := m.Create("Device", map[string]any{
				"name": name, "role": "psw", "site": site, "hw_profile": hw, "drain_state": "undrained",
			})
			if err != nil {
				return 0, err
			}
			lc, err := m.Create("Linecard", map[string]any{"slot": 1, "device": dev})
			if err != nil {
				return 0, err
			}
			_, err = m.Create("PhysicalInterface", map[string]any{
				"name": "et1/1", "speed_mbps": 10000, "linecard": lc,
			})
			return dev, err
		}
		sw1, err := mkDev("sw1", "vendor1")
		if err != nil {
			return err
		}
		if _, err := mkDev("sw2", "vendor2"); err != nil {
			return err
		}
		_, err = m.Create("BgpV6Session", map[string]any{
			"local_device": sw1, "remote_addr": "2401:db00::1",
			"local_as": 65001, "remote_as": 65000, "session_type": "ebgp",
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// derivedJobManager is a job manager with the backends derived jobs name.
func derivedJobManager(t *testing.T, store *fbnet.Store) *JobManager {
	t.Helper()
	jm := NewJobManager(nil)
	ts := NewTimeseriesBackend()
	if err := jm.RegisterBackend(ts); err != nil {
		t.Fatal(err)
	}
	if err := jm.RegisterBackend(NewDerivedBackend(store, ts)); err != nil {
		t.Fatal(err)
	}
	return jm
}

// deriveFrom derives jobs and rules from a cold-loaded view of the store:
// the first Sync of a fresh Derivation, which derives every device.
func deriveFrom(t *testing.T, store *fbnet.Store) (jobs []JobSpec, rules []AlarmRule) {
	t.Helper()
	jm, ae := derivedJobManager(t, store), NewAlarmEngine(nil, NewTimeseriesBackend(), store)
	if _, err := NewDerivation(jm, ae).Sync(verify.NewChecker(store, nil)); err != nil {
		t.Fatal(err)
	}
	return jm.Jobs(), ae.Rules()
}

func TestDeriveJobsFollowsDesign(t *testing.T) {
	store := deriveFixture(t)
	jobs, rules := deriveFrom(t, store)

	byName := make(map[string]JobSpec, len(jobs))
	for _, j := range jobs {
		byName[j.Name] = j
	}
	// sw1 terminates BGP: counters + interfaces + bgp. sw2 does not: no
	// bgp job.
	if len(jobs) != 5 {
		t.Fatalf("want 5 jobs, got %d: %v", len(jobs), byName)
	}
	if _, ok := byName["derived-bgp-sw2"]; ok {
		t.Fatalf("sw2 has no BGP sessions but got a BGP job")
	}
	// Engine selection follows the vendor syntax.
	cases := []struct {
		job    string
		engine EngineType
		period time.Duration
	}{
		{"derived-counters-sw1", EngineSNMP, time.Minute},
		{"derived-interfaces-sw1", EngineSNMP, 2 * time.Minute},
		{"derived-bgp-sw1", EngineCLI, 5 * time.Minute},
		{"derived-counters-sw2", EngineThrift, time.Minute},
		{"derived-interfaces-sw2", EngineRPCXML, 2 * time.Minute},
	}
	for _, c := range cases {
		j, ok := byName[c.job]
		if !ok {
			t.Fatalf("missing job %s", c.job)
		}
		if j.Engine != c.engine || j.Period != c.period {
			t.Errorf("%s: engine=%s period=%s, want %s/%s", c.job, j.Engine, j.Period, c.engine, c.period)
		}
	}

	// Rules: device-unreachable per device, bgp-session-down for sw1's
	// session, interface-flatline + flatline-octets per interface.
	type rk struct {
		name, dev, key string
	}
	got := make(map[rk]AlarmRule, len(rules))
	for _, r := range rules {
		got[rk{r.Name, r.Device, r.Key}] = r
	}
	want := []rk{
		{"device-unreachable", "sw1", "cpu_util"},
		{"device-unreachable", "sw2", "cpu_util"},
		{"bgp-session-down", "sw1", "2401:db00::1"},
		{"interface-flatline", "sw1", "et1/1/in_octets"},
		{"interface-flatline", "sw2", "et1/1/in_octets"},
		{"flatline-octets", "sw1", "et1/1/out_octets"},
		{"flatline-octets", "sw2", "et1/1/out_octets"},
	}
	if len(rules) != len(want) {
		t.Fatalf("want %d rules, got %d: %v", len(want), len(rules), rules)
	}
	for _, w := range want {
		if _, ok := got[w]; !ok {
			t.Errorf("missing rule %+v", w)
		}
	}

	// The derivation is deterministic: a second run yields the same order.
	jobs2, rules2 := deriveFrom(t, store)
	for i := range jobs {
		if jobs[i].Name != jobs2[i].Name {
			t.Fatalf("job order unstable at %d: %s vs %s", i, jobs[i].Name, jobs2[i].Name)
		}
	}
	for i := range rules {
		if rules[i] != rules2[i] {
			t.Fatalf("rule order unstable at %d", i)
		}
	}
}

func TestReplaceJobsSwapsDerivedPrefix(t *testing.T) {
	store := deriveFixture(t)
	jobs, _ := deriveFrom(t, store)
	jm := derivedJobManager(t, store)
	// A hand-installed job outside the prefix must survive swaps.
	if err := jm.AddJob(JobSpec{Name: "manual-sweep", Period: time.Hour,
		Engine: EngineSNMP, Data: DataCounters, Devices: []string{"sw1"}}); err != nil {
		t.Fatal(err)
	}
	if err := jm.ReplaceJobs("derived-", jobs); err != nil {
		t.Fatal(err)
	}
	if got := len(jm.Jobs()); got != len(jobs)+1 {
		t.Fatalf("want %d jobs after first swap, got %d", len(jobs)+1, got)
	}
	// Swapping with a subset removes the rest but keeps manual-sweep.
	if err := jm.ReplaceJobs("derived-", jobs[:2]); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, j := range jm.Jobs() {
		names[j.Name] = true
	}
	if len(names) != 3 || !names["manual-sweep"] {
		t.Fatalf("second swap left %v", names)
	}
	// A spec outside the prefix is rejected wholesale.
	if err := jm.ReplaceJobs("derived-", []JobSpec{{Name: "rogue", Period: time.Minute,
		Engine: EngineSNMP, Data: DataCounters, Devices: []string{"sw1"}}}); err == nil {
		t.Fatal("ReplaceJobs accepted a spec outside its prefix")
	}

	// By device, each device's jobs land where the wholesale swap of the
	// whole set puts them: sw2's after sw1's, then sw1's complete again.
	ofDevice := func(dev string) []JobSpec {
		return slices.DeleteFunc(slices.Clone(jobs), func(j JobSpec) bool { return j.Devices[0] != dev })
	}
	if err := jm.ReplaceDeviceJobs("derived-", []string{"sw2"}, ofDevice("sw1")); err == nil {
		t.Fatal("ReplaceDeviceJobs accepted a job of a device it does not replace")
	}
	for _, dev := range []string{"sw2", "sw1"} {
		if err := jm.ReplaceDeviceJobs("derived-", []string{dev}, ofDevice(dev)); err != nil {
			t.Fatal(err)
		}
	}
	if got := jm.Jobs(); !reflect.DeepEqual(got[1:], jobs) || got[0].Name != "manual-sweep" {
		t.Fatalf("after replacing by device the jobs are %v, want manual-sweep then %v", got, jobs)
	}
}

// TestReplaceRulesKeepsDerivedOrder: a derived set installs in the alarm
// engine's own order; any other order of the same set installs to the same
// slice; and a swap — wholesale or by device — drops exactly the active
// alarms whose rule is gone, leaving every other one as it was.
func TestReplaceRulesKeepsDerivedOrder(t *testing.T) {
	store, err := fbnet.Open(relstore.NewDB("order-test"), fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.NewDesigner(store, design.DefaultPools())
	if err != nil {
		t.Fatal(err)
	}
	ctx := func(domain string) design.ChangeContext {
		return design.ChangeContext{EmployeeID: "e1", TicketID: "T-1", Description: "test", Domain: domain, NowUnix: 1_700_000_000}
	}
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(nil, d.EnsureStandardHardware())
	for _, s := range [][2]string{{"pop1", "pop"}, {"dc1", "dc"}, {"bb1", "backbone"}} {
		must(d.EnsureSite(s[0], s[1], "nam"))
	}
	must(d.BuildCluster(ctx("pop"), "pop1", "pop1-c1", design.POPGen1()))
	must(d.BuildCluster(ctx("dc"), "dc1", "dc1-c1", design.DCGen3(12)))
	for _, name := range []string{"bb1.bb1", "bb2.bb1", "pr1.bb1"} {
		must(d.AddBackboneRouter(ctx("backbone"), name, "bb1", "Backbone_Vendor2", name[:2]))
	}
	must(d.AddBackboneCircuit(ctx("backbone"), "bb1.bb1", "bb2.bb1", 2))

	_, rules := deriveFrom(t, store)
	vc := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	ts := NewTimeseriesBackend()
	ae := NewAlarmEngine(vc, ts, store)
	ae.ReplaceRules(rules)
	if !reflect.DeepEqual(ae.Rules(), rules) {
		t.Fatal("a derived rule set installed in a different order")
	}
	shuffled := slices.Clone(rules)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	ae.ReplaceRules(shuffled)
	if !reflect.DeepEqual(ae.Rules(), rules) {
		t.Fatal("a shuffled rule set installed in a different order")
	}

	// Two sessions observed down: both fire; the rule of one then vanishes.
	var down []AlarmRule
	for _, r := range rules {
		if r.Kind == KindBGPState && len(down) < 2 {
			down = append(down, r)
		}
	}
	var devices []string
	observed := map[string][]netsim.BGPPeerStatus{}
	for _, r := range down {
		if observed[r.Device] == nil {
			devices = append(devices, r.Device)
		}
		observed[r.Device] = append(observed[r.Device], netsim.BGPPeerStatus{PeerAddr: r.Key, Family: "v6", State: "Idle"})
	}
	for _, device := range devices {
		observeSessions(t, ts, store, device, observed[device]...)
	}
	fired := ae.Evaluate()
	if len(fired) != 2 {
		t.Fatalf("want 2 firing alarms, got %+v", fired)
	}
	vc.Advance(time.Minute)
	ae.ReplaceRules(slices.DeleteFunc(slices.Clone(rules), func(r AlarmRule) bool { return r == down[0] }))
	kept := ae.Firing()
	if len(kept) != 1 || kept[0].Key != down[1].Key || !kept[0].Since.Equal(fired[1].Since) || !kept[0].FiredAt.Equal(fired[1].FiredAt) {
		t.Fatalf("after dropping %s/%s the firing alarms are %+v, want %+v unchanged", down[0].Device, down[0].Key, kept, fired[1])
	}

	// By device: re-installing another device's rules leaves the alarm as
	// it is; re-installing its own device's without its rule drops it, and
	// the set ends where the wholesale swap would leave it.
	ofDevice := func(rs []AlarmRule, dev string) []AlarmRule {
		return slices.DeleteFunc(slices.Clone(rs), func(r AlarmRule) bool { return r.Device != dev })
	}
	var other string
	for _, r := range rules {
		if r.Device != down[0].Device && r.Device != down[1].Device {
			other = r.Device
			break
		}
	}
	ae.ReplaceDeviceRules([]string{other}, ofDevice(rules, other))
	if got := ae.Firing(); !reflect.DeepEqual(got, kept) {
		t.Fatalf("re-installing %s's rules changed the firing alarms to %+v, want %+v", other, got, kept)
	}
	want := slices.DeleteFunc(slices.Clone(rules), func(r AlarmRule) bool { return r == down[0] || r == down[1] })
	ae.ReplaceDeviceRules([]string{down[1].Device}, ofDevice(want, down[1].Device))
	if got := ae.Firing(); len(got) != 0 {
		t.Fatalf("the alarm survived its rule: %+v", got)
	}
	if !reflect.DeepEqual(ae.Rules(), want) {
		t.Fatal("replacing by device left another set than the wholesale swap")
	}
}
