package monitor

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
)

func msg(host, text string) netsim.SyslogMessage {
	return netsim.SyslogMessage{Severity: 4, Host: host, App: "test", Text: text, Time: time.Now()}
}

func TestClassifierRulesAndCounts(t *testing.T) {
	c := NewClassifier()
	StandardRules(c)
	cases := []struct {
		text string
		want Urgency
	}{
		{"DEVICE_REBOOT: System reboot requested", Critical},
		{"LINECARD_REMOVED: Linecard in slot 2 removed", Major},
		{"IP_CONFLICT: duplicate address detected", Minor},
		{"LINK_STATE: Interface ae0 changed state to down", Warning},
		{"LINK_STATE: Interface ae0 changed state to up", Ignored},
		{"CONFIG_CHANGED: configuration committed", Notice},
		{"LSP change on path 7", Ignored},
		{"User authentication succeeded", Ignored},
	}
	for _, tc := range cases {
		_, got := c.Process(msg("dev1", tc.text))
		if got != tc.want {
			t.Errorf("Process(%q) urgency = %s, want %s", tc.text, got, tc.want)
		}
	}
	counts := c.Counts()
	if counts[Ignored] != 3 || counts[Critical] != 1 || counts[Warning] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if c.Total() != int64(len(cases)) {
		t.Errorf("total = %d", c.Total())
	}
	rules := c.RuleCounts()
	if rules[Critical] != 2 || rules[Notice] != 4 {
		t.Errorf("rule counts = %v", rules)
	}
}

func TestClassifierFirstMatchWins(t *testing.T) {
	c := NewClassifier()
	c.MustAddRule(Rule{Name: "specific", Pattern: `CONFIG_CHANGED: special`, Urgency: Major})
	c.MustAddRule(Rule{Name: "generic", Pattern: `CONFIG_CHANGED`, Urgency: Notice})
	rule, u := c.Process(msg("d", "CONFIG_CHANGED: special case"))
	if rule != "specific" || u != Major {
		t.Errorf("matched %s/%s", rule, u)
	}
}

func TestClassifierValidation(t *testing.T) {
	c := NewClassifier()
	if err := c.AddRule(Rule{Name: "bad", Pattern: "("}); err == nil {
		t.Error("bad regex should fail")
	}
	c.MustAddRule(Rule{Name: "x", Pattern: "a"})
	if err := c.AddRule(Rule{Name: "x", Pattern: "b"}); err == nil {
		t.Error("duplicate rule name should fail")
	}
}

func TestClassifierAutoRemediate(t *testing.T) {
	c := NewClassifier()
	var remediated []string
	c.MustAddRule(Rule{
		Name: "flap", Pattern: `LINK_STATE`, Urgency: Warning,
		AutoRemediate: func(m netsim.SyslogMessage) { remediated = append(remediated, m.Host) },
	})
	c.Process(msg("dev9", "LINK_STATE: Interface et1/1 changed state to down"))
	if len(remediated) != 1 || remediated[0] != "dev9" {
		t.Errorf("remediated = %v", remediated)
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	cls := NewClassifier()
	StandardRules(cls)
	var mu sync.Mutex
	var alerts []Alert
	cls.OnAlert(func(a Alert) { mu.Lock(); alerts = append(alerts, a); mu.Unlock() })

	col, err := NewCollector("127.0.0.1:0", cls)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// Devices log to the collector's (anycast) address over UDP.
	fleet := netsim.NewFleet(vclock.RealClock())
	d, _ := fleet.AddDevice("psw1", netsim.Vendor1, "psw", "pop1")
	sink, err := netsim.UDPSyslogSink(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	d.SetSyslogSink(sink)
	d.LoadConfig("interface ae0\n")
	d.Commit()
	d.Reboot()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cls.Total() >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	counts := cls.Counts()
	if counts[Notice] < 1 { // CONFIG_CHANGED
		t.Errorf("no config-changed event: %v", counts)
	}
	if counts[Critical] < 1 { // DEVICE_REBOOT
		t.Errorf("no reboot event: %v", counts)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(alerts) < 2 {
		t.Errorf("alerts = %d", len(alerts))
	}
}

// newMonitoredFleet builds a fleet + job manager + backends over a fresh
// FBNet store.
func newMonitoredFleet(t testing.TB, n int) (*netsim.Fleet, *JobManager, *fbnet.Store, *revctl.Repo) {
	t.Helper()
	return newMonitoredFleetOn(t, n, vclock.RealClock())
}

// newMonitoredFleetOn is newMonitoredFleet with the fleet and the job
// manager on clock. The store and the job manager count into one registry,
// the store's server's (registryOf).
func newMonitoredFleetOn(t testing.TB, n int, clock vclock.Clock) (*netsim.Fleet, *JobManager, *fbnet.Store, *revctl.Repo) {
	t.Helper()
	fleet := netsim.NewFleet(clock)
	for i := 0; i < n; i++ {
		d, err := fleet.AddDevice(fmt.Sprintf("dev%02d", i), netsim.Vendor1, "psw", "pop1")
		if err != nil {
			t.Fatal(err)
		}
		d.LoadConfig(fmt.Sprintf("hostname dev%02d\ninterface et1/1\ninterface et1/2\n", i))
		d.Commit()
	}
	// Cable a chain so LLDP has content.
	for i := 0; i+1 < n; i++ {
		if err := fleet.Wire(fmt.Sprintf("dev%02d", i), "et1/2", fmt.Sprintf("dev%02d", i+1), "et1/1"); err != nil {
			t.Fatal(err)
		}
	}
	reg := telemetry.NewRegistry()
	db := relstore.NewDB("master", reg)
	store, err := fbnet.Open(db, fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	repo := revctl.NewRepo()
	jm := NewJobManager(FleetDeviceResolver(fleet), clock, reg)
	ts := NewTimeseriesBackend()
	for _, b := range []Backend{ts, NewDerivedBackend(store, ts), NewConfigBackend(repo)} {
		if err := jm.RegisterBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	return fleet, jm, store, repo
}

// registryOf is the registry store's server counts into: the one a test
// world built every component on.
func registryOf(store *fbnet.Store) *telemetry.Registry { return store.DB().Telemetry() }

// counterValue reads one counter of reg (0 when it is not registered).
func counterValue(reg *telemetry.Registry, name string, labels ...telemetry.Label) int64 {
	v, _ := reg.Value(name, labels...)
	return int64(v)
}

func TestJobValidation(t *testing.T) {
	_, jm, _, _ := newMonitoredFleet(t, 2)
	good := JobSpec{Name: "j", Period: time.Second, Engine: EngineSNMP, Data: DataCounters, Devices: []string{"dev00"}}
	if err := jm.AddJob(good); err != nil {
		t.Fatal(err)
	}
	cases := []JobSpec{
		{Name: "", Period: time.Second, Engine: EngineSNMP, Data: DataCounters, Devices: []string{"dev00"}},
		{Name: "j", Period: time.Second, Engine: EngineSNMP, Data: DataCounters, Devices: []string{"dev00"}}, // dup
		{Name: "k", Period: 0, Engine: EngineSNMP, Data: DataCounters, Devices: []string{"dev00"}},
		{Name: "l", Period: time.Second, Engine: "bogus", Data: DataCounters, Devices: []string{"dev00"}},
		{Name: "m", Period: time.Second, Engine: EngineSNMP, Data: DataLLDP, Devices: []string{"dev00"}}, // snmp can't lldp
		{Name: "n", Period: time.Second, Engine: EngineSNMP, Data: DataCounters},
		{Name: "o", Period: time.Second, Engine: EngineSNMP, Data: DataCounters, Devices: []string{"dev00"}, Backends: []string{"ghost"}},
	}
	for _, spec := range cases {
		if err := jm.AddJob(spec); err == nil {
			t.Errorf("AddJob(%+v) should fail", spec)
		}
	}
}

func TestEngineCapabilities(t *testing.T) {
	engines := NewEngines()
	if engines[EngineSNMP].Supports(DataConfig) {
		t.Error("SNMP must not collect configs")
	}
	if !engines[EngineCLI].Supports(DataLLDP) {
		t.Error("CLI must collect LLDP (vendor-gap fallback)")
	}
	if !engines[EngineThrift].Supports(DataBGP) {
		t.Error("Thrift should collect BGP")
	}
}

func TestRunOncePopulatesBackends(t *testing.T) {
	_, jm, store, repo := newMonitoredFleet(t, 3)
	specs := []JobSpec{
		{Name: "counters", Period: time.Minute, Engine: EngineSNMP, Data: DataCounters,
			Devices: []string{"dev00", "dev01", "dev02"}, Backends: []string{"timeseries"}},
		{Name: "ifaces", Period: time.Minute, Engine: EngineRPCXML, Data: DataInterfaces,
			Devices: []string{"dev00", "dev01", "dev02"}, Backends: []string{"fbnet-derived"}},
		{Name: "lldp", Period: time.Minute, Engine: EngineCLI, Data: DataLLDP,
			Devices: []string{"dev00", "dev01", "dev02"}, Backends: []string{"fbnet-derived"}},
		{Name: "version", Period: time.Minute, Engine: EngineThrift, Data: DataVersion,
			Devices: []string{"dev00", "dev01", "dev02"}, Backends: []string{"fbnet-derived"}},
		{Name: "config", Period: time.Minute, Engine: EngineCLI, Data: DataConfig,
			Devices: []string{"dev00"}, Backends: []string{"config-backup"}},
	}
	for _, s := range specs {
		if _, err := jm.RunOnce(s); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	// Timeseries got counter samples.
	ts := jm.backends["timeseries"].(*TimeseriesBackend)
	if len(ts.Keys()) == 0 {
		t.Error("no timeseries keys")
	}
	if s := ts.Series("dev00/cpu_util"); len(s) != 1 {
		t.Errorf("cpu series = %v", s)
	}
	// Derived models populated.
	if n, _ := store.Count("DerivedDevice"); n != 3 {
		t.Errorf("DerivedDevice = %d", n)
	}
	if n, _ := store.Count("DerivedInterface"); n != 6 {
		t.Errorf("DerivedInterface = %d", n)
	}
	// oper_status reflects the chain wiring: dev01 middle has both up.
	objs, _ := store.Find("DerivedInterface", fbnet.And(
		fbnet.Eq("device_name", "dev01"), fbnet.Eq("oper_status", "up")))
	if len(objs) != 2 {
		t.Errorf("dev01 up interfaces = %d, want 2", len(objs))
	}
	// Config backup archived.
	if _, err := repo.GetHead(BackupPath("dev00")); err != nil {
		t.Errorf("no config backup: %v", err)
	}
	// Event stats counted per engine.
	counts := jm.Stats().Counts()
	if counts[EngineSNMP] != 3 || counts[EngineCLI] != 4 || counts[EngineRPCXML] != 3 || counts[EngineThrift] != 3 {
		t.Errorf("event counts = %v", counts)
	}
}

func TestUpsertIdempotent(t *testing.T) {
	_, jm, store, _ := newMonitoredFleet(t, 1)
	spec := JobSpec{Name: "v", Period: time.Minute, Engine: EngineThrift, Data: DataVersion,
		Devices: []string{"dev00"}, Backends: []string{"fbnet-derived"}}
	for i := 0; i < 3; i++ {
		if _, err := jm.RunOnce(spec); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := store.Count("DerivedDevice"); n != 1 {
		t.Errorf("DerivedDevice = %d after repeated polls, want 1", n)
	}
}

func TestDeriveCircuitsFromLLDP(t *testing.T) {
	_, jm, store, _ := newMonitoredFleet(t, 4)
	if _, err := jm.RunOnce(JobSpec{Name: "lldp", Period: time.Minute, Engine: EngineCLI,
		Data: DataLLDP, Devices: []string{"dev00", "dev01", "dev02", "dev03"},
		Backends: []string{"fbnet-derived"}}); err != nil {
		t.Fatal(err)
	}
	n, err := DeriveCircuits(store)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // chain of 4 devices = 3 circuits
		t.Errorf("derived circuits = %d, want 3", n)
	}
	objs, _ := store.Find("DerivedCircuit", nil)
	for _, o := range objs {
		if o.String("a_device") >= o.String("z_device") {
			t.Errorf("non-canonical circuit orientation: %+v", o)
		}
	}
	// Idempotent re-derivation.
	n2, _ := DeriveCircuits(store)
	if n2 != 3 {
		t.Errorf("re-derivation = %d", n2)
	}
	if cnt, _ := store.Count("DerivedCircuit"); cnt != 3 {
		t.Errorf("DerivedCircuit = %d after re-derivation", cnt)
	}
}

// TestDeriveCircuitsRequiresBothSides: a one-sided LLDP claim (far side
// down) must not produce a circuit.
func TestDeriveCircuitsRequiresBothSides(t *testing.T) {
	db := relstore.NewDB("m", nil)
	store, _ := fbnet.Open(db, fbnet.NewCatalog())
	_, err := store.Mutate(func(m *fbnet.Mutation) error {
		_, err := m.Create("DerivedLldpNeighbor", map[string]any{
			"device_name": "a", "interface_name": "et1/1",
			"neighbor_device": "b", "neighbor_interface": "et1/1",
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := DeriveCircuits(store)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("one-sided adjacency produced %d circuits", n)
	}
}

// TestRunVirtualDeterministicCounts: Start on a VirtualClock runs every
// job as many times as its period fits into the advanced hour, inline in
// Advance, and nothing after Stop.
func TestRunVirtualDeterministicCounts(t *testing.T) {
	clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	_, jm, _, _ := newMonitoredFleetOn(t, 2, clk)
	jm.AddJob(JobSpec{Name: "fast", Period: time.Minute, Engine: EngineSNMP,
		Data: DataCounters, Devices: []string{"dev00", "dev01"}})
	jm.AddJob(JobSpec{Name: "slow", Period: 10 * time.Minute, Engine: EngineCLI,
		Data: DataConfig, Devices: []string{"dev00"}})
	jm.Start()
	clk.Advance(time.Hour)
	jm.Stop()
	counts := jm.Stats().Counts()
	if counts[EngineSNMP] != 120 { // 60 runs x 2 devices
		t.Errorf("snmp events = %d, want 120", counts[EngineSNMP])
	}
	if counts[EngineCLI] != 6 {
		t.Errorf("cli events = %d, want 6", counts[EngineCLI])
	}
	clk.Advance(time.Hour)
	if after := jm.Stats().Counts(); after[EngineSNMP] != counts[EngineSNMP] || after[EngineCLI] != counts[EngineCLI] {
		t.Errorf("polling continued after Stop: %v -> %v", counts, after)
	}
	if n := clk.PendingTimers(); n != 0 {
		t.Errorf("Stop left %d timer(s) armed", n)
	}
}

// TestStartStopRealTime is the wall-clock smoke test of the scheduler:
// jobs run on their period, a job swapped in by ReplaceJobs after Start
// is followed, and nothing executes after Stop returns.
func TestStartStopRealTime(t *testing.T) {
	_, jm, _, _ := newMonitoredFleet(t, 2)
	jm.AddJob(JobSpec{Name: "fast", Period: 2 * time.Millisecond, Engine: EngineSNMP,
		Data: DataCounters, Devices: []string{"dev00"}})
	jm.Start()
	waitFor := func(e EngineType, n int64) bool {
		deadline := time.Now().Add(2 * time.Second)
		for jm.Stats().Counts()[e] < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return jm.Stats().Counts()[e] >= n
	}
	if !waitFor(EngineSNMP, 3) {
		t.Errorf("periodic polling produced %d events", jm.Stats().Counts()[EngineSNMP])
	}
	if err := jm.ReplaceJobs("derived-", []JobSpec{{Name: "derived-cli", Period: 2 * time.Millisecond,
		Engine: EngineCLI, Data: DataConfig, Devices: []string{"dev01"}}}); err != nil {
		t.Fatal(err)
	}
	if !waitFor(EngineCLI, 3) {
		t.Errorf("job swapped in after Start was polled %d time(s)", jm.Stats().Counts()[EngineCLI])
	}
	jm.Stop()
	counts := jm.Stats().Counts()
	time.Sleep(20 * time.Millisecond)
	if after := jm.Stats().Counts(); after[EngineSNMP] != counts[EngineSNMP] || after[EngineCLI] != counts[EngineCLI] {
		t.Errorf("polling continued after Stop: %v -> %v", counts, after)
	}
}

// TestStartedManagerFollowsLiveJobSet pins the stale-job-set fix: core
// calls ReplaceJobs("derived-", ...) after every provision and deploy, so
// a started manager must poll a job swapped in after Start — into an
// empty job set too — and stop polling the one swapped out.
func TestStartedManagerFollowsLiveJobSet(t *testing.T) {
	clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	_, jm, _, _ := newMonitoredFleetOn(t, 2, clk)
	snmp := JobSpec{Name: "derived-old", Period: 5 * time.Millisecond, Engine: EngineSNMP,
		Data: DataCounters, Devices: []string{"dev00"}}
	cli := JobSpec{Name: "derived-new", Period: 5 * time.Millisecond, Engine: EngineCLI,
		Data: DataConfig, Devices: []string{"dev01"}}
	jm.Start()
	defer jm.Stop()
	if err := jm.ReplaceJobs("derived-", []JobSpec{snmp}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	if got := jm.Stats().Counts()[EngineSNMP]; got != 2 {
		t.Fatalf("the job installed after Start was polled %d time(s), want 2", got)
	}
	if err := jm.ReplaceJobs("derived-", []JobSpec{cli}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(15 * time.Millisecond)
	if got := jm.Stats().Counts()[EngineCLI]; got != 3 {
		t.Fatalf("job swapped in after Start was polled %d time(s), want 3", got)
	}
	if got := jm.Stats().Counts()[EngineSNMP]; got != 2 {
		t.Errorf("swapped-out job kept polling: 2 -> %d", got)
	}
}

func TestUnreachableDeviceCountsError(t *testing.T) {
	fleet, jm, store, _ := newMonitoredFleet(t, 2)
	d, _ := fleet.Device("dev01")
	d.SetDown(true)
	jm.RunOnce(JobSpec{Name: "c", Period: time.Minute, Engine: EngineSNMP,
		Data: DataCounters, Devices: []string{"dev00", "dev01"}})
	if n := counterValue(registryOf(store), "robotron_monitor_poll_errors_total"); n != 1 {
		t.Errorf("errors = %d, want 1", n)
	}
	if jm.Stats().Counts()[EngineSNMP] != 1 {
		t.Errorf("successful polls = %d, want 1", jm.Stats().Counts()[EngineSNMP])
	}
}

func TestConfigMonitorDetectsDriftAndRestores(t *testing.T) {
	fleet, jm, store, repo := newMonitoredFleet(t, 2)
	dev, _ := fleet.Device("dev00")
	goldenCfg, _ := dev.RunningConfig()
	repo.Commit("golden/dev00", goldenCfg, "robotron", "provisioned")

	cls := NewClassifier()
	StandardRules(cls)
	cm := NewConfigMonitor(jm, repo, store, func(d string) (string, error) {
		return repo.GetHead("golden/" + d)
	}, registryOf(store))
	cm.Attach(cls)
	var mu sync.Mutex
	var notified []Deviation
	cm.OnDeviation(func(d Deviation) { mu.Lock(); notified = append(notified, d); mu.Unlock() })

	// Engineer bypasses Robotron (§8 Automation Fallbacks): manual change
	// emits a syslog that the classifier routes to the config monitor.
	dev.SetSyslogSink(func(m netsim.SyslogMessage) { cls.Process(m) })
	if err := dev.ApplyManualChange("snmp-server community leaked"); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	got := len(notified)
	mu.Unlock()
	if got != 1 {
		t.Fatalf("deviations notified = %d, want 1", got)
	}
	mu.Lock()
	devn := notified[0]
	mu.Unlock()
	if devn.Device != "dev00" || !strings.Contains(devn.Diff, "+ snmp-server community leaked") {
		t.Errorf("deviation = %+v", devn)
	}
	// Conformance recorded in Derived models.
	obj, err := store.FindOne("DerivedConfig", fbnet.Eq("device_name", "dev00"))
	if err != nil {
		t.Fatal(err)
	}
	if obj.Bool("conforms") {
		t.Error("DerivedConfig should record non-conformance")
	}
	// The drifted config was archived for rollback.
	backup, err := repo.GetHead(BackupPath("dev00"))
	if err != nil || !strings.Contains(backup, "leaked") {
		t.Errorf("drifted config not archived: %v", err)
	}
	// Pushing golden back (what the reconciler's remediation does) makes
	// the next check conform, and the Derived record follows.
	if err := dev.LoadConfig(goldenCfg); err != nil {
		t.Fatal(err)
	}
	if err := dev.Commit(); err != nil {
		t.Fatal(err)
	}
	if d, err := cm.CheckDevice("dev00"); err != nil || d != nil {
		t.Fatalf("check after restoring golden = %+v, %v; want conforming", d, err)
	}
	obj, _ = store.FindOne("DerivedConfig", fbnet.Eq("device_name", "dev00"))
	if !obj.Bool("conforms") {
		t.Error("conformance not updated after restore")
	}
}

func TestConfigMonitorConformingChangeIsQuiet(t *testing.T) {
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	fleet, jm, store, repo := newMonitoredFleetOn(t, 1, vclock.NewVirtualClock(at))
	dev, _ := fleet.Device("dev00")
	cfg, _ := dev.RunningConfig()
	repo.Commit("golden/dev00", cfg, "robotron", "provisioned")
	cm := NewConfigMonitor(jm, repo, store, func(d string) (string, error) {
		return repo.GetHead("golden/" + d)
	}, registryOf(store))
	devn, err := cm.CheckDevice("dev00")
	if err != nil {
		t.Fatal(err)
	}
	if devn != nil {
		t.Errorf("conforming device reported deviation: %+v", devn)
	}
	if len(cm.Deviations()) != 0 {
		t.Error("deviation recorded for conforming device")
	}
	// The conformance record carries the collection's (virtual) time, not
	// the wall clock.
	obj, err := store.FindOne("DerivedConfig", fbnet.Eq("device_name", "dev00"))
	if err != nil {
		t.Fatal(err)
	}
	if got := obj.Int("collected_unix"); got != at.Unix() {
		t.Errorf("collected_unix = %d, want the check's virtual time %d", got, at.Unix())
	}
}

func TestFormatTables(t *testing.T) {
	c := NewClassifier()
	StandardRules(c)
	c.Process(msg("d", "DEVICE_REBOOT: x"))
	c.Process(msg("d", "noise"))
	t3 := FormatTable3(c)
	if !strings.Contains(t3, "CRITICAL") || !strings.Contains(t3, "IGNORED") {
		t.Errorf("table3 = %q", t3)
	}
	stats := newEventStats(NewEngines(), telemetry.NewRegistry())
	stats.polls[EngineSNMP].Add(100)
	stats.polls[EngineCLI].Add(20)
	t2 := FormatTable2(stats, 40)
	if !strings.Contains(t2, "SNMP (active)") || !strings.Contains(t2, "Syslog (passive)") {
		t.Errorf("table2 = %q", t2)
	}
	if !strings.Contains(t2, "62.50%") { // 100/160
		t.Errorf("table2 percentages wrong:\n%s", t2)
	}
}

func BenchmarkClassifier(b *testing.B) {
	c := NewClassifier()
	StandardRules(c)
	msgs := []netsim.SyslogMessage{
		msg("d", "LINK_STATE: Interface ae0 changed state to down"),
		msg("d", "LSP change ignored noise message"),
		msg("d", "CONFIG_CHANGED: configuration committed"),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Process(msgs[i%len(msgs)])
	}
}

func BenchmarkSNMPPoll(b *testing.B) {
	_, jm, _, _ := newMonitoredFleet(b, 8)
	spec := JobSpec{Name: "bench", Period: time.Minute, Engine: EngineSNMP,
		Data: DataCounters, Devices: SortedDeviceNamesN(8)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jm.RunOnce(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// SortedDeviceNamesN builds devNN names for benches.
func SortedDeviceNamesN(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dev%02d", i)
	}
	return out
}

// TestConfigMonitorReportsCheckErrors: an event-triggered check that
// errors (device unreachable) must not vanish — the counter advances and
// OnCheckError subscribers hear about it.
func TestConfigMonitorReportsCheckErrors(t *testing.T) {
	fleet, jm, store, repo := newMonitoredFleet(t, 1)
	dev, _ := fleet.Device("dev00")
	cfg, _ := dev.RunningConfig()
	repo.Commit("golden/dev00", cfg, "robotron", "provisioned")

	cls := NewClassifier()
	StandardRules(cls)
	cm := NewConfigMonitor(jm, repo, store, func(d string) (string, error) {
		return repo.GetHead("golden/" + d)
	}, registryOf(store))
	cm.Attach(cls)
	var mu sync.Mutex
	type checkErr struct {
		device string
		err    error
	}
	var heard []checkErr
	cm.OnCheckError(func(device string, err error) {
		mu.Lock()
		heard = append(heard, checkErr{device, err})
		mu.Unlock()
	})

	dev.SetDown(true)
	cls.Process(msg("dev00", "CONFIG_CHANGED: configuration changed out-of-band"))

	if n := counterValue(registryOf(store), "robotron_monitor_check_errors_total"); n != 1 {
		t.Errorf("check errors = %d, want 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(heard) != 1 || heard[0].device != "dev00" || heard[0].err == nil {
		t.Fatalf("OnCheckError heard = %+v", heard)
	}
	if len(cm.Deviations()) != 0 {
		t.Error("failed check must not record a deviation")
	}
}
