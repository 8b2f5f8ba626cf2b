package monitor

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
)

// alarmFixture builds an engine over a fresh store, both counting into one
// registry (registryOf the store).
func alarmFixture(t *testing.T) (*vclock.VirtualClock, *TimeseriesBackend, *fbnet.Store, *AlarmEngine) {
	t.Helper()
	vc := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	ts := NewTimeseriesBackend()
	reg := telemetry.NewRegistry()
	store, err := fbnet.Open(relstore.NewDB("alarm-test", reg), fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	return vc, ts, store, NewAlarmEngine(vc, ts, store, reg)
}

// pushSample stores one sample under key (device/metric) and marks the
// device, as Store does.
func pushSample(ts *TimeseriesBackend, key string, at time.Time, v float64) {
	device, metric, _ := strings.Cut(key, "/")
	ts.push(device, metric, Sample{AtUnix: at.Unix(), Value: v})
}

// observeSessions stores a BGP collection of device through a Derived
// backend that marks what it changes in ts: the one writer of observed
// sessions, wired as core.New wires it.
func observeSessions(t *testing.T, ts *TimeseriesBackend, store *fbnet.Store, device string, peers ...netsim.BGPPeerStatus) {
	t.Helper()
	if err := NewDerivedBackend(store, ts).Store(Collection{Device: device, Data: DataBGP, BGP: peers}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdAlarmLifecycle(t *testing.T) {
	vc, ts, store, ae := alarmFixture(t)
	reg := registryOf(store)
	ae.ReplaceRules([]AlarmRule{{
		Name: "cpu-high", Kind: KindThreshold, Device: "dev1", Key: "cpu_util",
		Op: ">=", Value: 0.9, Urgency: Major,
	}})

	// No data: no alarm.
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("no data, got %d alarms", len(got))
	}
	// Breach fires immediately (PendingFor 0).
	pushSample(ts, "dev1/cpu_util", vc.Now(), 0.95)
	firing := ae.Evaluate()
	if len(firing) != 1 || firing[0].State != AlarmFiring {
		t.Fatalf("want 1 firing alarm, got %+v", firing)
	}
	if v, _ := reg.Value("robotron_alarms_firing"); v != 1 {
		t.Fatalf("firing gauge = %v, want 1", v)
	}
	// Re-evaluation deduplicates: still one alarm, fired once.
	ae.Evaluate()
	if v, _ := reg.Value("robotron_alarms_fired_total", telemetry.L("rule", "cpu-high")...); v != 1 {
		t.Fatalf("fired counter = %v, want 1 (dedup)", v)
	}
	// Clear resolves.
	vc.Advance(time.Minute)
	pushSample(ts, "dev1/cpu_util", vc.Now(), 0.2)
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("after clear, got %d firing", len(got))
	}
	snap := ae.Snapshot()
	if len(snap) != 1 || snap[0].State != AlarmResolved || snap[0].ResolvedAt.IsZero() {
		t.Fatalf("want one resolved alarm, got %+v", snap)
	}
	if v, _ := reg.Value("robotron_alarms_firing"); v != 0 {
		t.Fatalf("firing gauge = %v, want 0", v)
	}
	if v, _ := reg.Value("robotron_alarms_resolved_total", telemetry.L("rule", "cpu-high")...); v != 1 {
		t.Fatalf("resolved counter = %v, want 1", v)
	}
}

func TestPendingForHoldsAlarmBack(t *testing.T) {
	vc, ts, _, ae := alarmFixture(t)
	ae.ReplaceRules([]AlarmRule{{
		Name: "cpu-high", Kind: KindThreshold, Device: "dev1", Key: "cpu_util",
		Op: ">", Value: 0.5, PendingFor: 2 * time.Minute, Urgency: Warning,
	}})
	pushSample(ts, "dev1/cpu_util", vc.Now(), 0.8)
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("pending alarm fired immediately: %+v", got)
	}
	// Breach clears before PendingFor: pending silently dropped.
	vc.Advance(time.Minute)
	pushSample(ts, "dev1/cpu_util", vc.Now(), 0.1)
	ae.Evaluate()
	if snap := ae.Snapshot(); len(snap) != 0 {
		t.Fatalf("cleared pending left residue: %+v", snap)
	}
	// Breach persisting past PendingFor fires.
	pushSample(ts, "dev1/cpu_util", vc.Now(), 0.8)
	ae.Evaluate()
	vc.Advance(3 * time.Minute)
	pushSample(ts, "dev1/cpu_util", vc.Now(), 0.8)
	if got := ae.Evaluate(); len(got) != 1 {
		t.Fatalf("want 1 firing after PendingFor, got %d", len(got))
	}
}

func TestAbsenceAlarm(t *testing.T) {
	vc, ts, _, ae := alarmFixture(t)
	ae.ReplaceRules([]AlarmRule{{
		Name: "device-unreachable", Kind: KindAbsence, Device: "dev1", Key: "cpu_util",
		Window: 5 * time.Minute, Urgency: Critical,
	}})
	// A series that never reported cannot go absent.
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("absence fired with no samples: %+v", got)
	}
	pushSample(ts, "dev1/cpu_util", vc.Now(), 0.1)
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("fresh sample alarmed: %+v", got)
	}
	vc.Advance(6 * time.Minute)
	if got := ae.Evaluate(); len(got) != 1 {
		t.Fatalf("want absence alarm after silence, got %d", len(got))
	}
	// Reporting again resolves it.
	pushSample(ts, "dev1/cpu_util", vc.Now(), 0.1)
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("absence did not resolve: %+v", got)
	}
}

func TestFlatlineAlarm(t *testing.T) {
	vc, ts, _, ae := alarmFixture(t)
	ae.ReplaceRules([]AlarmRule{{
		Name: "flatline-octets", Kind: KindFlatline, Device: "dev1", Key: "eth1/out_octets",
		Urgency: Minor,
	}})
	pushSample(ts, "dev1/eth1/out_octets", vc.Now(), 100)
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("one sample alarmed: %+v", got)
	}
	vc.Advance(time.Minute)
	pushSample(ts, "dev1/eth1/out_octets", vc.Now(), 100) // frozen counter
	if got := ae.Evaluate(); len(got) != 1 {
		t.Fatalf("want flatline alarm, got %d", len(got))
	}
	vc.Advance(time.Minute)
	pushSample(ts, "dev1/eth1/out_octets", vc.Now(), 250)
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("flatline did not resolve on increase: %+v", got)
	}
}

func TestBGPStateAlarm(t *testing.T) {
	_, ts, store, ae := alarmFixture(t)
	ae.ReplaceRules([]AlarmRule{{
		Name: "bgp-session-down", Kind: KindBGPState, Device: "dev1", Key: "10.0.0.2",
		Urgency: Major,
	}})
	// No Derived row: nothing observed, nothing alarmed.
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("alarmed without observation: %+v", got)
	}
	setState := func(state string) {
		observeSessions(t, ts, store, "dev1", netsim.BGPPeerStatus{PeerAddr: "10.0.0.2", Family: "v4", State: state})
	}
	setState("Established")
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("established session alarmed: %+v", got)
	}
	setState("Active")
	if got := ae.Evaluate(); len(got) != 1 {
		t.Fatalf("want bgp alarm on Active, got %d", len(got))
	}
	setState("Established")
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("bgp alarm did not resolve: %+v", got)
	}
}

func TestFlapAlarm(t *testing.T) {
	vc, _, _, ae := alarmFixture(t)
	ae.ReplaceRules([]AlarmRule{{
		Name: "link-flap", Kind: KindFlap, Device: "dev1", Key: "link-state",
		Window: 10 * time.Minute, FlapCount: 3, Urgency: Warning,
	}})
	observe := func() {
		ae.ObserveAlert(Alert{Rule: "link-state", Urgency: Warning,
			Message: netsim.SyslogMessage{Host: "dev1", Time: vc.Now(), Text: "LINK_STATE: eth1 down"}})
	}
	observe()
	vc.Advance(time.Minute)
	observe()
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("two flaps alarmed below threshold: %+v", got)
	}
	vc.Advance(time.Minute)
	observe()
	if got := ae.Evaluate(); len(got) != 1 {
		t.Fatalf("want flap alarm at 3 within window, got %d", len(got))
	}
	// Outside the window the alerts age out and the alarm resolves.
	vc.Advance(15 * time.Minute)
	if got := ae.Evaluate(); len(got) != 0 {
		t.Fatalf("flap alarm did not age out: %+v", got)
	}
}

func TestCorrelationWindow(t *testing.T) {
	vc, ts, store, ae := alarmFixture(t)
	addEvent := func(kind, device string, at time.Time) {
		if _, err := store.Mutate(func(m *fbnet.Mutation) error {
			_, err := m.Create("OperationalEvent", map[string]any{
				"device_name": device, "kind": kind, "detail": kind + " on " + device,
				"urgency": "NOTICE", "at_unix": at.Unix(),
			})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One event outside the 15-minute look-back, one inside.
	addEvent("config-changed", "ancient", vc.Now())
	vc.Advance(30 * time.Minute)
	addEvent("config-changed", "dev9", vc.Now().Add(-time.Minute))

	ae.ReplaceRules([]AlarmRule{{
		Name: "bgp-session-down", Kind: KindBGPState, Device: "dev1", Key: "10.0.0.2", Urgency: Major,
	}})
	observeSessions(t, ts, store, "dev1", netsim.BGPPeerStatus{PeerAddr: "10.0.0.2", Family: "v4", State: "Active"})
	firing := ae.Evaluate()
	if len(firing) != 1 {
		t.Fatalf("want 1 firing, got %d", len(firing))
	}
	var sawRecent, sawAncient bool
	for _, c := range firing[0].Correlated {
		if c.Device == "dev9" {
			sawRecent = true
		}
		if c.Device == "ancient" {
			sawAncient = true
		}
	}
	if !sawRecent {
		t.Fatalf("correlation missed the in-window event: %+v", firing[0].Correlated)
	}
	if sawAncient {
		t.Fatalf("correlation included an event outside the look-back window")
	}
}

func TestTimelineMergedAndOrdered(t *testing.T) {
	vc, _, store, ae := alarmFixture(t)
	base := vc.Now()
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		if _, err := m.Create("DesignChange", map[string]any{
			"employee_id": "e1", "ticket_id": "T1", "description": "add pop",
			"domain": "pop", "created_unix": base.Unix(),
			"num_created": int64(3), "num_modified": int64(0), "num_deleted": int64(0),
		}); err != nil {
			return err
		}
		_, err := m.Create("OperationalEvent", map[string]any{
			"device_name": "verify-gate", "kind": "verify-gate", "detail": "ok",
			"urgency": "NOTICE", "at_unix": base.Add(time.Minute).Unix(),
		})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ae.SetJournalSource(func() []JournalEntry {
		return []JournalEntry{{At: base.Add(2 * time.Minute), Device: "dev1", Type: "converged", Detail: "ok"}}
	})
	tl := ae.Timeline(time.Time{}, time.Time{})
	if len(tl) != 3 {
		t.Fatalf("want 3 timeline entries, got %d: %+v", len(tl), tl)
	}
	wantStages := []string{"design", "verify", "reconcile"}
	for i, e := range tl {
		if e.Stage != wantStages[i] {
			t.Fatalf("entry %d stage = %s, want %s", i, e.Stage, wantStages[i])
		}
		if i > 0 && tl[i].At.Before(tl[i-1].At) {
			t.Fatalf("timeline out of order at %d", i)
		}
	}
	// Bounded query.
	mid := ae.Timeline(base.Add(30*time.Second), base.Add(90*time.Second))
	if len(mid) != 1 || mid[0].Stage != "verify" {
		t.Fatalf("bounded timeline = %+v, want just the verify entry", mid)
	}
}

func TestReplaceRulesDropsStaleActiveAlarms(t *testing.T) {
	vc, ts, store, ae := alarmFixture(t)
	reg := registryOf(store)
	ae.ReplaceRules([]AlarmRule{{
		Name: "cpu-high", Kind: KindThreshold, Device: "dev1", Key: "cpu_util",
		Op: ">", Value: 0.5, Urgency: Major,
	}})
	pushSample(ts, "dev1/cpu_util", vc.Now(), 0.9)
	if got := ae.Evaluate(); len(got) != 1 {
		t.Fatalf("want 1 firing, got %d", len(got))
	}
	// The design no longer declares dev1: its alarms go with it.
	ae.ReplaceRules(nil)
	if got := ae.Firing(); len(got) != 0 {
		t.Fatalf("stale alarm survived rule replacement: %+v", got)
	}
	if v, _ := reg.Value("robotron_alarms_firing"); v != 0 {
		t.Fatalf("firing gauge = %v after rule replacement, want 0", v)
	}
}

// quietEngine is an engine with an absence and a flatline rule on each of
// devices live devices: none is breached. It counts into a registry of its
// own, ae.reg.
func quietEngine(devices int) *AlarmEngine {
	vc := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	ts := NewTimeseriesBackend()
	ae := NewAlarmEngine(vc, ts, nil, telemetry.NewRegistry())
	rules := make([]AlarmRule, 0, devices*2)
	for i := 0; i < devices; i++ {
		dev := fmt.Sprintf("dev%03d", i)
		for s := 0; s < 16; s++ {
			pushSample(ts, dev+"/cpu_util", vc.Now().Add(time.Duration(s)*time.Minute), 0.3)
			pushSample(ts, dev+"/eth1/out_octets", vc.Now().Add(time.Duration(s)*time.Minute), float64(s*1000))
		}
		rules = append(rules,
			AlarmRule{Name: "device-unreachable", Kind: KindAbsence, Device: dev,
				Key: "cpu_util", Window: time.Hour, Urgency: Critical},
			AlarmRule{Name: "flatline-octets", Kind: KindFlatline, Device: dev,
				Key: "eth1/out_octets", Urgency: Minor},
		)
	}
	ae.ReplaceRules(rules)
	return ae
}

// BenchmarkAlarmEvaluate times a quiet pass over 256 devices' rules after
// a collection from every device — every rule is evaluated, as a full pass
// evaluates them — and after a collection from one device.
func BenchmarkAlarmEvaluate(b *testing.B) {
	for _, bc := range []struct {
		name      string
		collected int
	}{{"every-device-collected", 256}, {"one-device-collected", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			ae := quietEngine(256)
			ae.Evaluate()
			devices := make([]string, bc.collected)
			for i := range devices {
				devices[i] = fmt.Sprintf("dev%03d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, dev := range devices {
					ae.ts.mark(dev)
				}
				if got := ae.Evaluate(); len(got) != 0 {
					b.Fatalf("unexpected alarms: %d", len(got))
				}
			}
		})
	}
}

// TestEvaluateCostsWhatTheCollectionMoved: once the first pass has
// evaluated every rule, a pass evaluates the rules of the device whose
// collection was stored and nothing else; one with nothing stored, nothing
// due and no alarm active evaluates none. An absence deadline passing
// brings back just its run, and the alarm it fires keeps its device
// evaluated.
func TestEvaluateCostsWhatTheCollectionMoved(t *testing.T) {
	ae := quietEngine(256)
	vc := ae.clock.(*vclock.VirtualClock)
	reg := ae.reg
	var seen float64
	evaluated := func() float64 {
		v, _ := reg.Value("robotron_alarm_rules_evaluated_total")
		n := v - seen
		seen = v
		return n
	}
	pass := func(want float64, what string) {
		t.Helper()
		ae.Evaluate()
		if n := evaluated(); n != want {
			t.Errorf("%s: the pass evaluated %v rules, want %v", what, n, want)
		}
	}
	pass(512, "first pass")
	pass(0, "nothing stored")
	if err := ae.ts.Store(Collection{Device: "dev007", Data: DataCounters, At: vc.Now(), Counters: map[string]float64{"cpu_util": 0.3}}); err != nil {
		t.Fatal(err)
	}
	pass(2, "dev007 collected")
	pass(0, "nothing stored since")
	// dev007's cpu_util last reported at now, every other device's 15
	// minutes later: only dev007's absence rule is due an hour on.
	vc.Advance(time.Hour + time.Second)
	pass(1, "dev007's absence deadline passed")
	if got := ae.Firing(); len(got) != 1 || got[0].Device != "dev007" || got[0].Rule != "device-unreachable" {
		t.Fatalf("firing after dev007's deadline: %+v, want its device-unreachable alarm", got)
	}
	pass(2, "dev007 has an active alarm")
}

// TestEvaluateAllocatesNothingPerRule: a quiet pass over 512 rules
// allocates what one over 2 does — the pass's own few values, and no series
// key or copied samples per rule. Every device is marked before each
// measured pass, so each pass evaluates every rule; the counter pins that.
func TestEvaluateAllocatesNothingPerRule(t *testing.T) {
	allocs := func(devices int) float64 {
		ae := quietEngine(devices)
		reg := ae.reg
		names := make([]string, devices)
		for i := range names {
			names[i] = fmt.Sprintf("dev%03d", i)
		}
		pass := func() {
			for _, dev := range names {
				ae.ts.mark(dev)
			}
			ae.Evaluate()
		}
		n := testing.AllocsPerRun(20, pass)
		before, _ := reg.Value("robotron_alarm_rules_evaluated_total")
		pass()
		if after, _ := reg.Value("robotron_alarm_rules_evaluated_total"); after-before != float64(2*devices) {
			t.Fatalf("a measured pass over %d devices evaluated %v rules, want %d", devices, after-before, 2*devices)
		}
		return n
	}
	if small, big := allocs(1), allocs(256); big > small {
		t.Errorf("a quiet pass allocates %v times over 512 rules and %v over 2, want no more", big, small)
	}
}

// bgpDownFixture observes n sessions on dev1 in state Active and installs
// one bgp-state rule per session.
func bgpDownFixture(t *testing.T, n int) (*vclock.VirtualClock, *fbnet.Store, *AlarmEngine) {
	t.Helper()
	vc, ts, store, ae := alarmFixture(t)
	rules := make([]AlarmRule, n)
	peers := make([]netsim.BGPPeerStatus, n)
	for i := range rules {
		peer := fmt.Sprintf("10.0.0.%d", i+2)
		rules[i] = AlarmRule{Name: "bgp-session-down", Kind: KindBGPState, Device: "dev1", Key: peer, Urgency: Major}
		peers[i] = netsim.BGPPeerStatus{PeerAddr: peer, Family: "v4", State: "Active"}
	}
	observeSessions(t, ts, store, "dev1", peers...)
	ae.ReplaceRules(rules)
	return vc, store, ae
}

// TestBGPStateAlarmSurvivesStoreOutage: a pass that cannot read observed
// sessions knows nothing about them, so it neither resolves a firing
// bgp-state alarm nor, when the store is back, fires it anew.
func TestBGPStateAlarmSurvivesStoreOutage(t *testing.T) {
	vc, store, ae := bgpDownFixture(t, 1)
	fired := ae.Evaluate()
	if len(fired) != 1 {
		t.Fatalf("want 1 firing alarm, got %+v", fired)
	}
	for _, down := range []bool{true, false} {
		store.DB().SetDown(down)
		vc.Advance(time.Minute)
		got := ae.Evaluate()
		if len(got) != 1 || !got[0].FiredAt.Equal(fired[0].FiredAt) {
			t.Fatalf("store down=%v: firing = %+v, want the alarm fired at %s", down, got, fired[0].FiredAt)
		}
		if snap := ae.Snapshot(); len(snap) != 1 {
			t.Fatalf("store down=%v: %d alarms known, want only the firing one: %+v", down, len(snap), snap)
		}
	}
}

// TestEvaluatePlansOneQueryForAllSessionRules: however many bgp-state
// rules a pass evaluates, it plans at most one query — none while the
// DerivedBgpSession table's seq has not moved since the engine last read
// it, and one after a session row changed.
func TestEvaluatePlansOneQueryForAllSessionRules(t *testing.T) {
	_, store, ae := bgpDownFixture(t, 12)
	reg := registryOf(store)
	planned := func() (n float64) {
		for _, strategy := range []string{"indexed", "scan"} {
			v, _ := reg.Value("robotron_fbnet_queries_planned_total", telemetry.L("strategy", strategy)...)
			n += v
		}
		return n
	}
	pass := func(firing int, want float64, what string) {
		t.Helper()
		before := planned()
		if got := ae.Evaluate(); len(got) != firing {
			t.Fatalf("%s: want %d firing alarms, got %d", what, firing, len(got))
		}
		if n := planned() - before; n != want {
			t.Errorf("%s: a pass over 12 bgp-state rules planned %v queries, want %v", what, n, want)
		}
	}
	ae.Evaluate() // fires all twelve, reading the timeline to correlate them
	pass(12, 0, "no session row changed")
	peers := make([]netsim.BGPPeerStatus, 12)
	for i := range peers {
		peers[i] = netsim.BGPPeerStatus{PeerAddr: fmt.Sprintf("10.0.0.%d", i+2), Family: "v4", State: "Active"}
	}
	peers[0].State = "Established"
	observeSessions(t, ae.ts, store, "dev1", peers...)
	pass(11, 1, "one session row changed")
	pass(11, 0, "no session row changed since")
}

// TestSessionReadIsPerServer: the last read of observed sessions holds
// only on the server it was read from. A replica promoted after the master
// read a session at some table seq, and written to until its own table
// reaches that seq with other rows, is read afresh.
func TestSessionReadIsPerServer(t *testing.T) {
	_, ts, store, ae := alarmFixture(t)
	replica := relstore.NewReplica(store.DB(), "alarm-test-replica")
	ae.ReplaceRules([]AlarmRule{{Name: "bgp-session-down", Kind: KindBGPState, Device: "dev1", Key: "10.0.0.2", Urgency: Major}})
	session := func(store *fbnet.Store, state string) uint64 {
		t.Helper()
		observeSessions(t, ts, store, "dev1", netsim.BGPPeerStatus{PeerAddr: "10.0.0.2", Family: "v4", State: state})
		seq, err := store.TableSeq("DerivedBgpSession")
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	session(store, "Active")
	if err := replica.CatchUp(); err != nil {
		t.Fatal(err)
	}
	read := session(store, "Idle")
	if got := ae.Evaluate(); len(got) != 1 || got[0].Detail != "session to 10.0.0.2 observed Idle" {
		t.Fatalf("on the master: firing %+v, want the session observed Idle", got)
	}
	store.DB().SetDown(true)
	promoted := store.ReadOnlyView(replica.Promote())
	if seq := session(promoted, "Established"); seq != read {
		t.Fatalf("the promoted server's table seq is %d, want the master's %d when it was read", seq, read)
	}
	ae.store = promoted
	if got := ae.Evaluate(); len(got) != 0 {
		t.Errorf("on the promoted server: firing %+v, want none: its session is Established", got)
	}
}
