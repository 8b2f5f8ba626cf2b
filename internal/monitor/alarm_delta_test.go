package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/vclock"
)

// A pass evaluates only the rules whose verdict can have moved; what it
// leaves must be what a pass over every rule leaves. Two engines share one
// time-series backend, one store written through the one Derived writer
// and one journal, and are fed the same alerts and rule swaps. The warm
// one evaluates by delta; its cold twin swaps its rule set for itself
// before every pass, which sends each of its passes over every rule.

var deltaDevices = []string{"dev0", "dev1", "dev2", "dev3"}

// deltaRules draws a rule set for device: each rule of every kind, with
// drawn windows and PendingFor, kept or left out at random.
func deltaRules(rng *rand.Rand, device string) []AlarmRule {
	pending := []time.Duration{0, 2 * time.Minute}[rng.Intn(2)]
	all := []AlarmRule{
		{Name: "cpu-high", Kind: KindThreshold, Device: device, Key: "cpu_util", Op: ">", Value: 0.7, PendingFor: pending, Urgency: Major},
		{Name: "device-unreachable", Kind: KindAbsence, Device: device, Key: "cpu_util", Window: time.Duration(3+rng.Intn(4)) * time.Minute, PendingFor: pending, Urgency: Critical},
		{Name: "flatline-octets", Kind: KindFlatline, Device: device, Key: "eth0/out_octets", Urgency: Minor},
		{Name: "flatline-octets", Kind: KindFlatline, Device: device, Key: "eth1/out_octets", Urgency: Minor},
		{Name: "interface-flatline", Kind: KindAbsence, Device: device, Key: "eth0/in_octets", Window: 10 * time.Minute, Urgency: Warning},
		{Name: "interface-flatline", Kind: KindAbsence, Device: device, Key: "eth1/in_octets", Window: 8 * time.Minute, PendingFor: pending, Urgency: Warning},
		{Name: "bgp-session-down", Kind: KindBGPState, Device: device, Key: "10.0.0.1", Urgency: Major},
		{Name: "bgp-session-down", Kind: KindBGPState, Device: device, Key: "10.0.0.2", PendingFor: pending, Urgency: Major},
		{Name: "link-flap", Kind: KindFlap, Device: device, Key: "link-state", Window: 6 * time.Minute, FlapCount: 2, Urgency: Warning},
	}
	var out []AlarmRule
	for _, r := range all {
		if rng.Intn(5) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// deltaHistory is one history's shared inputs and its two engines.
type deltaHistory struct {
	rng        *rand.Rand
	vc         *vclock.VirtualClock
	ts         *TimeseriesBackend
	store      *fbnet.Store
	derived    *DerivedBackend
	journal    []JournalEntry
	warm, cold *AlarmEngine
}

func newDeltaHistory(t *testing.T, seed int64) *deltaHistory {
	t.Helper()
	store, err := fbnet.Open(relstore.NewDB("alarm-delta"), fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	h := &deltaHistory{
		rng:   rand.New(rand.NewSource(seed)),
		vc:    vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)),
		ts:    NewTimeseriesBackend(),
		store: store,
	}
	h.derived = NewDerivedBackend(store, h.ts)
	h.warm, h.cold = NewAlarmEngine(h.vc, h.ts, store), NewAlarmEngine(h.vc, h.ts, store)
	var rules []AlarmRule
	for _, d := range deltaDevices {
		rules = append(rules, deltaRules(h.rng, d)...)
	}
	for _, ae := range []*AlarmEngine{h.warm, h.cold} {
		ae.SetJournalSource(func() []JournalEntry { return h.journal })
		ae.ReplaceRules(rules)
	}
	return h
}

// deltaHistorySteps are what a history is made of, each drawn as often as
// it is listed. Collections may fail while the store is down; the engines
// see what was stored all the same.
var deltaHistorySteps = []struct {
	name string
	run  func(h *deltaHistory, device string)
}{
	{"counters", func(h *deltaHistory, device string) {
		_ = h.ts.Store(Collection{Device: device, Data: DataCounters, At: h.vc.Now(),
			Counters: map[string]float64{"cpu_util": h.rng.Float64()}})
	}},
	{"interfaces", func(h *deltaHistory, device string) {
		col := Collection{Device: device, Data: DataInterfaces, At: h.vc.Now()}
		for _, ifc := range []string{"eth0", "eth1"}[:1+h.rng.Intn(2)] {
			col.Interfaces = append(col.Interfaces, netsim.IfaceStatus{Name: ifc, OperStatus: "up",
				InOctets: uint64(h.rng.Intn(3)) * 100, OutOctets: uint64(h.rng.Intn(3)) * 100})
		}
		_ = h.ts.Store(col)
	}},
	{"bgp", func(h *deltaHistory, device string) {
		col := Collection{Device: device, Data: DataBGP, At: h.vc.Now()}
		for _, peer := range []string{"10.0.0.1", "10.0.0.2"} {
			if h.rng.Intn(4) > 0 {
				state := []string{"Established", "Established", "Active", "Idle"}[h.rng.Intn(4)]
				col.BGP = append(col.BGP, netsim.BGPPeerStatus{PeerAddr: peer, Family: "v4", State: state})
			}
		}
		_ = h.derived.Store(col)
	}},
	{"alert", func(h *deltaHistory, device string) {
		a := Alert{Rule: "link-state", Urgency: Warning,
			Message: netsim.SyslogMessage{Host: device, Time: h.vc.Now(), Text: "LINK_STATE: eth0 down"}}
		h.warm.ObserveAlert(a)
		h.cold.ObserveAlert(a)
	}},
	{"journal", func(h *deltaHistory, device string) {
		h.journal = append(h.journal, JournalEntry{At: h.vc.Now(), Device: device, Type: "drift-detected", Detail: "out-of-band edit"})
	}},
	{"advance", func(h *deltaHistory, _ string) {
		h.vc.Advance(time.Duration(h.rng.Intn(8*60)) * time.Second)
	}},
	{"advance", func(h *deltaHistory, _ string) {
		h.vc.Advance(time.Duration(h.rng.Intn(8*60)) * time.Second)
	}},
	{"replace-device", func(h *deltaHistory, device string) {
		rules := deltaRules(h.rng, device)
		h.warm.ReplaceDeviceRules([]string{device}, rules)
		h.cold.ReplaceDeviceRules([]string{device}, rules)
	}},
	{"replace-all", func(h *deltaHistory, _ string) {
		if h.rng.Intn(3) > 0 {
			return // rarer than the other steps
		}
		var rules []AlarmRule
		for _, d := range deltaDevices {
			rules = append(rules, deltaRules(h.rng, d)...)
		}
		h.warm.ReplaceRules(rules)
		h.cold.ReplaceRules(rules)
	}},
	{"store-down-up", func(h *deltaHistory, _ string) {
		db := h.store.DB()
		db.SetDown(db.Healthy())
	}},
}

// TestAlarmDeltaEqualsFullPassOverRandomHistories: after every step of
// seeded histories of collections, observed BGP sessions, alerts, journal
// events, clock moves across absence windows and PendingFor, rule swaps
// by device and wholesale, and store outages, a pass by delta returns what
// a pass over every rule returns, and leaves every alarm — pending,
// firing and resolved, Since, FiredAt, ResolvedAt, Detail and Correlated
// included — as that pass does.
func TestAlarmDeltaEqualsFullPassOverRandomHistories(t *testing.T) {
	histories, length := 200, 60
	if testing.Short() {
		histories = 40
	}
	seen := map[string]int{}
	for seed := int64(1); seed <= int64(histories); seed++ {
		h := newDeltaHistory(t, seed)
		for i := 0; i < length; i++ {
			step := deltaHistorySteps[h.rng.Intn(len(deltaHistorySteps))]
			step.run(h, deltaDevices[h.rng.Intn(len(deltaDevices))])
			at := fmt.Sprintf("seed %d step %d (%s)", seed, i, step.name)

			h.cold.ReplaceRules(h.cold.Rules())
			got, want := h.warm.Evaluate(), h.cold.Evaluate()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s: a pass by delta returned\n%+v\nwant a full pass's\n%+v", at, got, want)
			}
			snap := h.warm.Snapshot()
			if want := h.cold.Snapshot(); !reflect.DeepEqual(snap, want) {
				t.Fatalf("after %s: a pass by delta left the alarms\n%+v\nwant a full pass's\n%+v", at, snap, want)
			}
			if !h.store.DB().Healthy() {
				seen["passes with the store down"]++
			}
			for _, al := range snap {
				seen[string(al.State)]++
				if al.State == AlarmFiring {
					seen["firing "+al.Rule]++
				}
				if len(al.Correlated) > 0 {
					seen["correlated"]++
				}
			}
		}
		h.store.DB().SetDown(false)
	}
	// The histories must exercise what is compared.
	for _, what := range []string{"passes with the store down", "pending", "firing", "resolved", "correlated",
		"firing cpu-high", "firing device-unreachable", "firing flatline-octets", "firing interface-flatline",
		"firing bgp-session-down", "firing link-flap"} {
		if seen[what] == 0 {
			t.Errorf("no history saw %s", what)
		}
	}
}
