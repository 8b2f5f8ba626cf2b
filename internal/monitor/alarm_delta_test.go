package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/vclock"
)

// A pass evaluates only the rules whose verdict can have moved, reads
// each rule's series through the handles its run holds and reuses its
// last read of observed sessions while their table has not moved; what it
// leaves must be what a pass over every rule, reading every series by key
// and the sessions afresh, leaves. Two pairs of engines share one
// time-series backend, one store written through the one Derived writer
// and one journal, and are fed the same alerts and rule swaps. In each
// pair the warm engine evaluates by delta; its cold twin swaps its rule
// set for itself and forgets its reads before every pass, which sends each
// of its passes over every rule, every series looked up by key and the
// sessions read fresh. The second pair evaluates only at some of the
// steps.

var deltaDevices = []string{"dev0", "dev1", "dev2", "dev3"}

// forgetReads drops what the engine kept of its reads — every run's series
// handles and the last read of observed sessions — so its next pass looks
// up each rule's series by key and reads the sessions afresh.
func (ae *AlarmEngine) forgetReads() {
	ae.mu.Lock()
	defer ae.mu.Unlock()
	for i := range ae.runs {
		ae.runs[i].series = seriesHandles{}
	}
	ae.sessions = sessionRead{}
}

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

// deltaHistory is one history's shared inputs and its engines.
type deltaHistory struct {
	rng     *rand.Rand
	vc      *vclock.VirtualClock
	ts      *TimeseriesBackend
	store   *fbnet.Store
	replica *relstore.Replica // follows the store until it is promoted; nil after
	derived *DerivedBackend
	journal []JournalEntry
	devices []string // the devices with rules, deltaDevices first
	// The pairs, each warm engine followed by its cold twin.
	warm, cold, warm2, cold2 *AlarmEngine
}

func newDeltaHistory(t *testing.T, seed int64) *deltaHistory {
	t.Helper()
	store, err := fbnet.Open(relstore.NewDB("alarm-delta", nil), fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	h := &deltaHistory{
		rng:     rand.New(rand.NewSource(seed)),
		vc:      vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)),
		ts:      NewTimeseriesBackend(),
		store:   store,
		replica: relstore.NewReplica(store.DB(), "alarm-delta-replica"),
		devices: slices.Clone(deltaDevices),
	}
	h.derived = NewDerivedBackend(store, h.ts)
	engine := func() *AlarmEngine { return NewAlarmEngine(h.vc, h.ts, store, nil) }
	h.warm, h.cold, h.warm2, h.cold2 = engine(), engine(), engine(), engine()
	var rules []AlarmRule
	for _, d := range h.devices {
		rules = append(rules, deltaRules(h.rng, d)...)
	}
	for _, ae := range h.engines() {
		ae.SetJournalSource(func() []JournalEntry { return h.journal })
		ae.ReplaceRules(rules)
	}
	return h
}

// engines returns every engine of the history.
func (h *deltaHistory) engines() []*AlarmEngine {
	return []*AlarmEngine{h.warm, h.cold, h.warm2, h.cold2}
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
	{"bgp", deltaSessions},
	{"bgp-unruled", func(h *deltaHistory, _ string) {
		// Sessions of a device no rule watches: the table's seq moves, no
		// ruled device's sessions do.
		deltaSessions(h, "edge9")
	}},
	{"alert", func(h *deltaHistory, device string) {
		a := Alert{Rule: "link-state", Urgency: Warning,
			Message: netsim.SyslogMessage{Host: device, Time: h.vc.Now(), Text: "LINK_STATE: eth0 down"}}
		for _, ae := range h.engines() {
			ae.ObserveAlert(a)
		}
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
		for _, ae := range h.engines() {
			ae.ReplaceDeviceRules([]string{device}, rules)
		}
	}},
	{"replace-all", func(h *deltaHistory, _ string) {
		if h.rng.Intn(3) > 0 {
			return // rarer than the other steps
		}
		var rules []AlarmRule
		for _, d := range h.devices {
			rules = append(rules, deltaRules(h.rng, d)...)
		}
		for _, ae := range h.engines() {
			ae.ReplaceRules(rules)
		}
	}},
	{"new-device", func(h *deltaHistory, _ string) {
		// Rules for a device nothing has collected from yet.
		if len(h.devices) == 8 {
			return
		}
		device := fmt.Sprintf("dev%d", len(h.devices))
		h.devices = append(h.devices, device)
		rules := deltaRules(h.rng, device)
		for _, ae := range h.engines() {
			ae.ReplaceDeviceRules([]string{device}, rules)
		}
	}},
	{"store-down-up", func(h *deltaHistory, _ string) {
		db := h.store.DB()
		db.SetDown(db.Healthy())
	}},
	{"replicate", func(h *deltaHistory, _ string) {
		if h.replica != nil {
			_ = h.replica.CatchUp() // fails while the master is down
		}
	}},
	{"failover", func(h *deltaHistory, _ string) {
		// The master dies with what the replica has not applied, and the
		// replica serves from here on: the Derived writer and the engines
		// are re-pointed at it, and every device is marked, its observed
		// state now that of another server.
		if h.replica == nil || h.rng.Intn(3) > 0 {
			return
		}
		h.store.DB().SetDown(true)
		h.store = h.store.ReadOnlyView(h.replica.Promote())
		h.replica = nil
		h.derived.store = h.store
		for _, ae := range h.engines() {
			ae.store = h.store
		}
		for _, d := range h.devices {
			h.ts.mark(d)
		}
	}},
}

// deltaSessions stores a BGP collection of device through the Derived
// writer: each of two peers observed or not, in a drawn state.
func deltaSessions(h *deltaHistory, device string) {
	col := Collection{Device: device, Data: DataBGP, At: h.vc.Now()}
	for _, peer := range []string{"10.0.0.1", "10.0.0.2"} {
		if h.rng.Intn(4) > 0 {
			state := []string{"Established", "Established", "Active", "Idle"}[h.rng.Intn(4)]
			col.BGP = append(col.BGP, netsim.BGPPeerStatus{PeerAddr: peer, Family: "v4", State: state})
		}
	}
	_ = h.derived.Store(col)
}

// comparePair runs one pass of warm and of its cold twin, which first
// forgets its reads and swaps its rule set for itself, and fails unless
// both return and leave the same alarms. It returns the alarms left.
func comparePair(t *testing.T, at string, warm, cold *AlarmEngine) []Alarm {
	t.Helper()
	cold.ReplaceRules(cold.Rules())
	cold.forgetReads()
	got, want := warm.Evaluate(), cold.Evaluate()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after %s: a pass by delta returned\n%+v\nwant a full pass's\n%+v", at, got, want)
	}
	snap := warm.Snapshot()
	if want := cold.Snapshot(); !reflect.DeepEqual(snap, want) {
		t.Fatalf("after %s: a pass by delta left the alarms\n%+v\nwant a full pass's\n%+v", at, snap, want)
	}
	return snap
}

// TestAlarmDeltaEqualsFullPassOverRandomHistories: after every step of
// seeded histories of collections (series created after the rules that
// read them), observed BGP sessions of ruled and unruled devices, alerts,
// journal events, clock moves across absence windows and PendingFor, rule
// swaps by device and wholesale, rules for new devices, store outages and
// a failover to a replica, a pass by delta through held series handles and
// the last session read returns what a pass over every rule that reads
// everything afresh returns, and leaves every alarm — pending, firing and
// resolved, Since, FiredAt, ResolvedAt, Detail and Correlated included —
// as that pass does; so does a second engine on the same backend that
// evaluates only now and then.
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
			step.run(h, h.devices[h.rng.Intn(len(h.devices))])
			at := fmt.Sprintf("seed %d step %d (%s)", seed, i, step.name)

			snap := comparePair(t, at, h.warm, h.cold)
			if h.rng.Intn(2) == 0 {
				comparePair(t, at+", second engine", h.warm2, h.cold2)
				seen["passes of the second engine"]++
			}
			if !h.store.DB().Healthy() {
				seen["passes with the store down"]++
			}
			if h.replica == nil {
				seen["passes after a failover"]++
			}
			if len(h.devices) > len(deltaDevices) {
				seen["passes with a new device"]++
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
	for _, what := range []string{"passes with the store down", "passes after a failover", "passes with a new device",
		"passes of the second engine", "pending", "firing", "resolved", "correlated",
		"firing cpu-high", "firing device-unreachable", "firing flatline-octets", "firing interface-flatline",
		"firing bgp-session-down", "firing link-flap"} {
		if seen[what] == 0 {
			t.Errorf("no history saw %s", what)
		}
	}
}

// TestAlarmEnginesReadBesideWriters: two engines on one backend evaluate while
// collections create and fill series and the Derived writer changes
// observed sessions, all at once (run it under -race). Once the writers
// stop, each engine's next pass returns what a fresh engine's first pass
// returns: the handles and the session read they kept while the inputs
// moved under them are those of a cold read.
func TestAlarmEnginesReadBesideWriters(t *testing.T) {
	h := newDeltaHistory(t, 1)
	var rules []AlarmRule
	for _, d := range deltaDevices {
		for _, r := range deltaRules(rand.New(rand.NewSource(int64(len(d)))), d) {
			r.PendingFor = 0
			rules = append(rules, r)
		}
	}
	for _, ae := range []*AlarmEngine{h.warm, h.warm2} {
		ae.ReplaceRules(rules)
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := int64(0); w < 2; w++ {
		rng := rand.New(rand.NewSource(w))
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				device := deltaDevices[rng.Intn(len(deltaDevices))]
				if w == 0 {
					col := Collection{Device: device, Data: DataInterfaces, At: h.vc.Now()}
					for _, ifc := range []string{"eth0", "eth1"}[:1+rng.Intn(2)] {
						col.Interfaces = append(col.Interfaces, netsim.IfaceStatus{Name: ifc, OperStatus: "up", OutOctets: uint64(rng.Intn(3))})
					}
					_ = h.ts.Store(col)
					_ = h.ts.Store(Collection{Device: device, Data: DataCounters, At: h.vc.Now(), Counters: map[string]float64{"cpu_util": rng.Float64()}})
					continue
				}
				state := []string{"Established", "Active"}[rng.Intn(2)]
				if err := h.derived.Store(Collection{Device: device, Data: DataBGP, At: h.vc.Now(),
					BGP: []netsim.BGPPeerStatus{{PeerAddr: "10.0.0.1", Family: "v4", State: state}}}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for _, ae := range []*AlarmEngine{h.warm, h.warm2} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					ae.Evaluate()
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	cold := NewAlarmEngine(h.vc, h.ts, h.store, nil)
	cold.ReplaceRules(rules)
	want := cold.Evaluate()
	if len(want) == 0 {
		t.Fatal("the writers left no alarm firing: the test compares nothing")
	}
	for i, ae := range []*AlarmEngine{h.warm, h.warm2} {
		if got := ae.Evaluate(); !reflect.DeepEqual(got, want) {
			t.Errorf("engine %d after the writers stopped: firing\n%+v\nwant a fresh engine's\n%+v", i+1, got, want)
		}
	}
}
