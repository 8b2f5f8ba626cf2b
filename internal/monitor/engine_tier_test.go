package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
)

// The engine tier polls devices in parallel and stores in the serial
// order, so what it leaves must not depend on its width. Two copies of one
// seeded world — the same fleet, devices down, a fault policy on the
// config reads, the same jobs and alarm rules on the same virtual clock —
// run the same monitoring cycles, one at width 1 (the serial loop) and
// one at width 8, and must end alike.

// tierWorld is one seeded world the engine tier collects from.
type tierWorld struct {
	fleet *netsim.Fleet
	vc    *vclock.VirtualClock
	jm    *JobManager
	ts    *TimeseriesBackend
	store *fbnet.Store
	repo  *revctl.Repo
	ae    *AlarmEngine
	ddl   uint64 // the binlog's seq once the catalog is created
}

// newTierWorld builds seed's world. Its devices are a chain of BGP
// neighbors, some sessions configured on one side only; a quarter of them
// start down; show running-config is garbled or slowed at random; and
// each device has the five per-device jobs the derivation installs, beside
// a fleet-wide config job and a config audit of some devices, in a seeded
// order.
func newTierWorld(t *testing.T, seed int64, width int) *tierWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vc := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	w := &tierWorld{
		fleet: netsim.NewFleet(vc),
		vc:    vc,
		ts:    NewTimeseriesBackend(),
		repo:  revctl.NewRepo(),
	}
	n := 6 + rng.Intn(19)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("dev%02d", i)
		d, err := w.fleet.AddDevice(names[i], netsim.Vendor1, "psw", "pop1")
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "hostname %s\n", names[i])
		for port := 1; port <= 2+rng.Intn(4); port++ {
			fmt.Fprintf(&b, "interface et1/%d\n", port)
			switch {
			case port == 1 && i > 0:
				fmt.Fprintf(&b, " ip addr 10.0.%d.1/31\n", i-1)
			case port == 2 && i+1 < n:
				fmt.Fprintf(&b, " ip addr 10.0.%d.0/31\n", i)
			}
			b.WriteString(" no shutdown\n")
		}
		fmt.Fprintf(&b, "router bgp %d\n", 65000+i)
		if i > 0 && rng.Intn(4) > 0 {
			fmt.Fprintf(&b, " neighbor 10.0.%d.0 remote-as %d\n", i-1, 65000+i-1)
		}
		if i+1 < n && rng.Intn(4) > 0 {
			fmt.Fprintf(&b, " neighbor 10.0.%d.1 remote-as %d\n", i, 65000+i+1)
		}
		if err := d.LoadConfig(b.String()); err != nil {
			t.Fatal(err)
		}
		if err := d.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < n; i++ {
		if err := w.fleet.Wire(names[i], "et1/2", names[i+1], "et1/1"); err != nil {
			t.Fatal(err)
		}
	}
	faults := netsim.NewFaultPolicy(seed).
		Add(netsim.FaultRule{Kind: netsim.FaultLatency, Probability: 0.2, Latency: time.Millisecond, Verbs: []string{"show running-config"}}).
		Add(netsim.FaultRule{Kind: netsim.FaultGarbled, Probability: 0.3, Verbs: []string{"show running-config"}})
	w.fleet.SetFaultPolicy(faults)
	for _, name := range names {
		if rng.Intn(4) == 0 {
			d, _ := w.fleet.Device(name)
			d.SetDown(true)
		}
	}

	var err error
	reg := telemetry.NewRegistry()
	if w.store, err = fbnet.Open(relstore.NewDB("engine-tier", reg), fbnet.NewCatalog()); err != nil {
		t.Fatal(err)
	}
	w.ddl = w.store.DB().Seq()
	w.jm = NewJobManager(FleetDeviceResolver(w.fleet), w.vc, reg)
	w.jm.SetPollWidth(width)
	w.jm.SetDeviceLister(func() []string { return SortedDeviceNames(w.fleet) })
	for _, b := range []Backend{w.ts, NewDerivedBackend(w.store, w.ts), NewConfigBackend(w.repo)} {
		if err := w.jm.RegisterBackend(b); err != nil {
			t.Fatal(err)
		}
	}
	var jobs []JobSpec
	var audited []string
	var rules []AlarmRule
	for _, name := range names {
		jobs = append(jobs,
			JobSpec{Name: name + "-counters", Engine: EngineSNMP, Data: DataCounters, Devices: []string{name}, Backends: []string{"timeseries"}},
			JobSpec{Name: name + "-interfaces", Engine: EngineSNMP, Data: DataInterfaces, Devices: []string{name}, Backends: []string{"timeseries", "fbnet-derived"}},
			JobSpec{Name: name + "-bgp", Engine: EngineThrift, Data: DataBGP, Devices: []string{name}, Backends: []string{"fbnet-derived"}},
			JobSpec{Name: name + "-lldp", Engine: EngineCLI, Data: DataLLDP, Devices: []string{name}, Backends: []string{"fbnet-derived"}},
			JobSpec{Name: name + "-version", Engine: EngineThrift, Data: DataVersion, Devices: []string{name}, Backends: []string{"fbnet-derived"}},
		)
		if rng.Intn(2) == 0 {
			audited = append(audited, name)
		}
		rules = append(rules,
			AlarmRule{Name: "cpu-high", Kind: KindThreshold, Device: name, Key: "cpu_util", Op: ">", Value: 14, Urgency: Major},
			AlarmRule{Name: "device-unreachable", Kind: KindAbsence, Device: name, Key: "cpu_util", Window: 3 * time.Minute, Urgency: Critical},
			AlarmRule{Name: "flatline-octets", Kind: KindFlatline, Device: name, Key: "et1/1/out_octets", Urgency: Minor},
		)
	}
	for i := 0; i+1 < n; i++ {
		rules = append(rules,
			AlarmRule{Name: "bgp-session-down", Kind: KindBGPState, Device: names[i], Key: fmt.Sprintf("10.0.%d.1", i), Urgency: Major},
			AlarmRule{Name: "bgp-session-down", Kind: KindBGPState, Device: names[i+1], Key: fmt.Sprintf("10.0.%d.0", i), Urgency: Major},
		)
	}
	jobs = append(jobs, JobSpec{Name: "config", Engine: EngineCLI, Data: DataConfig, AllDevices: true, Backends: []string{"config-backup"}})
	if len(audited) > 0 {
		jobs = append(jobs, JobSpec{Name: "config-audit", Engine: EngineRPCXML, Data: DataConfig, Devices: audited, Backends: []string{"config-backup"}})
	}
	if rng.Intn(2) == 0 {
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	} else { // the config jobs somewhere among the per-device ones
		k := len(jobs) - 1 - rng.Intn(2)
		at := rng.Intn(k + 1)
		jobs = append(jobs[:at], append(jobs[k:], jobs[at:k]...)...)
	}
	for _, spec := range jobs {
		spec.Period = time.Minute
		if err := w.jm.AddJob(spec); err != nil {
			t.Fatal(err)
		}
	}
	w.ae = NewAlarmEngine(w.vc, w.ts, w.store, reg)
	w.ae.ReplaceRules(rules)
	return w
}

// tierCycle is what one monitoring cycle returned.
type tierCycle struct {
	Collections []Collection
	Firing      []Alarm
}

// run drives cycles monitoring cycles a virtual minute apart — one
// collection of every job as installed, then an alarm pass — taking a
// device down or back up before each, as drawn from seed.
func (w *tierWorld) run(t *testing.T, seed int64, cycles int) []tierCycle {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	devices := w.fleet.Devices()
	var out []tierCycle
	for range cycles {
		w.vc.Advance(time.Minute)
		d := devices[rng.Intn(len(devices))]
		d.SetDown(d.Reachable())
		cols, err := w.jm.RunOnce(w.jm.Jobs()...)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tierCycle{Collections: cols, Firing: w.ae.Evaluate()})
	}
	return out
}

// TestEngineTierEqualsSerial: one collection of every job per cycle, then
// an alarm pass, leaves at width 8 what it leaves at width 1 — the same
// collections returned, stored series, Derived rows and their binlog
// entries (entry for entry, after the catalog's own), DB().Seq(), config
// backups, poll and error counts, and
// alarms, pending and resolved included.
func TestEngineTierEqualsSerial(t *testing.T) {
	seeds := int64(30)
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= seeds; seed++ {
		serial, parallel := newTierWorld(t, seed, 1), newTierWorld(t, seed, 8)
		want, got := serial.run(t, seed, 6), parallel.run(t, seed, 6)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d cycle %d: width 8 returned\n%+v\nwidth 1\n%+v", seed, i, got[i], want[i])
			}
		}
		if g, w := parallel.ts.Keys(), serial.ts.Keys(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: series %v, want %v", seed, g, w)
		}
		for _, key := range serial.ts.Keys() {
			if g, w := parallel.ts.Series(key), serial.ts.Series(key); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d: series %s = %v, want %v", seed, key, g, w)
			}
		}
		if g, w := parallel.store.DB().Seq(), serial.store.DB().Seq(); g != w {
			t.Fatalf("seed %d: DB().Seq() = %d, want %d", seed, g, w)
		}
		if g, w := parallel.store.DB().EntriesSince(parallel.ddl), serial.store.DB().EntriesSince(serial.ddl); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: the binlogs differ", seed)
		}
		for _, path := range serial.repo.Paths() {
			g, _ := parallel.repo.History(path)
			w, _ := serial.repo.History(path)
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d: %s history %v, want %v", seed, path, g, w)
			}
		}
		if g, w := parallel.repo.Paths(), serial.repo.Paths(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: backups of %v, want %v", seed, g, w)
		}
		if g, w := parallel.jm.Stats().Counts(), serial.jm.Stats().Counts(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: polls %v, want %v", seed, g, w)
		}
		pollErrors := func(w *tierWorld) int64 {
			return counterValue(registryOf(w.store), "robotron_monitor_poll_errors_total")
		}
		if g, w := pollErrors(parallel), pollErrors(serial); g != w {
			t.Fatalf("seed %d: %d poll errors, want %d", seed, g, w)
		}
		if pollErrors(serial) == 0 {
			t.Fatalf("seed %d: no poll failed; the world downs no device and garbles no config", seed)
		}
		if g, w := parallel.ae.Snapshot(), serial.ae.Snapshot(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: alarms %+v, want %+v", seed, g, w)
		}
	}
}

// TestEngineTierRaisesAPollPanicOnTheCaller: a poll that panics on a
// worker panics the execution on the caller's goroutine, with the value
// the poll raised.
func TestEngineTierRaisesAPollPanicOnTheCaller(t *testing.T) {
	devices := make([]string, 12)
	for i := range devices {
		devices[i] = fmt.Sprintf("dev%02d", i)
	}
	jm := NewJobManager(func(name string) (DeviceAPI, error) {
		return panickyDevice{name}, nil
	}, vclock.RealClock(), nil)
	defer func() {
		if p := recover(); p != "dev07 exploded" {
			t.Fatalf("recovered %v, want the poll's panic", p)
		}
	}()
	_, _ = jm.RunOnce(JobSpec{Name: "counters", Engine: EngineSNMP, Data: DataCounters, Devices: devices})
	t.Fatal("RunOnce returned past a panicking poll")
}

// panickyDevice answers every poll, except that dev07's counters panic.
type panickyDevice struct{ name string }

func (d panickyDevice) Name() string                   { return d.name }
func (d panickyDevice) RunningConfig() (string, error) { return "", nil }
func (d panickyDevice) ShowInterfaces() ([]netsim.IfaceStatus, error) {
	return nil, nil
}
func (d panickyDevice) ShowLLDPNeighbors() ([]netsim.LLDPNeighbor, error) {
	return nil, nil
}
func (d panickyDevice) ShowBGPSummary() ([]netsim.BGPPeerStatus, error) {
	return nil, nil
}
func (d panickyDevice) ShowVersion() (netsim.VersionInfo, error) { return netsim.VersionInfo{}, nil }
func (d panickyDevice) Counters() (map[string]float64, error) {
	if d.name == "dev07" {
		panic(d.name + " exploded")
	}
	return map[string]float64{"cpu_util": 1}, nil
}

// TestEngineTierRunsInstalledBesideJobChanges: RunInstalled runs the
// installed slice in place while AddJob and ReplaceJobs change the set on
// another goroutine, and with the set at rest it polls every installed
// job once. Run under -race.
func TestEngineTierRunsInstalledBesideJobChanges(t *testing.T) {
	_, jm, _, _ := newMonitoredFleet(t, 4)
	devices := []string{"dev00", "dev01", "dev02", "dev03"}
	spec := func(name string) JobSpec {
		return JobSpec{Name: name, Period: time.Minute, Engine: EngineSNMP, Data: DataCounters, Devices: devices, Backends: []string{"timeseries"}}
	}
	if err := jm.AddJob(spec("base")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 50 {
			if err := jm.AddJob(spec(fmt.Sprintf("added-%d", i))); err != nil {
				t.Error(err)
				return
			}
			if err := jm.ReplaceJobs("swapped-", []JobSpec{spec(fmt.Sprintf("swapped-%d", i))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 50 {
		jm.RunInstalled()
	}
	<-done
	polls := func() int64 { return jm.Stats().Counts()[EngineSNMP] }
	before := polls()
	jm.RunInstalled()
	if got, want := polls()-before, int64(len(jm.Jobs())*len(devices)); got != want {
		t.Fatalf("one run of the installed set polled %d times, want %d", got, want)
	}
}
