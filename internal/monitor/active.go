package monitor

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
)

// Active monitoring (§5.4.2, Fig. 11): the Job Manager schedules periodic
// jobs from job specifications (collection period, data type, devices,
// storage backends); Engines pull jobs and poll devices over different
// mechanisms (SNMP, CLI, RPC/XML, Thrift); Backends receive collections
// and convert them for their storage.

// EngineType selects the polling mechanism, the dimension of Table 2.
type EngineType string

const (
	EngineSNMP   EngineType = "snmp"
	EngineCLI    EngineType = "cli"
	EngineRPCXML EngineType = "rpcxml"
	EngineThrift EngineType = "thrift"
)

// DataType is what a job collects.
type DataType string

const (
	DataCounters   DataType = "counters"
	DataInterfaces DataType = "interfaces"
	DataLLDP       DataType = "lldp"
	DataBGP        DataType = "bgp"
	DataConfig     DataType = "config"
	DataVersion    DataType = "version"
)

// DeviceAPI is the management surface engines poll; *netsim.Device
// implements it.
type DeviceAPI interface {
	Name() string
	RunningConfig() (string, error)
	ShowInterfaces() ([]netsim.IfaceStatus, error)
	ShowLLDPNeighbors() ([]netsim.LLDPNeighbor, error)
	ShowBGPSummary() ([]netsim.BGPPeerStatus, error)
	ShowVersion() (netsim.VersionInfo, error)
	Counters() (map[string]float64, error)
}

var _ DeviceAPI = (*netsim.Device)(nil)

// DeviceResolver maps device names to management sessions.
type DeviceResolver func(name string) (DeviceAPI, error)

// FleetDeviceResolver resolves against a netsim fleet.
func FleetDeviceResolver(f *netsim.Fleet) DeviceResolver {
	return func(name string) (DeviceAPI, error) {
		d, ok := f.Device(name)
		if !ok {
			return nil, fmt.Errorf("monitor: unknown device %q", name)
		}
		return d, nil
	}
}

// Collection is one polled result handed to backends. Engines leave At
// zero: the job manager stamps every collection from its one clock.
type Collection struct {
	Device     string
	Engine     EngineType
	Data       DataType
	At         time.Time
	Counters   map[string]float64
	Interfaces []netsim.IfaceStatus
	LLDP       []netsim.LLDPNeighbor
	BGP        []netsim.BGPPeerStatus
	Config     string
	Version    *netsim.VersionInfo
}

// Engine polls one data type from one device.
type Engine interface {
	Type() EngineType
	// Supports reports whether this engine can collect the data type —
	// vendor capabilities differ ("for some vendors, the operational
	// status of the physical links within an aggregated interface can only
	// be collected by CLI commands").
	Supports(d DataType) bool
	Poll(dev DeviceAPI, d DataType) (Collection, error)
}

// baseEngine implements Poll against the DeviceAPI surface.
type baseEngine struct {
	typ      EngineType
	supports map[DataType]bool
}

func (e *baseEngine) Type() EngineType         { return e.typ }
func (e *baseEngine) Supports(d DataType) bool { return e.supports[d] }

func (e *baseEngine) Poll(dev DeviceAPI, d DataType) (Collection, error) {
	if !e.supports[d] {
		return Collection{}, fmt.Errorf("monitor: %s engine does not support %s", e.typ, d)
	}
	col := Collection{Device: dev.Name(), Engine: e.typ, Data: d}
	var err error
	switch d {
	case DataCounters:
		col.Counters, err = dev.Counters()
	case DataInterfaces:
		col.Interfaces, err = dev.ShowInterfaces()
	case DataLLDP:
		col.LLDP, err = dev.ShowLLDPNeighbors()
	case DataBGP:
		col.BGP, err = dev.ShowBGPSummary()
	case DataConfig:
		col.Config, err = dev.RunningConfig()
	case DataVersion:
		var v netsim.VersionInfo
		v, err = dev.ShowVersion()
		col.Version = &v
	default:
		err = fmt.Errorf("monitor: unknown data type %q", d)
	}
	if err != nil {
		return Collection{}, err
	}
	return col, nil
}

// NewEngines returns the standard engine set with per-mechanism capability
// differences.
func NewEngines() map[EngineType]Engine {
	return map[EngineType]Engine{
		EngineSNMP: &baseEngine{typ: EngineSNMP, supports: map[DataType]bool{
			DataCounters: true, DataInterfaces: true,
		}},
		EngineCLI: &baseEngine{typ: EngineCLI, supports: map[DataType]bool{
			// CLI reaches everything: the fallback when standards fall short.
			DataCounters: true, DataInterfaces: true, DataLLDP: true,
			DataBGP: true, DataConfig: true, DataVersion: true,
		}},
		EngineRPCXML: &baseEngine{typ: EngineRPCXML, supports: map[DataType]bool{
			DataInterfaces: true, DataVersion: true, DataConfig: true,
		}},
		EngineThrift: &baseEngine{typ: EngineThrift, supports: map[DataType]bool{
			DataBGP: true, DataVersion: true, DataCounters: true,
		}},
	}
}

// Backend receives collections ("Backends receive the collected data and
// convert it into a format appropriate for different storage locations").
type Backend interface {
	Name() string
	Store(col Collection) error
}

// JobSpec describes one monitoring job: "the collection period, the type
// of data, the devices, and the storage backends the data should be sent
// to" (§5.4.2). AllDevices targets the whole fleet as of each execution —
// the fleet grows constantly, and jobs must follow — and requires the job
// manager to have a device lister.
type JobSpec struct {
	Name       string
	Period     time.Duration
	Engine     EngineType
	Data       DataType
	Devices    []string
	AllDevices bool
	Backends   []string
}

// EventStats counts collection events per engine type (Table 2). Syslog
// (passive) events are counted by the classifier and merged in reports.
type EventStats struct {
	mu     sync.Mutex
	counts map[EngineType]int64
	errors int64

	// Registry mirrors, nil (no-op) until instrument.
	reg     *telemetry.Registry
	mPolls  map[EngineType]*telemetry.Counter
	mErrors *telemetry.Counter
}

func newEventStats() *EventStats {
	return &EventStats{counts: make(map[EngineType]int64)}
}

func (s *EventStats) instrument(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	s.mPolls = make(map[EngineType]*telemetry.Counter)
	s.mErrors = reg.Counter("robotron_monitor_poll_errors_total")
}

func (s *EventStats) add(e EngineType, n int64) {
	s.mu.Lock()
	s.counts[e] += n
	if s.reg != nil {
		c, ok := s.mPolls[e]
		if !ok {
			c = s.reg.Counter("robotron_monitor_polls_total", telemetry.Label{Key: "engine", Value: string(e)})
			s.mPolls[e] = c
		}
		c.Add(n)
	}
	s.mu.Unlock()
}

func (s *EventStats) addError() {
	s.mu.Lock()
	s.errors++
	s.mErrors.Inc()
	s.mu.Unlock()
}

// Counts returns per-engine event counts.
func (s *EventStats) Counts() map[EngineType]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[EngineType]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Errors returns the number of failed polls.
func (s *EventStats) Errors() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errors
}

// JobManager is the top tier of the active monitoring pipeline.
type JobManager struct {
	resolve DeviceResolver
	// listDevices enumerates the fleet for AllDevices jobs; nil restricts
	// jobs to explicit device lists.
	listDevices func() []string
	engines     map[EngineType]Engine
	mu          sync.Mutex
	backends    map[string]Backend
	specs       []JobSpec
	version     uint64 // moves with every change to specs
	stats       *EventStats
	stopCh      chan struct{}
	wake        chan struct{} // kicked when the job set changes
	wg          sync.WaitGroup
	running     bool
	clock       vclock.Clock // stamps every collection; the wall clock until SetClock
}

// NewJobManager creates a job manager with the standard engines.
func NewJobManager(resolve DeviceResolver) *JobManager {
	return &JobManager{
		resolve:  resolve,
		engines:  NewEngines(),
		backends: make(map[string]Backend),
		stats:    newEventStats(),
		wake:     make(chan struct{}, 1),
		clock:    vclock.RealClock(),
	}
}

// jobsChanged nudges a started manager to re-plan its next fire.
func (jm *JobManager) jobsChanged() {
	select {
	case jm.wake <- struct{}{}:
	default:
	}
}

// SetDeviceLister enables AllDevices job specs by providing the fleet
// enumeration used at each execution.
func (jm *JobManager) SetDeviceLister(list func() []string) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.listDevices = list
}

// SetClock makes every collection timestamp come from clock instead of
// the wall clock, so sample ages and alarm windows line up with a virtual
// clock in simulation.
func (jm *JobManager) SetClock(clock vclock.Clock) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.clock = clock
}

// RegisterBackend installs a named backend.
func (jm *JobManager) RegisterBackend(b Backend) error {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if _, dup := jm.backends[b.Name()]; dup {
		return fmt.Errorf("monitor: duplicate backend %q", b.Name())
	}
	jm.backends[b.Name()] = b
	return nil
}

// AddJob validates and installs a periodic job specification.
func (jm *JobManager) AddJob(spec JobSpec) error {
	if err := jm.validate(spec); err != nil {
		return err
	}
	jm.mu.Lock()
	defer jm.mu.Unlock()
	for _, s := range jm.specs {
		if s.Name == spec.Name {
			return fmt.Errorf("monitor: duplicate job %q", spec.Name)
		}
	}
	jm.specs = append(jm.specs, spec)
	jm.version++
	jm.jobsChanged()
	return nil
}

// ReplaceJobs atomically swaps every installed job whose name starts with
// prefix for the given specs — the re-derivation primitive, wholesale. The
// jobs outside the prefix keep their order and the specs follow them as
// given. Specs are validated first; on error the installed set is
// unchanged.
func (jm *JobManager) ReplaceJobs(prefix string, specs []JobSpec) error {
	return jm.replace(prefix, nil, specs)
}

// ReplaceDeviceJobs is ReplaceJobs for some devices: the jobs under prefix
// that collect from one of devices are swapped for specs, each of which
// must collect from exactly one of them. Given the jobs under prefix in
// device order, as ReplaceJobs leaves a derived set, it leaves the order
// ReplaceJobs would for the whole set: by device, each device's jobs as
// given.
func (jm *JobManager) ReplaceDeviceJobs(prefix string, devices []string, specs []JobSpec) error {
	replaced := make(map[string]bool, len(devices))
	for _, d := range devices {
		replaced[d] = true
	}
	for _, s := range specs {
		if !replaced[jobDevice(s)] {
			return fmt.Errorf("monitor: job %q does not collect from exactly one of the devices replaced", s.Name)
		}
	}
	add := slices.Clone(specs)
	slices.SortStableFunc(add, func(a, b JobSpec) int { return cmp.Compare(jobDevice(a), jobDevice(b)) })
	return jm.replace(prefix, replaced, add)
}

// replace swaps the jobs under prefix that collect from a replaced device —
// all of them when replaced is nil — for specs, merged by device among
// the jobs kept.
func (jm *JobManager) replace(prefix string, replaced map[string]bool, specs []JobSpec) error {
	if prefix == "" {
		return fmt.Errorf("monitor: replacing jobs requires a non-empty prefix")
	}
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		if !strings.HasPrefix(spec.Name, prefix) {
			return fmt.Errorf("monitor: job %q does not match prefix %q", spec.Name, prefix)
		}
		if seen[spec.Name] {
			return fmt.Errorf("monitor: duplicate job %q", spec.Name)
		}
		seen[spec.Name] = true
		if err := jm.validate(spec); err != nil {
			return err
		}
	}
	jm.mu.Lock()
	defer jm.mu.Unlock()
	out := make([]JobSpec, 0, len(jm.specs)+len(specs))
	for _, s := range jm.specs {
		if !strings.HasPrefix(s.Name, prefix) {
			out = append(out, s)
		}
	}
	for _, s := range jm.specs {
		dev := jobDevice(s)
		if !strings.HasPrefix(s.Name, prefix) || replaced == nil || replaced[dev] {
			continue
		}
		for len(specs) > 0 && jobDevice(specs[0]) < dev {
			out, specs = append(out, specs[0]), specs[1:]
		}
		out = append(out, s)
	}
	jm.specs = append(out, specs...)
	jm.version++
	jm.jobsChanged()
	return nil
}

// jobDevice is the device a single-device job collects from, "" for any
// other job.
func jobDevice(s JobSpec) string {
	if len(s.Devices) != 1 {
		return ""
	}
	return s.Devices[0]
}

// Version moves with every change to the installed job set. A caller that
// owns part of the set reads it after its own writes; finding it moved
// later means someone else wrote the set in between.
func (jm *JobManager) Version() uint64 {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.version
}

func (jm *JobManager) validate(spec JobSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("monitor: job name required")
	}
	if spec.Period <= 0 {
		return fmt.Errorf("monitor: job %q: period must be positive", spec.Name)
	}
	eng, ok := jm.engines[spec.Engine]
	if !ok {
		return fmt.Errorf("monitor: job %q: unknown engine %q", spec.Name, spec.Engine)
	}
	if !eng.Supports(spec.Data) {
		return fmt.Errorf("monitor: job %q: engine %s cannot collect %s", spec.Name, spec.Engine, spec.Data)
	}
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if spec.AllDevices {
		if jm.listDevices == nil {
			return fmt.Errorf("monitor: job %q: AllDevices requires a device lister", spec.Name)
		}
	} else if len(spec.Devices) == 0 {
		return fmt.Errorf("monitor: job %q: no devices", spec.Name)
	}
	for _, b := range spec.Backends {
		if _, ok := jm.backends[b]; !ok {
			return fmt.Errorf("monitor: job %q: unknown backend %q", spec.Name, b)
		}
	}
	return nil
}

// Jobs returns the installed job specs.
func (jm *JobManager) Jobs() []JobSpec {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return append([]JobSpec(nil), jm.specs...)
}

// Stats returns the event counters.
func (jm *JobManager) Stats() *EventStats { return jm.stats }

// Instrument mirrors the job manager's poll counters onto reg
// (robotron_monitor_polls_total{engine=...} and
// robotron_monitor_poll_errors_total). The EventStats getters remain
// the authoritative view.
func (jm *JobManager) Instrument(reg *telemetry.Registry) {
	reg.Help("robotron_monitor_polls_total", "successful active-monitoring polls per engine")
	jm.stats.instrument(reg)
}

// RunOnce executes one job immediately (the "ad-hoc monitoring jobs
// on-demand" path, used by config monitoring).
func (jm *JobManager) RunOnce(spec JobSpec) ([]Collection, error) {
	if spec.Period == 0 {
		spec.Period = time.Second // ad-hoc jobs need no real period
	}
	if err := jm.validate(spec); err != nil {
		return nil, err
	}
	return jm.execute(spec), nil
}

// execute polls every device of a job and fans results to its backends.
func (jm *JobManager) execute(spec JobSpec) []Collection {
	eng := jm.engines[spec.Engine]
	devices := spec.Devices
	if spec.AllDevices {
		jm.mu.Lock()
		list := jm.listDevices
		jm.mu.Unlock()
		if list != nil {
			devices = list()
		}
	}
	var out []Collection
	for _, name := range devices {
		dev, err := jm.resolve(name)
		if err != nil {
			jm.stats.addError()
			continue
		}
		col, err := eng.Poll(dev, spec.Data)
		if err != nil {
			jm.stats.addError()
			continue
		}
		jm.stats.add(spec.Engine, 1)
		jm.mu.Lock()
		clock := jm.clock
		backends := make([]Backend, 0, len(spec.Backends))
		for _, bn := range spec.Backends {
			if b, ok := jm.backends[bn]; ok {
				backends = append(backends, b)
			}
		}
		jm.mu.Unlock()
		col.At = clock.Now()
		out = append(out, col)
		for _, b := range backends {
			if err := b.Store(col); err != nil {
				jm.stats.addError()
			}
		}
	}
	return out
}

// nextDue is the one scheduler behind Start and RunVirtual: it returns
// the installed job that fires earliest (ties broken by name) and its
// fire offset. It reads the live job list on every call, so AddJob and
// ReplaceJobs take effect at the next fire: a job first seen at offset
// now is scheduled one period later, and one no longer installed is
// forgotten. due is the caller's per-run schedule, job name -> next
// fire offset.
func (jm *JobManager) nextDue(due map[string]time.Duration, now time.Duration) (spec JobSpec, at time.Duration, ok bool) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	for _, s := range jm.specs {
		d, seen := due[s.Name]
		if !seen {
			d = now + s.Period
			due[s.Name] = d
		}
		if !ok || d < at || (d == at && s.Name < spec.Name) {
			spec, at, ok = s, d, true
		}
	}
	if len(due) > len(jm.specs) { // names are unique: some entry is stale
		live := make(map[string]bool, len(jm.specs))
		for _, s := range jm.specs {
			live[s.Name] = true
		}
		for name := range due {
			if !live[name] {
				delete(due, name)
			}
		}
	}
	return spec, at, ok
}

// Start launches periodic polling of the installed jobs, each on its
// period, until Stop. The job set is live: jobs swapped in by
// ReplaceJobs after Start are polled, swapped-out ones stop.
func (jm *JobManager) Start() {
	jm.mu.Lock()
	if jm.running {
		jm.mu.Unlock()
		return
	}
	jm.running = true
	stop := make(chan struct{})
	jm.stopCh = stop
	jm.mu.Unlock()
	jm.wg.Add(1)
	go func() {
		defer jm.wg.Done()
		begin := time.Now()
		due := make(map[string]time.Duration)
		for {
			now := time.Since(begin)
			spec, at, ok := jm.nextDue(due, now)
			if ok && at <= now {
				jm.execute(spec)
				// Like a ticker, a slow poll drops missed fires
				// instead of bursting to catch up.
				due[spec.Name] = max(at+spec.Period, time.Since(begin))
				continue
			}
			if !jm.sleep(stop, at-now, ok) {
				return
			}
		}
	}()
}

// sleep blocks until d elapses (forever when nothing is due), the job
// set changes, or stop closes; it reports whether to keep running.
func (jm *JobManager) sleep(stop <-chan struct{}, d time.Duration, due bool) bool {
	var fire <-chan time.Time
	if due {
		t := time.NewTimer(d)
		defer t.Stop()
		fire = t.C
	}
	select {
	case <-stop:
		return false
	case <-jm.wake:
	case <-fire:
	}
	return true
}

// Stop halts periodic polling.
func (jm *JobManager) Stop() {
	jm.mu.Lock()
	if !jm.running {
		jm.mu.Unlock()
		return
	}
	jm.running = false
	close(jm.stopCh)
	jm.mu.Unlock()
	jm.wg.Wait()
}

// RunVirtual simulates a wall-clock window without sleeping: each job
// executes as many times as its period fits into the window, interleaved
// in fire-time order. Deterministic; used by the Table 2 experiment.
func (jm *JobManager) RunVirtual(window time.Duration) {
	due := make(map[string]time.Duration)
	now := time.Duration(0)
	for {
		spec, at, ok := jm.nextDue(due, now)
		if !ok || at > window {
			return
		}
		jm.execute(spec)
		due[spec.Name] = at + spec.Period
		now = at
	}
}

// FormatTable2 renders event statistics in the layout of the paper's
// Table 2, merging the passive (syslog) count from the classifier.
func FormatTable2(stats *EventStats, syslogEvents int64) string {
	counts := stats.Counts()
	rows := []struct {
		label string
		n     int64
	}{
		{"SNMP (active)", counts[EngineSNMP]},
		{"CLI (active)", counts[EngineCLI]},
		{"RPC/XML (active)", counts[EngineRPCXML]},
		{"Thrift (active)", counts[EngineThrift]},
		{"Syslog (passive)", syslogEvents},
	}
	var total int64
	for _, r := range rows {
		total += r.n
	}
	var b []byte
	b = fmt.Appendf(b, "%-18s %12s %10s\n", "Types", "# of events", "Percentage")
	for _, r := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(r.n) / float64(total)
		}
		b = fmt.Appendf(b, "%-18s %12d %9.2f%%\n", r.label, r.n, pct)
	}
	b = fmt.Appendf(b, "%-18s %12d %9.2f%%\n", "Total", total, 100.0)
	return string(b)
}

// SortedDeviceNames returns the fleet's device names, sorted as Devices
// returns them; a convenience for building job specs.
func SortedDeviceNames(f *netsim.Fleet) []string {
	devs := f.Devices()
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = d.Name()
	}
	return names
}
