package monitor

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/robotron-net/robotron/internal/fanout"
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

// EventStats counts collection events per engine type (Table 2) on the
// registry the job manager was built with:
// robotron_monitor_polls_total{engine} and
// robotron_monitor_poll_errors_total. Syslog (passive) events are counted
// by the classifier and merged in reports.
type EventStats struct {
	polls  map[EngineType]*telemetry.Counter // one per engine; fixed at construction
	errors *telemetry.Counter
}

func newEventStats(engines map[EngineType]Engine, reg *telemetry.Registry) *EventStats {
	reg.Help("robotron_monitor_polls_total", "successful active-monitoring polls per engine")
	reg.Help("robotron_monitor_poll_errors_total", "active-monitoring polls or backend stores that failed")
	s := &EventStats{
		polls:  make(map[EngineType]*telemetry.Counter, len(engines)),
		errors: reg.Counter("robotron_monitor_poll_errors_total"),
	}
	for e := range engines {
		s.polls[e] = reg.Counter("robotron_monitor_polls_total", telemetry.Label{Key: "engine", Value: string(e)})
	}
	return s
}

// Counts returns the per-engine event counts, the engines that polled
// nothing left out (all of them on a nil registry).
func (s *EventStats) Counts() map[EngineType]int64 {
	out := make(map[EngineType]int64, len(s.polls))
	for e, c := range s.polls {
		if n := c.Value(); n > 0 {
			out[e] = n
		}
	}
	return out
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
	sched       *schedule    // the started schedule, nil when stopped
	clock       vclock.Clock // schedules every execution and stamps every collection
	pollWidth   int          // the engine tier's width; 0 is fanout.DefaultWidth
}

// NewJobManager creates a job manager with the standard engines on clock,
// counting its polls into reg (Stats; nil counts nothing).
func NewJobManager(resolve DeviceResolver, clock vclock.Clock, reg *telemetry.Registry) *JobManager {
	engines := NewEngines()
	return &JobManager{
		resolve:  resolve,
		engines:  engines,
		backends: make(map[string]Backend),
		stats:    newEventStats(engines, reg),
		clock:    clock,
	}
}

// jobsChanged re-plans a started manager's next fire. jm.mu is held.
func (jm *JobManager) jobsChanged() {
	if jm.sched != nil {
		jm.armLocked(jm.sched)
	}
}

// SetDeviceLister enables AllDevices job specs by providing the fleet
// enumeration used at each execution.
func (jm *JobManager) SetDeviceLister(list func() []string) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	jm.listDevices = list
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

// RunOnce executes jobs immediately, once each — the "ad-hoc monitoring
// jobs on-demand" path of config monitoring and audits — and returns their
// collections in (job, device) order. A job may leave its period zero: it
// runs once. Every job is validated before any runs.
func (jm *JobManager) RunOnce(specs ...JobSpec) ([]Collection, error) {
	for _, spec := range specs {
		if spec.Period == 0 {
			spec.Period = time.Second
		}
		if err := jm.validate(spec); err != nil {
			return nil, err
		}
	}
	out := []Collection{}
	jm.execute(specs, &out)
	return out, nil
}

// RunInstalled executes every installed job once, as one execution: one
// monitoring cycle. The jobs run as installed — each was validated when
// it was — and their collections go to the backends only. Specs are only
// ever appended or swapped wholesale, so the installed slice, read under
// the lock, is run in place.
func (jm *JobManager) RunInstalled() {
	jm.mu.Lock()
	specs := jm.specs
	jm.mu.Unlock()
	jm.execute(specs, nil)
}

// pollLookahead is how many polls per worker may run ahead of storing.
const pollLookahead = 4

// A poll is one (job, device) pair of an execution.
type poll struct {
	job    int
	device string
	worker int // the device's number, in order of first appearance; then its worker
	dev    DeviceAPI
	err    error // the resolver's
}

// polled is a worker's answer to one poll: a collection, an error, or the
// value a panic in the poll raised.
type polled struct {
	col    Collection
	err    error
	panicV any
}

func (jm *JobManager) pollOne(jobs []JobSpec, p *poll) (r polled) {
	defer func() { r.panicV = recover() }()
	spec := &jobs[p.job]
	r.col, r.err = jm.engines[spec.Engine].Poll(p.dev, spec.Data)
	return r
}

// execute runs jobs once. It is the engine tier of Fig. 11: the polls are
// partitioned by device over a bounded pool — a device's polls all run on
// one worker, in job order, so a device sees the serial loop's sequence of
// management calls — and the caller resolves devices and stores every
// collection in (job, device) order, the serial loop's. Backends, series
// marks, the Derived writes, poll and error counts and each collection's
// stamp therefore do not depend on goroutine timing. Workers run at most
// pollLookahead polls each ahead of storing, and a panic in a poll is
// raised again on the caller. The collections are appended to out unless
// it is nil.
func (jm *JobManager) execute(jobs []JobSpec, out *[]Collection) {
	jm.mu.Lock()
	list, clock, pollWidth := jm.listDevices, jm.clock, jm.pollWidth
	jm.mu.Unlock()
	polls := make([]poll, 0, len(jobs))
	devices := make(map[string]int)
	for j, spec := range jobs {
		names := spec.Devices
		if spec.AllDevices && list != nil {
			names = list()
		}
		for _, name := range names {
			d, ok := devices[name]
			if !ok {
				d = len(devices)
				devices[name] = d
			}
			polls = append(polls, poll{job: j, device: name, worker: d})
		}
	}
	// The deploy and generate pools' width rule: an execution over fewer
	// devices runs fewer workers.
	width := fanout.Width(pollWidth, len(devices))
	if out != nil {
		*out = slices.Grow(*out, len(polls))
	}
	var backends []Backend
	backendsJob := -1 // the job backends are of
	store := func(p *poll, r polled) {
		if r.panicV != nil {
			panic(r.panicV)
		}
		if p.err != nil || r.err != nil {
			jm.stats.errors.Inc()
			return
		}
		spec := &jobs[p.job]
		jm.stats.polls[spec.Engine].Inc()
		if backendsJob != p.job {
			backendsJob, backends = p.job, jm.backendsOf(spec, backends[:0])
		}
		col := r.col
		col.At = clock.Now()
		if out != nil {
			*out = append(*out, col)
		}
		for _, b := range backends {
			if err := b.Store(col); err != nil {
				jm.stats.errors.Inc()
			}
		}
	}
	if width <= 1 {
		for i := range polls {
			p := &polls[i]
			var r polled
			if p.dev, p.err = jm.resolve(p.device); p.err == nil {
				r = jm.pollOne(jobs, p)
			}
			store(p, r)
		}
		return
	}
	for i := range polls {
		polls[i].worker %= width
	}
	// At most window polls are sent and not yet stored, so channels of
	// that size never block the caller's sends or a worker's signals.
	window := pollLookahead * width
	slots := make([]polled, window) // poll i answers in slots[i%window]
	in := make([]chan int, width)
	done := make([]chan struct{}, width)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range in {
		in[w], done[w] = make(chan int, window), make(chan struct{}, window)
		wg.Add(1)
		go func(in <-chan int, done chan<- struct{}) {
			defer wg.Done()
			for i := range in {
				if !stop.Load() {
					slots[i%window] = jm.pollOne(jobs, &polls[i])
				}
				done <- struct{}{}
			}
		}(in[w], done[w])
	}
	defer func() {
		stop.Store(true)
		for _, c := range in {
			close(c)
		}
		wg.Wait()
	}()
	sent := 0
	for i := range polls {
		for ; sent < len(polls) && sent < i+window; sent++ {
			p := &polls[sent]
			if p.dev, p.err = jm.resolve(p.device); p.err == nil {
				in[p.worker] <- sent
			}
		}
		p := &polls[i]
		var r polled
		if p.err == nil {
			<-done[p.worker]
			r = slots[i%window]
		}
		store(p, r)
	}
}

// backendsOf appends the registered backends a job names to buf.
func (jm *JobManager) backendsOf(spec *JobSpec, buf []Backend) []Backend {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	for _, bn := range spec.Backends {
		if b, ok := jm.backends[bn]; ok {
			buf = append(buf, b)
		}
	}
	return buf
}

// nextDueLocked returns the installed jobs that fire earliest, in name
// order, and their fire offset. It reads the live
// job list on every call, so AddJob and ReplaceJobs take effect at the
// next fire: a job first seen at offset now is scheduled one period
// later, and one no longer installed is forgotten. due is the schedule's
// job name -> next fire offset. jm.mu is held.
func (jm *JobManager) nextDueLocked(due map[string]time.Duration, now time.Duration) (specs []JobSpec, at time.Duration) {
	for _, s := range jm.specs {
		d, seen := due[s.Name]
		if !seen {
			d = now + s.Period
			due[s.Name] = d
		}
		switch {
		case len(specs) == 0 || d < at:
			specs, at = append(specs[:0], s), d
		case d == at:
			specs = append(specs, s)
		}
	}
	slices.SortFunc(specs, func(a, b JobSpec) int { return strings.Compare(a.Name, b.Name) })
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
	return specs, at
}

// schedule is one Start's run: the jobs' next fire offsets from begin
// and the clock timer armed for the earliest. exec serializes its
// executions, and Stop waits on it for one in flight.
type schedule struct {
	begin time.Time
	due   map[string]time.Duration // guarded by jm.mu
	timer vclock.Timer             // guarded by jm.mu
	exec  sync.Mutex
}

// Start launches periodic polling of the installed jobs, each on its
// period, until Stop. The schedule runs on the manager's clock: a timer
// armed for the next due instant runs the execution in its callback, so
// on a VirtualClock the jobs execute inline during Advance, in fire-time
// order, the jobs due at one instant as one execution. The job set is
// live: jobs swapped in by ReplaceJobs after Start are polled,
// swapped-out ones stop.
func (jm *JobManager) Start() {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if jm.sched != nil {
		return
	}
	jm.sched = &schedule{begin: jm.clock.Now(), due: make(map[string]time.Duration)}
	jm.armLocked(jm.sched)
}

// armLocked replaces sc's timer with one for its next due instant; with
// no job installed none is armed until the job set changes. jm.mu is
// held.
func (jm *JobManager) armLocked(sc *schedule) {
	if sc.timer != nil {
		sc.timer.Stop()
		sc.timer = nil
	}
	now := jm.clock.Now().Sub(sc.begin)
	specs, at := jm.nextDueLocked(sc.due, now)
	if len(specs) > 0 {
		sc.timer = jm.clock.AfterFunc(at-now, func() { jm.fire(sc) })
	}
}

// fire executes the jobs of sc that are due and arms the next fire. A
// stale timer, one whose schedule was stopped or re-planned, finds
// nothing due and only re-arms.
func (jm *JobManager) fire(sc *schedule) {
	sc.exec.Lock()
	defer sc.exec.Unlock()
	jm.mu.Lock()
	if jm.sched != sc {
		jm.mu.Unlock()
		return
	}
	now := jm.clock.Now().Sub(sc.begin)
	specs, at := jm.nextDueLocked(sc.due, now)
	due := len(specs) > 0 && at <= now
	jm.mu.Unlock()
	if due {
		jm.execute(specs, nil)
	}
	jm.mu.Lock()
	defer jm.mu.Unlock()
	if due {
		// Like a ticker, a slow poll drops missed fires instead of
		// bursting to catch up.
		after := jm.clock.Now().Sub(sc.begin)
		for _, spec := range specs {
			sc.due[spec.Name] = max(at+spec.Period, after)
		}
	}
	if jm.sched == sc {
		jm.armLocked(sc)
	}
}

// Stop halts periodic polling. It waits out an execution in flight, so
// nothing executes after it returns; it must not be called from a
// backend the execution stores to.
func (jm *JobManager) Stop() {
	jm.mu.Lock()
	sc := jm.sched
	if sc == nil {
		jm.mu.Unlock()
		return
	}
	jm.sched = nil
	if sc.timer != nil {
		sc.timer.Stop()
	}
	jm.mu.Unlock()
	// An execution in flight holds exec; a timer that fires later finds
	// the schedule gone.
	sc.exec.Lock()
	sc.exec.Unlock()
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
