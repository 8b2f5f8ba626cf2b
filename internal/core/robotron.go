// Package core assembles Robotron's subsystems into the top-down
// management life cycle of SIGCOMM '16, §3 and §5: network design → config
// generation → deployment → monitoring, all grounded in FBNet as the
// single source of truth.
//
// A Robotron instance owns one FBNet store, the design tools, the config
// generator and repository, the deployment engine, the monitoring
// pipelines, and (in this reproduction) the simulated device fleet the
// network runs on. The examples and the CLI drive this API.
package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/audit"
	"github.com/robotron-net/robotron/internal/configgen"
	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/revctl"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
	"github.com/robotron-net/robotron/internal/verify"
)

// Robotron is the assembled system.
type Robotron struct {
	Store      *fbnet.Store
	Designer   *design.Designer
	Generator  *configgen.Generator
	Repo       *revctl.Repo
	Fleet      *netsim.Fleet
	Deployer   *deploy.Deployer
	JobManager *monitor.JobManager
	Classifier *monitor.Classifier
	ConfigMon  *monitor.ConfigMonitor
	Timeseries *monitor.TimeseriesBackend

	// Reconciler is the closed-loop drift controller; nil unless
	// Options.EnableReconciler was set.
	Reconciler *reconcile.Reconciler

	// Alarms evaluates the intent-derived alarm rules over collected
	// data and assembles the operational timeline.
	Alarms *monitor.AlarmEngine

	// Verifier is the pre-deploy intent verification gate; VerifyIntent
	// controls whether GenerateAndDeploy/ProvisionCluster run it before
	// opening any management session. New turns it on: bypassing the gate
	// is the exceptional case (`sim run -no-verify` clears the field). Its
	// resident model is also the one place Desired topology is resolved:
	// SyncFleet, ApplyRecabling and DeriveMonitoring read what changed in
	// it through Verifier.Intent whether or not the gate is on.
	Verifier     *verify.Checker
	VerifyIntent bool

	// Telemetry is the shared metrics registry every subsystem reports
	// into; Tracer collects pipeline traces (one root span per
	// GenerateAndDeploy / ProvisionCluster). Both are always non-nil.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer

	// DeployParallelism bounds concurrent per-phase device commits in
	// the deployment engine; GenerateParallelism bounds concurrent config
	// generation. Both run on one worker pool (internal/fanout): 0 uses
	// its one default, fanout.DefaultWidth workers and never more than
	// the devices at hand.
	DeployParallelism   int
	GenerateParallelism int

	// DeployRetry, when non-nil, is the default transport-retry policy
	// for deployments driven through this instance (GenerateAndDeploy
	// and reconciler remediations); explicit deploy.Options.Retry wins.
	DeployRetry *deploy.RetryPolicy

	// Logf receives progress output; nil silences it.
	Logf func(format string, args ...any)

	// clock is the instance's one clock (Options.Clock).
	clock vclock.Clock

	// derived keeps the intent-derived jobs and rules (DeriveMonitoring);
	// plant is what SyncFleet has materialized of the design.
	derived *monitor.Derivation
	plant   plant
}

// plant is SyncFleet's and ApplyRecabling's record of the fleet they keep
// in step with the design: the view stamp it reflects, and the fleet's
// cabling version after their last changes. A fleet someone else recabled
// since — a fiber cut, a hand-wired port — is walked whole again.
type plant struct {
	mu                sync.Mutex
	stamp, cabling    uint64
	devices, circuits *telemetry.Counter // robotron_fleet_sync_visited_total by kind
}

// Options configure construction.
type Options struct {
	// Logf receives progress output.
	Logf func(format string, args ...any)
	// Store attaches to an existing FBNet store (e.g. a service
	// deployment's master) instead of creating a fresh one. It keeps
	// counting into the registry its server was built with.
	Store *fbnet.Store
	// DeployParallelism bounds concurrent device commits: those of one
	// rollout phase, and the reconciler's remediations that fall due
	// together. 0 uses the system's one default width,
	// fanout.DefaultWidth, never more than the devices at hand; 1 commits
	// one device at a time.
	DeployParallelism int
	// GenerateParallelism bounds concurrent config generation; 0 uses
	// the same default width.
	GenerateParallelism int
	// EnableReconciler turns on the closed-loop drift reconciler: every
	// deviation config monitoring detects is remediated automatically
	// (regenerate golden, redeploy with commit-confirm) under the safety
	// machinery configured by Reconcile.
	EnableReconciler bool
	// Reconcile tunes the reconciler (safety budget, flap damping,
	// backoff, sweep); the zero value selects the package defaults.
	// Alert defaults to Logf when unset.
	Reconcile reconcile.Config
	// Telemetry is the instance's one metrics registry (e.g. one shared
	// with a service deployment); nil creates a private one. Every
	// component New builds is built on it and counts from its first
	// operation.
	Telemetry *telemetry.Registry
	// FaultPolicy, when non-nil, arms deterministic fault injection on
	// every simulated device (present and future) and instruments the
	// injected-fault counters on the registry. Chaos tests construct a
	// policy, add rules, and pass it here.
	FaultPolicy *netsim.FaultPolicy
	// DeployRetry, when non-nil, becomes the default transport-retry
	// policy for GenerateAndDeploy and reconciler remediations. Without
	// it, commits are single-shot and any injected fault fails the
	// device's deployment.
	DeployRetry *deploy.RetryPolicy
	// Clock is the instance's one clock; nil is the wall clock. Every
	// component that schedules, waits or stamps runs on it: the devices'
	// syslog, counters and native commit-confirm timers, the deployer's
	// grace, commit timeout and retry backoff, the job manager's schedule
	// and collection stamps, audit events, the reconciler, and alarm
	// evaluation. Simulations pass a VirtualClock for deterministic,
	// byte-identical runs. A Reconcile.Clock, if set, must be this clock.
	Clock vclock.Clock
}

// New builds a complete Robotron instance over fresh state.
func New(opts Options) (*Robotron, error) {
	clock := opts.Clock
	if clock == nil {
		clock = vclock.RealClock()
	}
	if opts.Reconcile.Clock != nil && opts.Reconcile.Clock != opts.Clock {
		return nil, fmt.Errorf("core: Reconcile.Clock is not Options.Clock: an instance runs on one clock")
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	store := opts.Store
	if store == nil {
		var err error
		store, err = fbnet.Open(relstore.NewDB("fbnet-master", reg), fbnet.NewCatalog())
		if err != nil {
			return nil, err
		}
	}
	designer, err := design.NewDesigner(store, design.DefaultPools())
	if err != nil {
		return nil, err
	}
	if err := designer.EnsureStandardHardware(); err != nil {
		return nil, err
	}
	repo := revctl.NewRepo()
	// The gate's resident model is what the generator's memo follows, as
	// the fleet and monitoring syncs do: no follower of its own.
	verifier := verify.NewChecker(store, func(device string) (string, error) {
		return repo.GetHead(configgen.GoldenPath(device))
	}, reg)
	gen, err := configgen.NewGenerator(store, repo, verifier, reg)
	if err != nil {
		return nil, err
	}
	fleet := netsim.NewFleet(clock)
	if opts.FaultPolicy != nil {
		fleet.SetFaultPolicy(opts.FaultPolicy)
	}
	jm := monitor.NewJobManager(monitor.FleetDeviceResolver(fleet), clock, reg)
	jm.SetDeviceLister(func() []string { return monitor.SortedDeviceNames(fleet) })
	ts := monitor.NewTimeseriesBackend()
	for _, b := range []monitor.Backend{ts, monitor.NewDerivedBackend(store, ts), monitor.NewConfigBackend(repo)} {
		if err := jm.RegisterBackend(b); err != nil {
			return nil, err
		}
	}
	cls := monitor.NewClassifier()
	monitor.StandardRules(cls)
	monitor.RecordEvents(cls, store)
	cm := monitor.NewConfigMonitor(jm, repo, store, gen.Golden, reg)
	cm.Attach(cls)
	// Event-driven collection: a link or BGP state alert triggers an
	// immediate targeted poll of the reporting device, so Derived models
	// converge on the event rather than the next periodic cycle (the
	// ad-hoc job path of §5.4.2).
	cls.OnAlert(func(a monitor.Alert) {
		var data monitor.DataType
		switch a.Rule {
		case "link-state":
			data = monitor.DataInterfaces
		case "bgp-updown":
			data = monitor.DataBGP
		default:
			return
		}
		_, _ = jm.RunOnce(monitor.JobSpec{
			Name: "adhoc-event-" + a.Message.Host, Period: time.Second,
			Engine: monitor.EngineCLI, Data: data,
			Devices: []string{a.Message.Host}, Backends: []string{"fbnet-derived"},
		})
	})
	deployer := deploy.NewDeployer(deploy.FleetResolver(fleet), clock, reg)
	tracer := telemetry.NewTracer(telemetry.DefaultTraceRing)
	reg.Help("robotron_traces_started_total", "pipeline traces started")
	tracer.SetStartedCounter(reg.Counter("robotron_traces_started_total"))
	if opts.FaultPolicy != nil {
		opts.FaultPolicy.Instrument(reg)
	}
	alarms := monitor.NewAlarmEngine(clock, ts, store, reg)
	alarms.Subscribe(cls)
	derived := monitor.NewDerivation(jm, alarms, reg)
	reg.Help("robotron_fleet_sync_visited_total", "Devices and circuits SyncFleet and ApplyRecabling visited: those the design changed since the last sync, or every one after the fleet was recabled from outside.")
	r := &Robotron{
		Store:      store,
		Designer:   designer,
		Generator:  gen,
		Repo:       repo,
		Fleet:      fleet,
		Deployer:   deployer,
		JobManager: jm,
		Classifier: cls,
		ConfigMon:  cm,
		Timeseries: ts,

		Telemetry: reg,
		Tracer:    tracer,

		Verifier:     verifier,
		VerifyIntent: true,

		Alarms:  alarms,
		clock:   clock,
		derived: derived,
		plant: plant{
			devices:  reg.Counter("robotron_fleet_sync_visited_total", telemetry.L("kind", "device")...),
			circuits: reg.Counter("robotron_fleet_sync_visited_total", telemetry.L("kind", "circuit")...),
		},

		DeployParallelism:   opts.DeployParallelism,
		GenerateParallelism: opts.GenerateParallelism,
		DeployRetry:         opts.DeployRetry,

		Logf: opts.Logf,
	}
	if opts.EnableReconciler {
		rc := opts.Reconcile
		if rc.Alert == nil {
			rc.Alert = opts.Logf
		}
		rc.Clock = clock
		if rc.DeployRetry == nil {
			rc.DeployRetry = opts.DeployRetry
		}
		if rc.Parallelism == 0 {
			rc.Parallelism = opts.DeployParallelism
		}
		// Failure domains: a device's shard is its simulated site, so a
		// drift storm in one site trips only that site's breaker.
		siteOf := func(device string) string {
			if d, ok := fleet.Device(device); ok {
				return d.Site()
			}
			return ""
		}
		rec := reconcile.New(reconcile.Deps{
			Golden:         gen,
			Deployer:       deployer,
			Checker:        cm,
			FleetSize:      fleet.Len,
			SweepList:      func() []string { return monitor.SortedDeviceNames(fleet) },
			SiteOf:         siteOf,
			ShardFleetSize: (&shardSizes{fleet: fleet}).size,
		}, rc)
		cm.OnDeviation(rec.HandleDeviation)
		cm.OnCheckError(rec.HandleCheckError)
		rec.Instrument(reg)
		rec.Start()
		r.Reconciler = rec
		alarms.SetJournalSource(func() []monitor.JournalEntry {
			evs := rec.Journal().Events()
			out := make([]monitor.JournalEntry, len(evs))
			for i, ev := range evs {
				out[i] = monitor.JournalEntry{
					At: ev.At, Device: ev.Device,
					Type: string(ev.Type), Detail: ev.Detail,
				}
			}
			return out
		})
	}
	return r, nil
}

// shardSizes counts the fleet's devices per site — the reconciler's shards
// — for the per-shard fractional budget, recounting only when the fleet's
// size changes: a budget check costs a lock and a map read.
type shardSizes struct {
	fleet *netsim.Fleet

	mu       sync.Mutex
	fleetLen int
	bySite   map[string]int
}

func (s *shardSizes) size(shard string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bySite == nil || s.fleetLen != s.fleet.Len() {
		devs := s.fleet.Devices()
		bySite := make(map[string]int)
		for _, d := range devs {
			site := d.Site()
			if site == "" {
				site = reconcile.DeriveShard(d.Name())
			}
			bySite[site]++
		}
		s.bySite, s.fleetLen = bySite, len(devs)
	}
	return s.bySite[shard]
}

// ServeMetrics starts the observability HTTP endpoint on addr
// (":9090", "127.0.0.1:0", ...): /metrics in Prometheus text format,
// /traces as JSON, /healthz with the registered health checks. Close
// the returned server to stop it.
func (r *Robotron) ServeMetrics(addr string) (*telemetry.Server, error) {
	return telemetry.ListenAndServeWith(addr, r.Telemetry, r.Tracer, r.obsHandlers())
}

// obsHandlers exposes the engines beside /metrics: /alarms is the full
// alarm snapshot (lifecycle states + correlations), /timeline the merged
// operational stream, /reconcile the reconciler's per-shard breaker/budget
// snapshot — the last only when the reconciler is enabled.
func (r *Robotron) obsHandlers() []telemetry.ExtraHandler {
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	hs := []telemetry.ExtraHandler{
		{Pattern: "/alarms", Handler: func(w http.ResponseWriter, _ *http.Request) {
			alarms := r.Alarms.Snapshot()
			if alarms == nil {
				alarms = []monitor.Alarm{}
			}
			writeJSON(w, alarms)
		}},
		{Pattern: "/timeline", Handler: func(w http.ResponseWriter, _ *http.Request) {
			tl := r.Alarms.Timeline(time.Time{}, time.Time{})
			if tl == nil {
				tl = []monitor.TimelineEntry{}
			}
			writeJSON(w, tl)
		}},
	}
	if r.Reconciler != nil {
		hs = append(hs,
			telemetry.ExtraHandler{Pattern: "/reconcile", Handler: func(w http.ResponseWriter, _ *http.Request) {
				writeJSON(w, r.Reconciler.Snapshot())
			}},
		)
	}
	return hs
}

func (r *Robotron) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// SyncFleet materializes the physical network implied by FBNet Desired
// state into the simulator: devices exist, cables follow circuits, and
// every device logs to the classifier. Idempotent. In production this is
// the part of the world Robotron does NOT control — racking and cabling —
// which is why design changes and deployments are decoupled (§8).
//
// It visits the devices and circuits the resident model's view stamped
// since the last sync (verify.Intent.Since), and every one of them on the
// first sync, after a model rebuild, or once someone else recabled the
// fleet: a device or circuit the design did not touch is as the last sync
// left it.
func (r *Robotron) SyncFleet() error {
	_, err := r.syncPlant(false)
	return err
}

// ApplyRecabling reconciles the physical cabling with the Desired
// circuits: cables contradicting the design are removed and the designed
// ones installed — the field technician executing a cabling work order
// after a circuit migration. Returns the number of cables moved. It visits
// what SyncFleet does.
func (r *Robotron) ApplyRecabling() (int, error) {
	return r.syncPlant(true)
}

// syncPlant is SyncFleet, first uncabling the visited circuits' ends that
// run elsewhere when recable is set. The view stamp advances only when the
// whole pass succeeds, so a failed one is visited again.
func (r *Robotron) syncPlant(recable bool) (moved int, err error) {
	p := &r.plant
	p.mu.Lock()
	defer p.mu.Unlock()
	since := p.stamp
	if r.Fleet.CablingVersion() != p.cabling {
		since = 0
	}
	var ch verify.Changes
	if err := r.Verifier.Intent(func(in verify.Intent) error {
		ch = in.Since(since)
		return nil
	}); err != nil {
		return 0, err
	}
	p.devices.Add(int64(len(ch.Devices)))
	p.circuits.Add(int64(len(ch.Circuits)))
	if recable {
		// uncable removes the cable on dev:iface unless it runs where the
		// design says.
		uncable := func(dev, iface, wantFar, wantFarIf string) {
			if far, farIf, cabled := r.Fleet.CableOf(dev, iface); cabled && (far != wantFar || farIf != wantFarIf) {
				r.Fleet.Uncable(dev, iface)
				moved++
			}
		}
		for _, c := range ch.Circuits {
			uncable(c.ADevice, c.AInterface, c.ZDevice, c.ZInterface)
			uncable(c.ZDevice, c.ZInterface, c.ADevice, c.AInterface)
		}
	}
	for _, dev := range ch.Devices {
		if _, exists := r.Fleet.Device(dev.Name); exists {
			continue
		}
		vendor := netsim.Vendor1
		if dev.Syntax == "vendor2" {
			vendor = netsim.Vendor2
		}
		d, err := r.Fleet.AddDevice(dev.Name, vendor, dev.Role, dev.Site)
		if err != nil {
			return moved, err
		}
		d.SetSyslogSink(func(m netsim.SyslogMessage) { r.Classifier.Process(m) })
	}
	// Cable per Desired circuit.
	for _, c := range ch.Circuits {
		if far, farIf, cabled := r.Fleet.CableOf(c.ADevice, c.AInterface); cabled {
			if far != c.ZDevice || farIf != c.ZInterface {
				return moved, fmt.Errorf("core: %s:%s is cabled to %s:%s but the design wants %s:%s",
					c.ADevice, c.AInterface, far, farIf, c.ZDevice, c.ZInterface)
			}
			continue
		}
		if err := r.Fleet.Wire(c.ADevice, c.AInterface, c.ZDevice, c.ZInterface); err != nil {
			return moved, err
		}
	}
	p.stamp, p.cabling = ch.Stamp, r.Fleet.CablingVersion()
	return moved, nil
}

// ProvisionResult reports a cluster provisioning run.
type ProvisionResult struct {
	Build   design.BuildResult
	Devices []string
	Report  deploy.Report
}

// ProvisionCluster executes the full life cycle for a new cluster: design
// (template → FBNet objects), physical build-out (simulated), then the
// rollout, whose push provisions every designed device from a clean state
// and promotes the cluster, its circuits and its devices to production.
func (r *Robotron) ProvisionCluster(ctx design.ChangeContext, siteName, clusterName string, tpl design.TopologyTemplate) (ProvisionResult, error) {
	tr := r.Tracer.Start("provision-cluster")
	defer tr.End()
	tr.SetAttr("cluster", clusterName)

	dsp := tr.Child("design")
	build, err := r.Designer.BuildCluster(ctx, siteName, clusterName, tpl)
	if err != nil {
		dsp.End()
		tr.SetAttr("error", err.Error())
		return ProvisionResult{}, fmt.Errorf("core: design stage failed: %w", err)
	}
	dsp.SetAttrInt("objects", int64(build.Stats.Total()))
	dsp.End()
	out := ProvisionResult{Build: build, Devices: build.DeviceNames}
	r.logf("design: cluster %s materialized %d objects", clusterName, build.Stats.Total())

	if err := r.SyncFleet(); err != nil {
		return out, fmt.Errorf("core: physical build-out failed: %w", err)
	}
	out.Report, err = r.rollout(tr, build.DeviceNames, deploy.Options{}, change{
		kind: "provision", author: ctx.EmployeeID,
		reason: "initial provisioning of " + clusterName, detail: "cluster " + clusterName,
		push: func(configs map[string]string, opts deploy.Options) (deploy.Report, error) {
			rep, err := r.Deployer.InitialProvision(configs, opts)
			if err != nil {
				return rep, err
			}
			// Promote the cluster and its circuits to production and undrain.
			_, err = r.Store.Mutate(func(m *fbnet.Mutation) error {
				cluster, err := m.FindOne("Cluster", fbnet.Eq("name", clusterName))
				if err != nil {
					return err
				}
				if err := m.Update("Cluster", cluster.ID, map[string]any{"status": "production"}); err != nil {
					return err
				}
				circuits, err := m.Find("Circuit", fbnet.And(
					fbnet.Eq("status", "provisioning"),
					fbnet.Eq("a_interface.linecard.device.cluster", cluster.ID),
				))
				if err != nil {
					return err
				}
				for _, c := range circuits {
					if err := m.Update("Circuit", c.ID, map[string]any{"status": "production"}); err != nil {
						return err
					}
				}
				devs, err := m.Referencing("Device", "cluster", cluster.ID)
				if err != nil {
					return err
				}
				for _, d := range devs {
					if err := m.Update("Device", d.ID, map[string]any{"drain_state": "undrained"}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return rep, err
			}
			for _, name := range build.DeviceNames {
				if d, ok := r.Fleet.Device(name); ok {
					d.SetTrafficLoad(0.3)
				}
			}
			return rep, nil
		},
	})
	if err != nil {
		tr.SetAttr("error", err.Error())
		return out, fmt.Errorf("core: turn-up of %s failed: %w", clusterName, err)
	}
	r.logf("deploy: cluster %s provisioned and serving", clusterName)
	return out, nil
}

// GenerateAndDeploy regenerates configs for the named devices and deploys
// them incrementally through the rollout.
func (r *Robotron) GenerateAndDeploy(devices []string, opts deploy.Options, author string) (deploy.Report, error) {
	tr := r.Tracer.Start("generate-and-deploy")
	defer tr.End()
	tr.SetAttrInt("devices", int64(len(devices)))

	rep, err := r.rollout(tr, devices, opts, change{
		kind: "deploy", author: author,
		reason: "incremental update intent", detail: "by " + author,
		push: r.Deployer.Deploy,
	})
	if err != nil {
		tr.SetAttr("error", err.Error())
		return rep, err
	}
	// Close the loop inside the same trace: check the deployed devices now,
	// feeding any drift or check error to the reconciler.
	if r.Reconciler != nil {
		rsp := tr.Child("reconcile")
		rsp.SetAttrInt("checked", int64(r.Reconciler.VerifyDevices(devices, rsp)))
		rsp.End()
	}
	return rep, nil
}

// change is what a rollout carries: the golden commit's author and
// reason, the deploy record's kind and detail, and the push.
type change struct {
	kind, author, reason, detail string
	push                         func(configs map[string]string, opts deploy.Options) (deploy.Report, error)
}

// rollout is the one sequence from intent to the fleet: generate → gate →
// commit goldens → push → record the deploy → re-derive monitoring. The
// gate runs before the goldens move and before any management session
// opens: a rejected change leaves no trace on the fleet and no stale
// intent in the repository. The goldens move before the push: the golden
// is the current intent (§5.4.3), so the config-change events the push
// raises compare against it, and a failed push leaves the device flagged
// as deviating until it is retried.
func (r *Robotron) rollout(tr *telemetry.Span, devices []string, opts deploy.Options, c change) (deploy.Report, error) {
	gsp := tr.Child("generate")
	configs, err := r.Generator.GenerateMany(devices, r.GenerateParallelism, gsp)
	gsp.End()
	if err != nil {
		return deploy.Report{}, err
	}
	if err := r.verifyGate(configs, tr); err != nil {
		return deploy.Report{}, err
	}
	for name, cfg := range configs {
		if _, err := r.Generator.CommitGolden(name, cfg, c.author, c.reason); err != nil {
			return deploy.Report{}, err
		}
	}
	if opts.Notify == nil {
		opts.Notify = r.Logf
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = r.DeployParallelism
	}
	if opts.Retry == nil {
		opts.Retry = r.DeployRetry
	}
	psp := tr.Child(c.kind)
	opts.Span = psp
	rep, err := c.push(configs, opts)
	psp.End()
	if err != nil {
		return rep, err
	}
	if err := audit.RecordDeploy(r.Store, c.kind, len(configs), c.detail, r.clock.Now().Unix()); err != nil {
		return rep, err
	}
	if err := r.DeriveMonitoring(); err != nil {
		return rep, err
	}
	return rep, nil
}

// verifyGate runs the pre-deploy intent verification over the candidate
// configs (the §5.2→§5.3 boundary): network-wide invariants are checked
// against FBNet, the decision is recorded as an audit event, and a
// rejection — carrying every counterexample — is returned before a single
// management session is opened.
func (r *Robotron) verifyGate(configs map[string]string, tr *telemetry.Span) error {
	if !r.VerifyIntent {
		// A bypassed gate still leaves a visible trail in the operational
		// record.
		return audit.RecordGateBypass(r.Store, len(configs), r.clock.Now().Unix())
	}
	sp := tr.Child("verify")
	res, err := r.Verifier.Check(configs)
	sp.SetAttrInt("violations", int64(len(res.Violations)))
	sp.SetAttrInt("delta_entries", int64(res.DeltaEntries))
	sp.SetAttrInt("rechecked", int64(res.Rechecked))
	sp.SetAttr("rebuilt", strconv.FormatBool(res.Rebuilt))
	sp.End()
	if err != nil {
		return err
	}
	summaries := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		summaries = append(summaries, fmt.Sprintf("[%s] %s: %s", v.Invariant, v.Device, v.Detail))
	}
	if err := audit.RecordGate(r.Store, res.Devices, summaries, r.clock.Now().Unix()); err != nil {
		return err
	}
	if !res.Pass() {
		for _, v := range res.Violations {
			r.logf("verify: %s", v)
		}
		return &verify.RejectionError{Result: res}
	}
	r.logf("verify: %d devices checked, all invariants hold (%v)", res.Devices, res.Elapsed)
	return nil
}

// DevicesOfSite lists device names at a site.
func (r *Robotron) DevicesOfSite(site string) ([]string, error) {
	devs, err := r.Store.Find("Device", fbnet.Eq("site.name", site))
	if err != nil {
		return nil, err
	}
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = d.String("name")
	}
	return names, nil
}

// CollectOnce runs every installed job once, as one execution of the
// engine tier (JobManager.RunInstalled), and refreshes derived circuits:
// the "one monitoring cycle" primitive used by audits and examples.
func (r *Robotron) CollectOnce() error {
	r.JobManager.RunInstalled()
	_, err := monitor.DeriveCircuits(r.Store)
	return err
}

// DeriveMonitoring regenerates the intent-derived monitoring config: the
// collection jobs (under the "derived-" prefix) and alarm rules of every
// device the resident model's view changed since the last call are
// re-derived and swapped in by device; active alarms survive unless their
// own rule went (monitor.Derivation). Called automatically after
// ProvisionCluster and GenerateAndDeploy.
func (r *Robotron) DeriveMonitoring() error {
	n, err := r.derived.Sync(r.Verifier)
	if err != nil {
		return err
	}
	r.logf("monitor: re-derived the collection jobs and alarm rules of %d device(s)", n)
	return nil
}

// ObserveOnce is one full monitoring cycle with evaluation: every
// installed job runs once (CollectOnce), then the alarm engine evaluates
// all rules over the fresh data. Returns the alarms currently firing.
func (r *Robotron) ObserveOnce() ([]monitor.Alarm, error) {
	if err := r.CollectOnce(); err != nil {
		return nil, err
	}
	return r.Alarms.Evaluate(), nil
}

// Audit runs the Desired-vs-Derived anomaly detection.
func (r *Robotron) Audit() (audit.Report, error) {
	return audit.Run(r.Store, r.Verifier)
}

// MetricHealthCheck returns a phased-deployment health gate that requires
// the device reachable, its running config converged on the intent, and
// its CPU utilization below maxCPU percent — "Robotron monitors metrics to
// track the progress of each phase" (§5.3.2).
func MetricHealthCheck(maxCPU float64) func(t deploy.Target, intended string) error {
	return func(t deploy.Target, intended string) error {
		if err := deploy.DefaultHealthCheck(t, intended); err != nil {
			return err
		}
		counters, ok := t.(interface {
			Counters() (map[string]float64, error)
		})
		if !ok {
			return nil // transport without metrics: config check suffices
		}
		c, err := counters.Counters()
		if err != nil {
			return err
		}
		if cpu := c["cpu_util"]; cpu > maxCPU {
			return fmt.Errorf("cpu utilization %.1f%% exceeds gate %.1f%%", cpu, maxCPU)
		}
		return nil
	}
}

// DrainDevice records the drain in FBNet and moves production traffic off
// the device (§1's drain procedure, a prerequisite for maintenance and
// initial provisioning).
func (r *Robotron) DrainDevice(ctx design.ChangeContext, name string) error {
	if _, err := r.Designer.SetDrainState(ctx, name, "drained"); err != nil {
		return err
	}
	if d, ok := r.Fleet.Device(name); ok {
		d.SetTrafficLoad(0)
	}
	return nil
}

// UndrainDevice returns a device to service.
func (r *Robotron) UndrainDevice(ctx design.ChangeContext, name string) error {
	if _, err := r.Designer.SetDrainState(ctx, name, "undrained"); err != nil {
		return err
	}
	if d, ok := r.Fleet.Device(name); ok {
		d.SetTrafficLoad(0.3)
	}
	return nil
}
