package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/robotron-net/robotron/internal/core"
	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/fbnet/service"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
	"github.com/robotron-net/robotron/internal/verify"
)

// Options tune a run.
type Options struct {
	// Realtime runs on the wall clock instead of the virtual one: event
	// offsets and converge steps become real sleeps, and reconciler
	// timers fire on their own. Journals are then not byte-stable.
	Realtime bool
	// Logf receives verbose progress; nil silences it.
	Logf func(format string, args ...any)
	// Attach, when non-nil, is the caller's hook into the run's world. It
	// is called once the core instance is assembled, before the baseline
	// fleet provisions, and may adjust it (`sim run -no-verify`) or serve
	// from it (`-metrics-addr`); an error aborts the run. The function it
	// returns, if any, is called when the run ends — with nil after a
	// passed run, else the failure — before teardown: `robotron obs`
	// prints its view of the finished world there.
	Attach func(*core.Robotron) (detach func(runErr error), err error)
}

// Result reports a passed run.
type Result struct {
	Scenario string
	Events   int
	// Journal is the deterministic run record: engine steps, fault
	// counts, final device states, and the full reconciler journal.
	// Under the virtual clock, identical (file, seed) pairs produce
	// byte-identical journals.
	Journal string
}

// RunError is a scenario-level failure: an assertion that did not hold,
// or an action that failed. It names the event, the assertion, and the
// device, and carries relevant context (a confdiff hunk, a journal
// tail) for the postmortem.
type RunError struct {
	Scenario  string
	EventIdx  int    // -1: setup or the final assert block
	AssertIdx int    // -1: the action itself failed, not an assertion
	Kind      string // assertion type, or the action name
	Device    string
	Msg       string
	Context   string // confdiff hunk, journal tail, ... (may be empty)
}

func (e *RunError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: ", e.Scenario)
	switch {
	case e.EventIdx < 0 && e.AssertIdx < 0:
		b.WriteString("setup")
	case e.EventIdx < 0:
		fmt.Fprintf(&b, "final assert %d (%s)", e.AssertIdx, e.Kind)
	case e.AssertIdx < 0:
		fmt.Fprintf(&b, "event %d (%s)", e.EventIdx, e.Kind)
	default:
		fmt.Fprintf(&b, "event %d expect %d (%s)", e.EventIdx, e.AssertIdx, e.Kind)
	}
	b.WriteString(" failed")
	if e.Device != "" {
		fmt.Fprintf(&b, " on device %s", e.Device)
	}
	fmt.Fprintf(&b, ": %s", e.Msg)
	if e.Context != "" {
		b.WriteString("\n")
		b.WriteString(e.Context)
	}
	return b.String()
}

// engine is one run's mutable state.
type engine struct {
	file    *File
	opts    Options
	start   time.Time
	vc      *vclock.VirtualClock // nil in realtime mode
	clock   vclock.Clock
	r       *core.Robotron
	dep     *service.Deployment
	policy  *netsim.FaultPolicy
	reg     *telemetry.Registry
	detach  func(runErr error) // from Options.Attach; may be nil
	armed   bool               // current chaos arming (survives assertion pauses)
	devices []string
	sites   map[string][]string // site -> its sorted devices ("site:x" selectors)

	opsBase    map[string]int64  // from the last snapshot event
	goldenBase map[string]string // from the last snapshot event

	journal strings.Builder
}

// Run executes a validated scenario.
func Run(f *File, opts Options) (_ *Result, err error) {
	e := &engine{file: f, opts: opts, start: f.Start}
	if opts.Realtime {
		e.clock = vclock.RealClock()
		e.start = e.clock.Now()
	} else {
		e.vc = vclock.NewVirtualClock(f.Start)
		e.clock = e.vc
	}
	// Teardown runs on every exit, a failed build included; the caller's
	// detach hook sees the world and the run's verdict before the service
	// tier closes and the reconciler stops.
	defer func() {
		if e.detach != nil {
			e.detach(err)
		}
		if e.dep != nil {
			e.dep.Close()
		}
		if e.r != nil {
			e.r.Reconciler.Stop()
		}
	}()
	if err := e.build(); err != nil {
		return nil, err
	}

	e.logf("scenario %s: %d device(s) provisioned, %d event(s)", f.Name, len(e.devices), len(f.Events))
	e.note("scenario %s seed=%d devices=%d", f.Name, f.Seed, len(e.devices))

	if e.policy != nil && f.Faults.Armed {
		e.setArmed(true)
	}

	// On failure the journal accumulated so far rides along with the
	// error so callers can show what led up to the violated assertion.
	partial := func(err error) (*Result, error) {
		e.finishJournal()
		return &Result{Scenario: f.Name, Events: len(f.Events), Journal: e.journal.String()}, err
	}
	for i := range f.Events {
		ev := &f.Events[i]
		e.advanceTo(ev.At)
		e.note("[%s] event %d %s", e.elapsed(), ev.Idx, describeEvent(ev))
		e.logf("t=%s event %d: %s", e.elapsed(), ev.Idx, describeEvent(ev))
		if err := e.exec(ev); err != nil {
			return partial(err)
		}
		if err := e.checkAll(ev.Expect, ev.Idx); err != nil {
			return partial(err)
		}
	}
	if f.End > 0 {
		e.advanceTo(f.End)
	}
	if err := e.checkAll(f.Assert, -1); err != nil {
		return partial(err)
	}
	e.finishJournal()
	return &Result{Scenario: f.Name, Events: len(f.Events), Journal: e.journal.String()}, nil
}

func (e *engine) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

// note appends one line to the run journal.
func (e *engine) note(format string, args ...any) {
	fmt.Fprintf(&e.journal, format+"\n", args...)
}

// elapsed renders virtual time since scenario start.
func (e *engine) elapsed() time.Duration {
	return e.clock.Now().Sub(e.start).Round(time.Millisecond)
}

func (e *engine) setup(msg string, err error) *RunError {
	return &RunError{Scenario: e.file.Name, EventIdx: -1, AssertIdx: -1,
		Kind: "setup", Msg: fmt.Sprintf("%s: %v", msg, err)}
}

// build assembles the world: store (optionally a replicated service
// tier), fault policy, retry policy, core with the reconciler on the
// shared clock, then provisions the declared cluster with faults held
// off so the baseline is clean.
func (e *engine) build() error {
	f := e.file
	e.reg = telemetry.NewRegistry()

	if len(f.Faults.Rules) > 0 {
		e.policy = netsim.NewFaultPolicy(f.Seed)
		for _, r := range f.Faults.Rules {
			e.policy.Add(netsim.FaultRule{
				Kind:        netsim.FaultKind(r.Kind),
				Probability: r.Probability,
				Verbs:       r.Verbs,
				Devices:     r.Devices,
				Latency:     r.Latency,
				MaxCount:    r.MaxCount,
			})
		}
		e.policy.SetDisabled(true) // provision a clean baseline first
	}
	var retry *deploy.RetryPolicy
	if f.Deploy.RetryAttempts > 0 {
		retry = &deploy.RetryPolicy{Seed: f.Seed, MaxAttempts: f.Deploy.RetryAttempts}
	}
	var store *fbnet.Store
	if f.Service != nil {
		dep, err := service.NewDeployment(fbnet.NewCatalog(), f.Service.Regions[0], f.Service.Regions, f.Service.Replicas, e.reg)
		if err != nil {
			return e.setup("service tier", err)
		}
		e.dep = dep
		store = dep.MasterStore()
	}
	// Parallelism 1 keeps every pipeline serial — rollouts commit one
	// device at a time and the reconciler remediates one at a time — so
	// nothing runs alongside the virtual clock's callbacks, which is what
	// makes rerun journals byte-identical.
	par := f.Deploy.Parallelism
	if par == 0 {
		par = 1
	}
	r, err := core.New(core.Options{
		Store:               store,
		Clock:               e.clock,
		Telemetry:           e.reg,
		FaultPolicy:         e.policy,
		DeployRetry:         retry,
		DeployParallelism:   par,
		GenerateParallelism: par,
		EnableReconciler:    true,
		Reconcile: reconcile.Config{
			DampingThreshold:  f.Reconciler.DampingThreshold,
			DampingWindow:     f.Reconciler.DampingWindow,
			BudgetMaxDevices:  f.Reconciler.BudgetMaxDevices,
			BudgetMaxFraction: f.Reconciler.BudgetMaxFrac,
			MaxAttempts:       f.Reconciler.MaxAttempts,
			MaxCheckRetries:   f.Reconciler.MaxCheckRetries,
			ConfirmGrace:      f.Reconciler.ConfirmGrace,
			BackoffBase:       f.Reconciler.BackoffBase,
			BackoffMax:        f.Reconciler.BackoffMax,
			Author:            "scenario",
			Alert:             e.opts.Logf,
		},
		Logf: e.opts.Logf,
	})
	if err != nil {
		return e.setup("core", err)
	}
	e.r = r
	if e.opts.Attach != nil {
		if e.detach, err = e.opts.Attach(r); err != nil {
			return e.setup("attach", err)
		}
	}

	for _, fl := range append([]FleetSpec{f.Fleet}, f.ExtraFleets...) {
		if _, err := r.Designer.EnsureSite(fl.Site, fl.Kind, fl.Region); err != nil {
			return e.setup("site", err)
		}
		if fl.Kind == kindBackbone {
			err = e.provisionBackbone(fl)
		} else {
			_, err = r.ProvisionCluster(e.ctx(), fl.Site, fl.Cluster, fleetTemplate(fl))
		}
		if err != nil {
			return e.setup("provision", err)
		}
	}
	if err := e.refreshDevices(); err != nil {
		return e.setup("device list", err)
	}
	return nil
}

// provisionBackbone builds a backbone fleet: there is no cluster template,
// so each router joins the mesh as its own design change, the simulated
// plant follows, and one generate-verify-deploy brings the mesh up.
func (e *engine) provisionBackbone(fl FleetSpec) error {
	for _, name := range fl.Routers {
		if _, err := e.r.Designer.AddBackboneRouter(e.ctx(), name, fl.Site, backboneProfile, backboneRole); err != nil {
			return err
		}
	}
	if err := e.r.SyncFleet(); err != nil {
		return err
	}
	_, err := e.r.GenerateAndDeploy(fl.Routers, deploy.Options{}, "sim")
	return err
}

// Every backbone router a drill adds is an edge router on the vendor2
// backbone chassis: full iBGP mesh plus MPLS-TE tunnels to every peer.
const (
	backboneProfile = "Backbone_Vendor2"
	backboneRole    = "dr"
)

// refreshDevices re-reads the device lists "all" and "site:<x>" resolve
// to — after provisioning, and after a design event adds a router.
func (e *engine) refreshDevices() error {
	e.sites = map[string][]string{}
	e.devices = nil
	for _, fl := range append([]FleetSpec{e.file.Fleet}, e.file.ExtraFleets...) {
		devices, err := e.r.DevicesOfSite(fl.Site)
		if err != nil {
			return err
		}
		sort.Strings(devices)
		e.sites[fl.Site] = devices
		e.devices = append(e.devices, devices...)
	}
	sort.Strings(e.devices)
	return nil
}

func (e *engine) ctx() design.ChangeContext {
	return design.ChangeContext{
		EmployeeID: "sim", TicketID: "T-sim",
		Description: "scenario " + e.file.Name,
		Domain:      e.file.Fleet.Kind,
		NowUnix:     e.file.Start.Unix(),
	}
}

func fleetTemplate(fl FleetSpec) design.TopologyTemplate {
	switch fl.Template {
	case "pop-gen1":
		return design.POPGen1()
	case "pop-gen2":
		return design.POPGen2()
	case "dc-gen1":
		return design.DCGen1(fl.Racks)
	case "dc-gen2":
		return design.DCGen2(fl.Racks)
	default:
		return design.DCGen3(fl.Racks)
	}
}

// setArmed flips fault injection; armed state is remembered so
// assertion evaluation can pause and restore it.
func (e *engine) setArmed(armed bool) {
	e.armed = armed
	if e.policy != nil {
		e.policy.SetDisabled(!armed)
	}
}

// pauseFaults suspends injection for the duration of an observation
// (assertions read device state through the same management verbs as
// everything else; the observer must not perturb — or be perturbed by —
// the schedule). Disabled decisions do not advance the fault schedule,
// so determinism is preserved.
func (e *engine) pauseFaults() func() {
	if e.policy == nil || !e.armed {
		return func() {}
	}
	e.policy.SetDisabled(true)
	return func() { e.policy.SetDisabled(false) }
}

// advanceTo moves the clock to the given offset from scenario start.
func (e *engine) advanceTo(at time.Duration) {
	delta := e.start.Add(at).Sub(e.clock.Now())
	if delta <= 0 {
		return
	}
	if e.vc != nil {
		e.vc.Advance(delta)
	} else {
		time.Sleep(delta)
	}
}

func describeEvent(ev *EventSpec) string {
	switch ev.Action {
	case ActDrift:
		return fmt.Sprintf("drift %s", ev.Device)
	case ActDeploy:
		mode := "execute"
		switch {
		case ev.DryRun:
			mode = "dryrun"
		case ev.Atomic:
			mode = "atomic"
		case len(ev.Phases) > 0:
			mode = "phased"
		}
		return fmt.Sprintf("deploy %s %s", mode, strings.Join(ev.Devices, ","))
	case ActDesign:
		what := "design " + ev.Op + " " + ev.Device + strings.Join(ev.Devices, "--")
		if ev.To != "" {
			what += " -> " + ev.To
		}
		return what
	case ActCut:
		return "cut " + ev.Device
	case ActChaos:
		if ev.Armed {
			return "chaos armed"
		}
		return "chaos disarmed"
	case ActCorruptDesign:
		return "corrupt-design " + ev.What
	case ActFirewall:
		return "firewall " + ev.FirewallName
	case ActRelease:
		return "release " + ev.Device
	case ActResetBreaker:
		if ev.Shard != "" {
			return "reset-breaker shard=" + ev.Shard
		}
		return ev.Action
	case ActConverge:
		return fmt.Sprintf("converge rounds=%d step=%s", ev.Rounds, ev.Step)
	default:
		return ev.Action
	}
}

// exec performs one event's action.
func (e *engine) exec(ev *EventSpec) error {
	fail := func(format string, args ...any) *RunError {
		return &RunError{Scenario: e.file.Name, EventIdx: ev.Idx, AssertIdx: -1,
			Kind: ev.Action, Device: ev.Device, Msg: fmt.Sprintf(format, args...)}
	}
	switch ev.Action {
	case ActDrift:
		d, ok := e.r.Fleet.Device(ev.Device)
		if !ok {
			return fail("device not in fleet")
		}
		golden, err := e.r.Generator.Golden(ev.Device)
		if err != nil {
			return fail("no golden config: %v", err)
		}
		if !strings.HasSuffix(golden, "\n") {
			golden += "\n"
		}
		cfg := golden
		if ev.Cut != "" {
			var kept []string
			removed := 0
			for _, line := range strings.Split(strings.TrimSuffix(cfg, "\n"), "\n") {
				if strings.Contains(line, ev.Cut) {
					removed++
					continue
				}
				kept = append(kept, line)
			}
			if removed == 0 {
				return fail("cut %q matched no golden lines", ev.Cut)
			}
			cfg = strings.Join(kept, "\n") + "\n"
		}
		if ev.Text != "" {
			cfg += ev.Text + "\n"
		}
		// Out-of-band: straight onto the running config, no management
		// verbs involved — the CONFIG_CHANGED syslog is the only signal
		// the control plane gets, exactly like a console edit.
		if err := d.InjectRunningConfig(cfg); err != nil {
			return fail("inject: %v", err)
		}
	case ActDeploy:
		return e.execDeploy(ev, fail)
	case ActChaos:
		if e.policy == nil {
			return fail("no fault rules declared")
		}
		e.setArmed(ev.Armed)
	case ActCorruptDesign:
		// Break one network-wide invariant in FBNet: flip an eBGP
		// session's remote AS so the two ends disagree. The verify gate
		// must catch this before any deploy touches a device.
		ss, err := e.r.Store.Find("BgpV6Session", fbnet.Eq("session_type", "ebgp"))
		if err != nil || len(ss) == 0 {
			return fail("no ebgp v6 sessions to corrupt (template %s): %v", e.file.Fleet.Template, err)
		}
		if _, err := e.r.Store.Mutate(func(m *fbnet.Mutation) error {
			return m.Update("BgpV6Session", ss[0].ID, map[string]any{"remote_as": int64(65999)})
		}); err != nil {
			return fail("mutate: %v", err)
		}
	case ActFirewall:
		if _, err := e.r.Designer.EnsureFirewallPolicy(e.ctx(), design.FirewallSpec{
			Name: ev.FirewallName, Direction: "in",
			Rules: []design.FirewallRuleSpec{
				{Action: "permit", Protocol: "tcp", SrcPrefix: "10.0.0.0/8", DstPort: 179},
				{Action: "deny", Protocol: "any"},
			},
		}); err != nil {
			return fail("firewall policy: %v", err)
		}
		if _, err := e.r.Designer.AttachFirewall(e.ctx(), ev.FirewallName, e.devices); err != nil {
			return fail("attach: %v", err)
		}
	case ActDesign:
		return e.execDesign(ev, fail)
	case ActCut:
		// A fiber cut is physical: nothing tells the control plane but
		// the devices' own link-down syslogs and the next LLDP poll.
		d, ok := e.r.Fleet.Device(ev.Device)
		if !ok {
			return fail("device not in fleet")
		}
		ifaces, err := d.ShowInterfaces()
		if err != nil {
			return fail("show interfaces: %v", err)
		}
		for _, ifc := range ifaces {
			if far, farIf, cabled := e.r.Fleet.CableOf(ev.Device, ifc.Name); cabled {
				e.r.Fleet.Uncable(ev.Device, ifc.Name)
				e.note("[%s]   cut %s:%s -- %s:%s", e.elapsed(), ev.Device, ifc.Name, far, farIf)
				return nil
			}
		}
		return fail("no cabled port to cut")
	case ActKillMaster:
		e.dep.KillMaster()
	case ActPromote:
		region, err := e.dep.PromoteBest()
		if err != nil {
			return fail("promote: %v", err)
		}
		e.note("[%s]   promoted master to %s", e.elapsed(), region)
	case ActRelease:
		if err := e.r.Reconciler.Release(ev.Device); err != nil {
			return fail("release: %v", err)
		}
	case ActResetBreaker:
		if ev.Shard != "" {
			if err := e.r.Reconciler.ResetShardBreaker(ev.Shard); err != nil {
				return fail("reset-breaker: %v", err)
			}
		} else {
			e.r.Reconciler.ResetBreaker()
		}
	case ActSweep:
		n := e.r.Reconciler.Sweep()
		e.note("[%s]   sweep checked %d device(s)", e.elapsed(), n)
	case ActConverge:
		rounds := 0
		settledNow := false
		for rounds < ev.Rounds {
			e.r.Reconciler.Sweep()
			if e.vc != nil {
				e.vc.Advance(ev.Step)
			} else {
				time.Sleep(ev.Step)
			}
			rounds++
			if ok, _ := e.settled(); ok {
				settledNow = true
				break
			}
		}
		if settledNow {
			e.note("[%s]   settled after %d round(s)", e.elapsed(), rounds)
		} else {
			_, bad := e.settled()
			e.note("[%s]   NOT settled after %d round(s): %s", e.elapsed(), rounds, strings.Join(bad, ","))
		}
	case ActWait:
		// advanceTo already moved the clock; the expects do the work.
	case ActCollect:
		firing, err := e.r.ObserveOnce()
		if err != nil {
			return fail("collect: %v", err)
		}
		if len(firing) == 0 {
			e.note("[%s]   collect: no alarms firing", e.elapsed())
		} else {
			names := make([]string, 0, len(firing))
			for _, al := range firing {
				names = append(names, al.Rule+"@"+al.Device)
			}
			e.note("[%s]   collect: %d alarm(s) firing: %s", e.elapsed(), len(firing), strings.Join(names, " "))
		}
	case ActSnapshot:
		e.opsBase = map[string]int64{}
		e.goldenBase = map[string]string{}
		for _, name := range e.devices {
			if d, ok := e.r.Fleet.Device(name); ok {
				e.opsBase[name] = d.MgmtOps()
			}
			if g, err := e.r.Generator.Golden(name); err == nil {
				e.goldenBase[name] = g
			}
		}
	}
	return nil
}

// execDeploy handles the deploy action: dryrun (stage, diff, discard)
// or execute (generate → verify gate → commit golden → deploy).
func (e *engine) execDeploy(ev *EventSpec, fail func(string, ...any) *RunError) error {
	targets := ev.Devices
	if len(targets) == 1 && targets[0] == "all" {
		targets = e.devices
	}
	if ev.DryRun {
		configs := make(map[string]string, len(targets))
		for _, name := range targets {
			cfg, err := e.r.Generator.GenerateDevice(name)
			if err != nil {
				return fail("generate %s: %v", name, err)
			}
			configs[name] = cfg
		}
		diffs, err := e.r.Deployer.Dryrun(configs, deploy.Options{})
		if err != nil {
			return fail("dryrun: %v", err)
		}
		changed := 0
		for _, d := range diffs {
			if strings.TrimSpace(d) != "" {
				changed++
			}
		}
		e.note("[%s]   dryrun: %d device(s) staged, %d with pending diff", e.elapsed(), len(diffs), changed)
		return nil
	}
	opts := deploy.Options{Atomic: ev.Atomic}
	if len(ev.Phases) > 0 {
		// A phased roll-out advances only while the previous phase's
		// devices pass the metric health gate (§5.3.2); its progress
		// lines are part of the run record.
		for _, pct := range ev.Phases {
			opts.Phases = append(opts.Phases, deploy.Phase{Percent: pct})
		}
		opts.HealthCheck = core.MetricHealthCheck(phaseGateMaxCPU)
		opts.Notify = func(format string, args ...any) {
			e.note("[%s]   "+format, append([]any{e.elapsed()}, args...)...)
			e.logf(format, args...)
		}
	}
	rep, err := e.r.GenerateAndDeploy(targets, opts, "sim")
	switch {
	case ev.ExpectReject:
		var rej *verify.RejectionError
		if err == nil {
			return fail("deploy was expected to be rejected by the verify gate, but passed")
		}
		if !errors.As(err, &rej) {
			return fail("deploy failed, but not with a gate rejection: %v", err)
		}
		e.note("[%s]   verify gate rejected: %d violation(s)", e.elapsed(), len(rej.Result.Violations))
	case err != nil && ev.MayFail:
		failed := rep.Failed()
		names := make([]string, 0, len(failed))
		for _, res := range failed {
			names = append(names, res.Device)
		}
		sort.Strings(names)
		e.note("[%s]   deploy failed on %d device(s) (tolerated): %s", e.elapsed(), len(names), strings.Join(names, ","))
	case err != nil:
		return fail("deploy: %v", err)
	default:
		e.note("[%s]   deployed %d device(s)", e.elapsed(), len(targets))
	}
	return nil
}

// phaseGateMaxCPU is the health gate of phased deploys: a phase passes
// when its devices are reachable, run the intended config, and sit below
// this CPU utilization (percent).
const phaseGateMaxCPU = 95

// execDesign applies one backbone design change the way an operator
// would: the design tool call, the cabling work order that makes the
// plant follow (new cables in, contradicted ones out), and the design
// check — the gate's stored invariants over the design alone, with no
// candidate configs; a change that leaves FBNet invalid fails the event.
func (e *engine) execDesign(ev *EventSpec, fail func(string, ...any) *RunError) error {
	var cr design.ChangeResult
	var err error
	switch ev.Op {
	case OpAddRouter:
		cr, err = e.r.Designer.AddBackboneRouter(e.ctx(), ev.Device, e.file.Fleet.Site, backboneProfile, backboneRole)
	case OpAddCircuit:
		cr, err = e.r.Designer.AddBackboneCircuit(e.ctx(), ev.Devices[0], ev.Devices[1], 1)
	case OpMigrateCircuit:
		var cir fbnet.Object
		cir, err = e.r.Store.FindOne("Circuit", fbnet.And(
			fbnet.Contains("circuit_id", ev.Devices[0]+":"), fbnet.Contains("circuit_id", ev.Devices[1]+":")))
		if err != nil {
			return fail("no single circuit between %s and %s: %v", ev.Devices[0], ev.Devices[1], err)
		}
		cr, err = e.r.Designer.MigrateCircuit(e.ctx(), cir.String("circuit_id"), ev.To)
	}
	if err != nil {
		return fail("%s: %v", ev.Op, err)
	}
	moved, err := e.r.ApplyRecabling()
	if err != nil {
		return fail("recabling: %v", err)
	}
	res, err := e.r.Verifier.Check(nil)
	if err != nil {
		return fail("design validation: %v", err)
	}
	if !res.Pass() {
		return fail("design is invalid after %s: %v", ev.Op, res.Violations)
	}
	e.note("[%s]   design change #%d: %d object(s) changed, %d cable(s) moved, design valid",
		e.elapsed(), cr.ChangeID, cr.Stats.Total(), moved)
	if err := e.refreshDevices(); err != nil {
		return fail("device list: %v", err)
	}
	return nil
}

// settled reports whether every device is converged-or-quarantined with
// running == golden for the non-quarantined ones (the chaos soak's
// settledness criterion). Faults are paused for the observation.
func (e *engine) settled() (bool, []string) {
	resume := e.pauseFaults()
	defer resume()
	states := e.r.Reconciler.States()
	var bad []string
	for _, name := range e.devices {
		if states[name] == reconcile.StateQuarantined {
			continue
		}
		d, ok := e.r.Fleet.Device(name)
		if !ok {
			bad = append(bad, name)
			continue
		}
		golden, err := e.r.Generator.Golden(name)
		if err != nil {
			bad = append(bad, name)
			continue
		}
		if d.PeekRunningConfig() != golden {
			bad = append(bad, name)
		}
	}
	return len(bad) == 0, bad
}

// finishJournal appends the deterministic run summary: fault counts by
// kind (sorted), reconciler stats, device states (sorted), and the full
// reconciler journal.
func (e *engine) finishJournal() {
	if e.policy != nil {
		counts := e.policy.Counts()
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		parts := make([]string, 0, len(kinds))
		for _, k := range kinds {
			parts = append(parts, fmt.Sprintf("%s:%d", k, counts[netsim.FaultKind(k)]))
		}
		e.note("faults fired: {%s} total=%d", strings.Join(parts, " "), e.policy.Total())
	}
	e.note("reconciler: %s", e.r.Reconciler.Stats().String())
	states := e.r.Reconciler.States()
	for _, name := range e.devices {
		st := states[name]
		if st == "" {
			st = reconcile.StateConverged // never entered the loop
		}
		e.note("device %s state=%s", name, st)
	}
	if alarms := e.r.Alarms.Snapshot(); len(alarms) > 0 {
		e.note("alarms (%d):", len(alarms))
		for _, al := range alarms {
			e.note("  %-8s %s %s %s correlated=%d", string(al.State), al.Rule, al.Device, al.Key, len(al.Correlated))
		}
	}
	e.note("reconciler journal (%d events):", e.r.Reconciler.Journal().Len())
	for _, je := range e.r.Reconciler.Journal().Events() {
		e.note("  %s", je.String())
	}
}
