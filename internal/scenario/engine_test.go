package scenario

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/core"
)

// tinyScenario is a fast end-to-end drill: drift one device, let the
// reconciler drive it back, assert convergence.
const tinyScenario = `name: tiny
fleet:
  site: pop1
  cluster: pop1-c1
  template: pop-gen1
events:
  - at: 1m
    action: drift
    device: psw1.pop1-c1
    line: "! scribble"
  - at: 2m
    action: converge
    rounds: 3
    step: 10m
assert:
  - type: device-state
    device: all
    state: converged
  - type: running-matches-golden
    device: all
  - type: journal
    event: remediate
    device: psw1.pop1-c1
    min_count: 1
`

func loadSrc(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("inline.yaml", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := Validate(f); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return f
}

func TestEngineTinyScenario(t *testing.T) {
	res, err := Run(loadSrc(t, tinyScenario), Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Scenario != "tiny" || res.Events != 2 {
		t.Errorf("result = %+v", res)
	}
	if res.Journal == "" {
		t.Error("empty journal")
	}
}

// TestEngineDeterminism runs the same scenario twice in one process and
// demands byte-identical journals — the core contract of the harness.
// The scenario includes seeded faults so the fault path is covered too.
func TestEngineDeterminism(t *testing.T) {
	const src = `name: det
seed: 99
fleet:
  site: pop1
  cluster: pop1-c1
  template: pop-gen1
reconciler:
  damping_threshold: -1
faults:
  rules:
    - kind: transient
      probability: 0.3
      verbs: [commit, commit-confirmed]
deploy:
  retry_attempts: 5
events:
  - at: 1m
    action: chaos
    armed: true
  - at: 2m
    action: drift
    device: psw1.pop1-c1
    line: "! a"
  - at: 3m
    action: drift
    device: psw2.pop1-c1
    line: "! b"
  - at: 5m
    action: chaos
    armed: false
  - at: 6m
    action: converge
    rounds: 10
    step: 10m
assert:
  - type: device-state
    device: all
    state: converged
`
	first, err := Run(loadSrc(t, src), Options{})
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	second, err := Run(loadSrc(t, src), Options{})
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if first.Journal != second.Journal {
		t.Fatalf("journals diverge:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first.Journal, second.Journal)
	}
}

// TestEngineFailureNamesTheViolation runs a scenario whose expectation is
// deliberately wrong and checks the error names the event index, the
// assertion index, the assertion type, and the device — what an operator
// needs to find the broken line.
func TestEngineFailureNamesTheViolation(t *testing.T) {
	const src = `name: broken
fleet:
  site: pop1
  cluster: pop1-c1
  template: pop-gen1
events:
  - at: 1m
    action: drift
    device: psw1.pop1-c1
    line: "! scribble"
    expect:
      - type: no-candidates
        device: all
      - type: running-matches-golden
        device: psw1.pop1-c1
`
	_, err := Run(loadSrc(t, src), Options{})
	if err == nil {
		t.Fatal("Run passed a scenario that must fail")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T, want *RunError: %v", err, err)
	}
	if re.Scenario != "broken" {
		t.Errorf("Scenario = %q", re.Scenario)
	}
	if re.EventIdx != 0 {
		t.Errorf("EventIdx = %d, want 0", re.EventIdx)
	}
	if re.AssertIdx != 1 {
		t.Errorf("AssertIdx = %d, want 1 (the second expectation)", re.AssertIdx)
	}
	if re.Kind != AssertRunningGolden {
		t.Errorf("Kind = %q, want %q", re.Kind, AssertRunningGolden)
	}
	if re.Device != "psw1.pop1-c1" {
		t.Errorf("Device = %q", re.Device)
	}
	if re.Context == "" {
		t.Error("no context: a running-vs-golden failure should carry a diff hunk")
	}
}

// TestEngineFinalAssertFailure checks final assertions report EventIdx -1
// and that the violated-assertion index is the scenario's, not a
// renumbering.
func TestEngineFinalAssertFailure(t *testing.T) {
	const src = `name: broken-final
fleet:
  site: pop1
  cluster: pop1-c1
  template: pop-gen1
events:
  - at: 1m
    action: drift
    device: psw2.pop1-c1
    line: "! scribble"
assert:
  - type: no-pending-confirms
    device: all
  - type: device-state
    device: psw2.pop1-c1
    state: converged
`
	_, err := Run(loadSrc(t, src), Options{})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %v", err)
	}
	if re.EventIdx != -1 {
		t.Errorf("EventIdx = %d, want -1 (final assert)", re.EventIdx)
	}
	if re.AssertIdx != 1 || re.Kind != AssertDeviceState || re.Device != "psw2.pop1-c1" {
		t.Errorf("violation = assert %d (%s) on %q", re.AssertIdx, re.Kind, re.Device)
	}
}

// TestAuditAssertionNamesTheAnomalies cuts a fiber and then wrongly
// asserts a clean audit: the failure must be the audit assertion's, and
// carry the anomalies the operator would go and look at.
func TestAuditAssertionNamesTheAnomalies(t *testing.T) {
	const src = `name: cut-not-clean
fleet:
  site: pop1
  cluster: pop1-c1
  template: pop-gen1
events:
  - at: 1m
    action: cut
    device: pr1.pop1-c1
  - at: 2m
    action: collect
    expect:
      - type: audit
        clean: true
`
	_, err := Run(loadSrc(t, src), Options{})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %v", err)
	}
	if re.EventIdx != 1 || re.AssertIdx != 0 || re.Kind != AssertAudit {
		t.Errorf("violation = event %d expect %d (%s)", re.EventIdx, re.AssertIdx, re.Kind)
	}
	for _, want := range []string{"[circuit-missing] pr1.pop1-c1", "[interface-down] psw1.pop1-c1"} {
		if !strings.Contains(re.Context, want) {
			t.Errorf("context lacks %q:\n%s", want, re.Context)
		}
	}
}

// TestDesignEventFailsOnImpossibleChange: a design op the Designer
// refuses (there is no circuit between bb1 and bb2 to migrate) fails its
// event, naming the action.
func TestDesignEventFailsOnImpossibleChange(t *testing.T) {
	const src = `name: no-such-circuit
fleet:
  site: bb
  kind: backbone
  routers: [bb1, bb2, bb3]
events:
  - at: 1m
    action: design
    op: migrate-circuit
    devices: [bb1, bb2]
    to: bb3
`
	_, err := Run(loadSrc(t, src), Options{})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %v", err)
	}
	if re.EventIdx != 0 || re.AssertIdx != -1 || re.Kind != ActDesign {
		t.Errorf("violation = event %d assert %d (%s): %s", re.EventIdx, re.AssertIdx, re.Kind, re.Msg)
	}
}

// TestPhasedDeployJournalsPhaseOrder pins how the firewall drill proves
// its phase order: the deploy engine's progress lines land in the run
// journal, canary first, each phase complete before the next starts.
func TestPhasedDeployJournalsPhaseOrder(t *testing.T) {
	f, err := Load(filepath.Join("..", "..", "examples", "scenarios", "firewall-phased-rollout.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rest := res.Journal
	for _, want := range []string{
		"deploy phased all",
		"phase 1/3 (phase-1): 2 device(s)", "phase 1/3 (phase-1): 2/2 committed",
		"phase 2/3 (phase-2): 2 device(s)", "phase 2/3 (phase-2): 2/2 committed",
		"phase 3/3 (final): 2 device(s)", "phase 3/3 (final): 2/2 committed",
		"deployed 6 device(s)",
	} {
		i := strings.Index(rest, want)
		if i < 0 {
			t.Fatalf("journal lacks %q after the previous phase line:\n%s", want, res.Journal)
		}
		rest = rest[i+len(want):]
	}
}

// TestAttachHook: Attach sees the world before anything is provisioned,
// its detach sees the run's verdict, and an Attach error aborts the run.
func TestAttachHook(t *testing.T) {
	var devicesAtAttach int
	var verdicts []error
	opts := Options{Attach: func(r *core.Robotron) (func(error), error) {
		devicesAtAttach = len(r.Fleet.Devices())
		return func(runErr error) { verdicts = append(verdicts, runErr) }, nil
	}}
	if _, err := Run(loadSrc(t, tinyScenario), opts); err != nil {
		t.Fatal(err)
	}
	broken := strings.Replace(tinyScenario, "state: converged", "state: quarantined", 1)
	if _, err := Run(loadSrc(t, broken), opts); err == nil {
		t.Fatal("broken scenario passed")
	}
	if devicesAtAttach != 0 {
		t.Errorf("Attach ran after provisioning: %d device(s) already in the fleet", devicesAtAttach)
	}
	var re *RunError
	if len(verdicts) != 2 || verdicts[0] != nil || !errors.As(verdicts[1], &re) {
		t.Errorf("detach verdicts = %v, want [nil, *RunError]", verdicts)
	}
	_, err := Run(loadSrc(t, tinyScenario), Options{Attach: func(*core.Robotron) (func(error), error) {
		return nil, errors.New("address already in use")
	}})
	if !errors.As(err, &re) || re.Kind != "setup" || !strings.Contains(re.Msg, "address already in use") {
		t.Errorf("Attach error surfaced as %v", err)
	}
}

// TestExampleScenarios loads and runs every shipped example, in sorted
// order, under whatever -race the test binary was built with. Each must
// validate and pass.
func TestExampleScenarios(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.yaml"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	if len(matches) < 11 {
		t.Fatalf("expected at least 11 example scenarios, found %d", len(matches))
	}
	for _, path := range matches {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := Load(path)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if f.Description == "" {
				t.Error("example scenarios must carry a description")
			}
			res, err := Run(f, Options{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Journal == "" {
				t.Error("empty journal")
			}
		})
	}
}

// TestExampleScenariosDeterministic runs every example twice and compares
// journals byte for byte.
func TestExampleScenariosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("double-running every example is not -short work")
	}
	matches, _ := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.yaml"))
	for _, path := range matches {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			f1, err := Load(path)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			r1, err := Run(f1, Options{})
			if err != nil {
				t.Fatalf("run 1: %v", err)
			}
			f2, _ := Load(path)
			r2, err := Run(f2, Options{})
			if err != nil {
				t.Fatalf("run 2: %v", err)
			}
			if r1.Journal != r2.Journal {
				t.Fatal("journals diverge between runs")
			}
		})
	}
}
