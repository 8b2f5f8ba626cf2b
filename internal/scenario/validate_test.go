package scenario

import (
	"testing"
)

// minimal returns a valid baseline scenario the table cases mutate.
const validBase = `name: base
fleet:
  site: pop1
  cluster: pop1-c1
  template: pop-gen1
events:
  - at: 1m
    action: wait
assert:
  - type: no-candidates
    device: all
`

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("s.yaml", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestValidateAcceptsBase(t *testing.T) {
	if err := Validate(mustParse(t, validBase)); err != nil {
		t.Fatalf("Validate(base): %v", err)
	}
}

// Fragments the golden cases are assembled from.
const (
	fleet    = "fleet:\n  site: pop1\n  cluster: pop1-c1\n  template: pop-gen1\n"
	tail     = "events:\n  - at: 1m\n    action: wait\n"
	backbone = "fleet:\n  site: bb\n  kind: backbone\n  routers: [bb1, bb1]\n"
	mesh     = "fleet:\n  site: bb\n  kind: backbone\n  routers: [bb1, bb2]\n"
)

// validateGolden is a table of invalid scenarios and the exact first
// error each gets. These strings are the operator-facing contract of
// `robotron sim validate`; every message carries file:line.
var validateGolden = []struct {
	name string
	src  string
	want string // exact error string
}{
	{
		"missing name",
		fleet + tail,
		`s.yaml:1: scenario is missing the required "name"`,
	},
	{
		"whitespace name",
		"name: two words\n" + fleet + tail,
		`s.yaml:1: scenario name "two words" must not contain whitespace`,
	},
	{
		"missing site",
		"name: x\nfleet:\n  cluster: c1\n  template: pop-gen1\n" + tail,
		`s.yaml:3: fleet is missing the required "site"`,
	},
	{
		"bad template",
		"name: x\nfleet:\n  site: s\n  cluster: c1\n  template: mesh-gen9\n" + tail,
		`s.yaml:3: fleet template "mesh-gen9" is not one of pop-gen1, pop-gen2, dc-gen1, dc-gen2, dc-gen3`,
	},
	{
		"racks on pop",
		"name: x\nfleet:\n  site: s\n  cluster: c1\n  template: pop-gen1\n  racks: 3\n" + tail,
		`s.yaml:3: fleet template "pop-gen1" does not take racks (racks are for dc templates)`,
	},
	{
		"kind contradicts template",
		"name: x\nfleet:\n  site: s\n  cluster: c1\n  template: dc-gen1\n  kind: pop\n" + tail,
		`s.yaml:3: fleet kind "pop" contradicts template "dc-gen1" (implies "dc")`,
	},
	{
		"unknown device",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: drift\n    device: fsw9.pop1-c1\n    line: \"! x\"\n",
		`s.yaml:7: event 0 references device "fsw9.pop1-c1", which the fleet (template pop-gen1, cluster pop1-c1) does not provision`,
	},
	{
		"unknown fault kind",
		"name: x\n" + fleet + "faults:\n  rules:\n    - kind: gremlins\n      probability: 0.5\n" + tail,
		`s.yaml:8: fault rule 0: unknown fault kind "gremlins" (known: drop-after, drop-before, garbled, latency, reboot, transient)`,
	},
	{
		"probability out of range",
		"name: x\n" + fleet + "faults:\n  rules:\n    - kind: transient\n      probability: 1.5\n" + tail,
		`s.yaml:8: fault rule 0: probability 1.5 is outside (0, 1]`,
	},
	{
		"armed without rules",
		"name: x\n" + fleet + "faults:\n  armed: true\n" + tail,
		`s.yaml:3: faults are armed but no rules are declared`,
	},
	{
		"one service region",
		"name: x\n" + fleet + "service:\n  regions: [ash]\n" + tail,
		`s.yaml:7: service needs at least 2 regions (a master and a failover candidate)`,
	},
	{
		"duplicate service region",
		"name: x\n" + fleet + "service:\n  regions: [ash, ash]\n" + tail,
		`s.yaml:7: service region "ash" is declared twice`,
	},
	{
		"unknown action",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: explode\n",
		`s.yaml:7: event 0: unknown action "explode" (known: chaos, collect, converge, corrupt-design, cut, deploy, design, drift, firewall, kill-master, promote, release, reset-breaker, snapshot, sweep, wait)`,
	},
	{
		"events out of order",
		"name: x\n" + fleet + "events:\n  - at: 5m\n    action: wait\n  - at: 1m\n    action: wait\n",
		`s.yaml:9: event 1: offset 1m0s is before the previous event's 5m0s (events must be in time order)`,
	},
	{
		"event after end",
		"name: x\nend: 2m\n" + fleet + "events:\n  - at: 5m\n    action: wait\n",
		`s.yaml:8: event 0: offset 5m0s is after the scenario end 2m0s`,
	},
	{
		"drift without line",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: drift\n    device: pr1.pop1-c1\n",
		`s.yaml:7: event 0: drift needs "line" (inject) or "cut" (remove), or both`,
	},
	{
		"drift on all",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: drift\n    device: all\n    line: \"! x\"\n",
		`s.yaml:7: event 0: drift targets one device, not "all"`,
	},
	{
		"field on wrong action",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: wait\n    devices: [all]\n",
		`s.yaml:7: event 0: field "devices" is not valid for action "wait"`,
	},
	{
		"reject xor mayfail",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: deploy\n    devices: [all]\n    expect_reject: true\n    may_fail: true\n",
		`s.yaml:7: event 0: expect_reject and may_fail are mutually exclusive`,
	},
	{
		"converge without step",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: converge\n    rounds: 3\n",
		`s.yaml:7: event 0: converge needs a positive "step" duration`,
	},
	{
		"kill-master without service",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: kill-master\n",
		`s.yaml:7: event 0: action "kill-master" needs a "service" section`,
	},
	{
		"chaos without rules",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: chaos\n    armed: true\n",
		`s.yaml:7: event 0: chaos event without fault rules`,
	},
	{
		"unknown assertion type",
		"name: x\n" + fleet + tail + "assert:\n  - type: vibes\n",
		`s.yaml:10: assert 0: unknown assertion type "vibes" (known: alarm, audit, breaker, device-state, faults-fired, golden-unchanged, journal, metric, no-candidates, no-new-mgmt-ops, no-pending-confirms, running-matches-golden, verify-verdict)`,
	},
	{
		"bad state",
		"name: x\n" + fleet + tail + "assert:\n  - type: device-state\n    device: all\n    state: happy\n",
		`s.yaml:10: assert 0: unknown state "happy" (known: backoff, confirming, converged, converged-or-quarantined, detected, quarantined, remediating)`,
	},
	{
		"metric bad op",
		"name: x\n" + fleet + tail + "assert:\n  - type: metric\n    metric: m\n    op: \"~=\"\n    value: 1\n",
		`s.yaml:10: assert 0: unknown op "~=" (known: !=, <, <=, ==, >, >=)`,
	},
	{
		"metric bad label",
		"name: x\n" + fleet + tail + "assert:\n  - type: metric\n    metric: m\n    op: \"==\"\n    value: 1\n    labels: [novalue]\n",
		`s.yaml:10: assert 0: label "novalue" is not key=value`,
	},
	{
		"verdict invalid",
		"name: x\n" + fleet + tail + "assert:\n  - type: verify-verdict\n    verdict: maybe\n",
		`s.yaml:10: assert 0: verdict must be "rejected" or "passed", got "maybe"`,
	},
	{
		"expect checked too",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: wait\n    expect:\n      - type: journal\n        event: quarantined\n        min_count: 0\n",
		`s.yaml:10: event 0 expect 0: min_count must be >= 1`,
	},
	// The backbone fleet kind, the design/cut actions, deploy's
	// atomic/phases and the audit assertion: every new field is
	// rejected when malformed.
	{
		"backbone with a template",
		"name: x\nfleet:\n  site: s\n  kind: backbone\n  template: pop-gen1\n  routers: [bb1]\n" + tail,
		`s.yaml:3: fleet kind backbone takes "routers", not cluster/template/racks`,
	},
	{
		"backbone without routers",
		"name: x\nfleet:\n  site: s\n  kind: backbone\n" + tail,
		`s.yaml:3: fleet kind backbone needs at least one name in "routers"`,
	},
	{
		"backbone duplicate router",
		"name: x\n" + backbone + tail,
		`s.yaml:3: fleet router name "bb1" is reserved or declared twice`,
	},
	{
		"routers on a pop",
		"name: x\nfleet:\n  site: s\n  cluster: c1\n  template: pop-gen1\n  routers: [bb1]\n" + tail,
		`s.yaml:3: fleet "routers" is only valid with kind backbone`,
	},
	{
		"design unknown op",
		"name: x\n" + mesh + "events:\n  - at: 1m\n    action: design\n    op: remove-router\n    device: bb1\n",
		`s.yaml:7: event 0: unknown design op "remove-router" (known: add-circuit, add-router, migrate-circuit)`,
	},
	{
		"design on a pop fleet",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: design\n    op: add-router\n    device: bb9\n",
		`s.yaml:7: event 0: action "design" needs a fleet of kind backbone`,
	},
	{
		"add-router twice",
		"name: x\n" + mesh + "events:\n  - at: 1m\n    action: design\n    op: add-router\n    device: bb2\n",
		`s.yaml:7: event 0: add-router "bb2" is already provisioned`,
	},
	{
		"add-circuit between undeclared routers",
		"name: x\n" + mesh + "events:\n  - at: 1m\n    action: design\n    op: add-circuit\n    devices: [bb1, bb7]\n",
		`s.yaml:7: event 0 references device "bb7", which the fleet (backbone routers bb1, bb2) does not provision`,
	},
	{
		"add-circuit to itself",
		"name: x\n" + mesh + "events:\n  - at: 1m\n    action: design\n    op: add-circuit\n    devices: [bb1, bb1]\n",
		`s.yaml:7: event 0: add-circuit needs "devices": two distinct routers, and nothing else`,
	},
	{
		"added router is known only afterwards",
		"name: x\n" + mesh + "events:\n  - at: 1m\n    action: deploy\n    devices: [bb3]\n  - at: 2m\n    action: design\n    op: add-router\n    device: bb3\n",
		`s.yaml:7: event 0 references device "bb3", which the fleet (backbone routers bb1, bb2) does not provision`,
	},
	{
		"migrate-circuit without to",
		"name: x\n" + mesh + "events:\n  - at: 1m\n    action: design\n    op: migrate-circuit\n    devices: [bb1, bb2]\n",
		`s.yaml:7: event 0: migrate-circuit needs "devices": the circuit's two routers, and "to": a third`,
	},
	{
		"op outside design",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: wait\n    op: add-router\n",
		`s.yaml:7: event 0: field "op" is not valid for action "wait"`,
	},
	{
		"phases out of range",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: deploy\n    devices: [all]\n    phases: [25, 120]\n",
		`s.yaml:7: event 0: phase percent 120 is outside (0, 100]`,
	},
	{
		"phases zero",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: deploy\n    devices: [all]\n    phases: [0]\n",
		`s.yaml:7: event 0: phase percent 0 is outside (0, 100]`,
	},
	{
		"atomic outside deploy",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: sweep\n    atomic: true\n",
		`s.yaml:7: event 0: field "atomic" is not valid for action "sweep"`,
	},
	{
		"cut on a device the fleet does not provision",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: cut\n    device: pr9.pop1-c1\n",
		`s.yaml:7: event 0 references device "pr9.pop1-c1", which the fleet (template pop-gen1, cluster pop1-c1) does not provision`,
	},
	{
		"cut all",
		"name: x\n" + fleet + "events:\n  - at: 1m\n    action: cut\n    device: all\n",
		`s.yaml:7: event 0: cut targets one device, not "all"`,
	},
	{
		"audit with both clean and anomaly_kind",
		"name: x\n" + fleet + tail + "assert:\n  - type: audit\n    clean: true\n    anomaly_kind: circuit-missing\n",
		`s.yaml:10: assert 0: audit needs exactly one of "clean: true" or "anomaly_kind"`,
	},
	{
		"audit with neither",
		"name: x\n" + fleet + tail + "assert:\n  - type: audit\n",
		`s.yaml:10: assert 0: audit needs exactly one of "clean: true" or "anomaly_kind"`,
	},
	{
		"audit unknown kind",
		"name: x\n" + fleet + tail + "assert:\n  - type: audit\n    anomaly_kind: gremlins\n",
		`s.yaml:10: assert 0: unknown anomaly kind "gremlins" (known: bgp-down, circuit-missing, circuit-unexpected, config-deviates, device-silent, interface-down, os-mismatch)`,
	},
	{
		"clean outside audit",
		"name: x\n" + fleet + tail + "assert:\n  - type: breaker\n    clean: true\n",
		`s.yaml:10: assert 0: fields "clean" and "anomaly_kind" are only valid on audit assertions`,
	},
	{
		"nothing to do",
		"name: x\n" + fleet,
		`s.yaml:1: scenario declares no events and no assertions; nothing to do`,
	},
}

// TestValidateGolden pins the exact first-error message of every golden
// case.
func TestValidateGolden(t *testing.T) {
	for _, tc := range validateGolden {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(mustParse(t, tc.src))
			if err == nil {
				t.Fatalf("Validate accepted an invalid scenario")
			}
			if err.Error() != tc.want {
				t.Fatalf("error mismatch\n got: %s\nwant: %s", err, tc.want)
			}
		})
	}
}

// TestValidateErrorsAreDeterministic runs a multi-violation scenario
// repeatedly: the first violation must win every time, with the same text.
func TestValidateErrorsAreDeterministic(t *testing.T) {
	src := "name: x\nfleet:\n  site: s\n  cluster: c1\n  template: pop-gen1\nevents:\n  - at: 1m\n    action: explode\n  - at: 2m\n    action: implode\nassert:\n  - type: vibes\n"
	first := Validate(mustParse(t, src))
	if first == nil {
		t.Fatal("expected an error")
	}
	for i := 0; i < 20; i++ {
		err := Validate(mustParse(t, src))
		if err == nil || err.Error() != first.Error() {
			t.Fatalf("run %d: %q != %q", i, err, first)
		}
	}
}
