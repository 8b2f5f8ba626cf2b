package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const drills = "../../examples/scenarios"

// cli runs the dispatcher the way main does and captures both streams.
func cli(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// writeDrill drops a scenario file into a temp dir and returns its path.
func writeDrill(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const popFleet = "fleet:\n  site: pop1\n  cluster: pop1-c1\n  template: pop-gen1\n"

// passing converges trivially; failing drifts a device and wrongly expects
// it to still match its golden (event 0, expect 1); invalid names a device
// the template does not provision (line 8).
const (
	passing = "name: passing\ndescription: passes.\n" + popFleet +
		"events:\n  - at: 1m\n    action: sweep\nassert:\n  - type: device-state\n    device: all\n    state: converged\n"
	failing = "name: failing\ndescription: fails.\n" + popFleet +
		"events:\n  - at: 1m\n    action: drift\n    device: psw1.pop1-c1\n    line: \"! scribble\"\n    expect:\n" +
		"      - type: no-candidates\n        device: all\n      - type: running-matches-golden\n        device: psw1.pop1-c1\n"
	invalid = "name: invalid\ndescription: does not validate.\n" + popFleet +
		"events:\n  - at: 1m\n    action: cut\n    device: fsw9.pop1-c1\n"
)

// TestUsageErrors: anything that is not a well-formed noun-verb command
// prints usage or a pointed complaint to stderr and exits 2, without
// running anything.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stderr string
	}{
		{"no arguments", nil, "usage: robotron <noun> <verb>"},
		{"unknown noun", []string{"frobnicate"}, `unknown noun "frobnicate"`},
		{"a deleted flag", []string{"-scenario", "lifecycle"}, `unknown noun "-scenario"`},
		{"sim without a verb", []string{"sim"}, "usage: robotron sim <run|validate|list>"},
		{"sim unknown verb", []string{"sim", "explode"}, `unknown subcommand "explode"`},
		{"sim unknown flag", []string{"sim", "run", "-chaos-rate", "0.1", "x.yaml"}, "flag provided but not defined: -chaos-rate"},
		{"sim run without files", []string{"sim", "run"}, "sim run: no scenario files given"},
		{"sim validate without files", []string{"sim", "validate"}, "sim validate: no scenario files given"},
		{"sim list empty dir", []string{"sim", "list", t.TempDir()}, "sim list: no scenarios under"},
		{"obs without a view", []string{"obs"}, "usage: robotron obs <alarms|timeline|series|jobs|reconcile>"},
		{"obs unknown view", []string{"obs", "vibes"}, `unknown view "vibes"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := cli(tc.args...)
			if code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr)
			}
			if stdout != "" {
				t.Errorf("stdout should be empty, got:\n%s", stdout)
			}
		})
	}
}

// TestSimVerdictsAndExitCodes: every file gets its verdict line, and the
// exit code is the worst of them (2 invalid > 1 failed > 0 ok) — one bad
// file no longer hides the files after it.
func TestSimVerdictsAndExitCodes(t *testing.T) {
	dir := t.TempDir()
	good := writeDrill(t, dir, "b-good.yaml", passing)
	bad := writeDrill(t, dir, "a-bad.yaml", failing)
	broken := writeDrill(t, dir, "c-broken.yaml", invalid)
	const invalidAt = "c-broken.yaml:8: event 0 references device \"fsw9.pop1-c1\""
	const failedAt = "event 0 expect 1 (running-matches-golden) failed on device psw1.pop1-c1"

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout []string
		stderr []string
	}{
		{"run: all pass", []string{"sim", "run", good}, 0, []string{"ok      " + good + " (passing, 1 events)"}, nil},
		{"run: failure names event and assertion", []string{"sim", "run", bad}, 1, nil, []string{"FAIL    " + bad, failedAt, "confdiff (-golden +running)"}},
		{"run: invalid file carries file:line", []string{"sim", "run", broken}, 2, nil, []string{"INVALID " + broken, invalidAt}},
		{"run: a failure does not stop later files", []string{"sim", "run", bad, good}, 1, []string{"ok      " + good}, []string{"FAIL    " + bad}},
		{"run: worst code wins", []string{"sim", "run", bad, broken, good}, 2, []string{"ok      " + good}, []string{"FAIL    " + bad, "INVALID " + broken}},
		{"run: journal follows the verdict, failures included", []string{"sim", "run", "-journal", bad}, 1, []string{"scenario failing seed=1 devices=6", "event 0 drift psw1.pop1-c1"}, []string{failedAt}},
		{"validate: every file checked", []string{"sim", "validate", broken, good}, 2, []string{"valid   " + good}, []string{invalidAt}},
		{"list: an INVALID row fails the listing", []string{"sim", "list", dir}, 2, []string{"a-bad.yaml", "b-good.yaml", "passes.", "c-broken.yaml", "INVALID: " + broken + ":8:"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := cli(tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout, stderr)
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout)
				}
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr)
				}
			}
		})
	}
}

// TestSimListShippedDrills is the golden listing of examples/scenarios:
// one row per drill, and every shipped file validates.
func TestSimListShippedDrills(t *testing.T) {
	const want = `ambiguous-commit-chaos.yaml              Fleet-wide deploy under four fault kinds; reconciler converges or quarantines everything.
backbone-mesh-growth.yaml                Backbone mesh grows by a router, an atomic circuit add and a circuit migration.
bgp-down-alarm-correlated.yaml           Drift-induced BGP session drop fires the derived alarm, correlates the cause, resolves on convergence.
drift-storm-breaker.yaml                 Fleet-wide drift trips the safety budget; operator reset drains the backlog.
firewall-phased-rollout.yaml             Fleet-wide ACL change rolled out canary-first in three health-gated phases.
flap-quarantine-release.yaml             A flapping device is quarantined, drift suppressed, then released and converged.
happy-path-provision.yaml                Clean POP provisioning plus one incremental deploy, fleet converged.
master-failover-mid-deploy.yaml          Master store dies mid-deploy; the deploy fails cleanly and promotion restores service.
pop-lifecycle-fiber-cut.yaml             POP life cycle ends in a clean audit; a fiber cut is then named by the audit.
shard-isolation.yaml                     Drift storm trips one site's breaker; the other site keeps converging; shard reset drains.
verify-gate-rejection.yaml               Broken intent is rejected pre-deploy; the fleet is never touched.
`
	code, stdout, stderr := cli("sim", "list", drills)
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if stdout != want {
		t.Errorf("listing changed:\n got:\n%s\nwant:\n%s", stdout, want)
	}
}

// TestObsJobs: the jobs view of the baseline drill prints the
// intent-derived monitoring config — per-device jobs and alarm rules for
// the 6-device POP.
func TestObsJobs(t *testing.T) {
	code, stdout, stderr := cli("obs", "jobs", filepath.Join(drills, "happy-path-provision.yaml"))
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"14 collection jobs\n", "78 alarm rules\n", "derived-bgp-pr1.pop1-c1", "bgp-session-down"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// TestObsFailedDrillPrintsNoView: obs mirrors sim's exit codes and shows
// a view only of a world whose drill passed.
func TestObsFailedDrillPrintsNoView(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := cli("obs", "alarms", writeDrill(t, dir, "bad.yaml", failing))
	if code != 1 || stdout != "" || !strings.Contains(stderr, "FAIL") {
		t.Errorf("exit %d, stdout %q, stderr:\n%s", code, stdout, stderr)
	}
	if code, _, stderr := cli("obs", "alarms", writeDrill(t, dir, "broken.yaml", invalid)); code != 2 || !strings.Contains(stderr, "broken.yaml:8:") {
		t.Errorf("invalid file: exit %d, stderr:\n%s", code, stderr)
	}
}

// TestSimRunNoVerify: the escape hatch turns the gate off for the whole
// run — the baseline provisioning included — and stays loud about it:
// the WARNING verify-gate events it left on the operational timeline are
// replayed at the end of the run.
func TestSimRunNoVerify(t *testing.T) {
	good := writeDrill(t, t.TempDir(), "good.yaml", passing)
	code, stdout, stderr := cli("sim", "run", "-no-verify", good)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"verification DISABLED (-no-verify)",
		"verify-gate        WARNING gate BYPASSED for deployment of 6 devices (-no-verify)",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	// With the gate on, the same drill leaves no bypass trail.
	if _, stdout, _ := cli("sim", "run", good); strings.Contains(stdout, "BYPASSED") {
		t.Errorf("gate reported bypassed without -no-verify:\n%s", stdout)
	}
}

// TestSimRunMetricsAddr: -metrics-addr serves for the life of the run and
// a bad address fails the run instead of being ignored.
func TestSimRunMetricsAddr(t *testing.T) {
	good := writeDrill(t, t.TempDir(), "good.yaml", passing)
	code, stdout, stderr := cli("sim", "run", "-metrics-addr", "127.0.0.1:0", good)
	if code != 0 || !strings.Contains(stdout, "telemetry: serving /metrics, /traces, /healthz on 127.0.0.1:") {
		t.Errorf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	code, _, stderr = cli("sim", "run", "-metrics-addr", "256.0.0.1:99999", good)
	if code != 1 || !strings.Contains(stderr, "setup failed: attach:") {
		t.Errorf("bad address: exit %d, stderr:\n%s", code, stderr)
	}
}
