package core

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/reconcile"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/vclock"
)

// newTracedPOP provisions a 6-device POP with the reconciler enabled on
// a virtual clock (timers never fire on their own) and pushes one site
// change — a firewall policy update — through GenerateAndDeploy in two
// phases.
func newTracedPOP(t *testing.T) (*Robotron, []string) {
	t.Helper()
	clk := vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	r, err := New(Options{
		EnableReconciler: true,
		Reconcile:        reconcile.Config{Clock: clk},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Reconciler.Stop)
	if _, err := r.Designer.EnsureSite("pop1", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	res, err := r.ProvisionCluster(testCtx("pop"), "pop1", "pop1-c1", design.POPGen1())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.EnsureFirewallPolicy(testCtx("pop"), design.FirewallSpec{
		Name: "cp-protect", Direction: "in",
		Rules: []design.FirewallRuleSpec{
			{Action: "permit", Protocol: "tcp", SrcPrefix: "2401:db00::/32", DstPort: 179},
			{Action: "deny", Protocol: "any"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.AttachFirewall(testCtx("pop"), "cp-protect", res.Devices); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GenerateAndDeploy(res.Devices, deploy.Options{
		Phases: []deploy.Phase{{Name: "canary", Percent: 50}, {Name: "rest"}},
	}, "test"); err != nil {
		t.Fatal(err)
	}
	return r, res.Devices
}

// TestGenerateAndDeployTrace: one site change through GenerateAndDeploy
// with the reconciler enabled produces a single trace holding the
// generate span, per-phase deploy spans with per-device commits, and
// the reconcile span, correctly nested with non-zero durations.
func TestGenerateAndDeployTrace(t *testing.T) {
	r, devices := newTracedPOP(t)

	var roots []telemetry.SpanSnapshot
	for _, s := range r.Tracer.Recent() {
		if s.Name == "generate-and-deploy" {
			roots = append(roots, s)
		}
	}
	if len(roots) != 1 {
		t.Fatalf("generate-and-deploy traces = %d, want exactly 1", len(roots))
	}
	root := roots[0]
	if root.TraceID == "" || root.DurationNS <= 0 {
		t.Fatalf("root trace_id=%q duration=%d", root.TraceID, root.DurationNS)
	}

	// Top-level nesting: generate, verify, deploy, reconcile — in
	// pipeline order (the verification gate sits between generation and
	// deployment).
	var order []string
	for _, c := range root.Children {
		order = append(order, c.Name)
	}
	if got := strings.Join(order, ","); got != "generate,verify,deploy,reconcile" {
		t.Fatalf("root children = %s, want generate,verify,deploy,reconcile", got)
	}

	gen := root.Children[0]
	if gen.DurationNS <= 0 {
		t.Errorf("generate span duration = %d", gen.DurationNS)
	}
	if got := len(gen.FindAll("generate-device")); got != len(devices) {
		t.Errorf("generate-device spans = %d, want %d", got, len(devices))
	}
	for _, d := range gen.Children {
		if d.Attrs["device"] == "" || d.Attrs["memo"] == "" {
			t.Errorf("generate-device span missing device/memo attrs: %+v", d.Attrs)
		}
	}

	dep := root.Children[2]
	if dep.DurationNS <= 0 {
		t.Errorf("deploy span duration = %d", dep.DurationNS)
	}
	phases := dep.FindAll("phase")
	if len(phases) != 2 {
		t.Fatalf("phase spans = %d, want 2", len(phases))
	}
	commits := 0
	for _, p := range phases {
		if p.DurationNS <= 0 {
			t.Errorf("phase %q duration = %d", p.Attrs["phase"], p.DurationNS)
		}
		if p.Attrs["result"] != "ok" {
			t.Errorf("phase %q result = %q", p.Attrs["phase"], p.Attrs["result"])
		}
		// Commit spans nest under their phase, not the deploy span.
		for _, c := range p.Children {
			if c.Name != "commit" {
				t.Errorf("phase child %q, want commit", c.Name)
				continue
			}
			if c.Attrs["device"] == "" {
				t.Errorf("commit span missing device attr")
			}
			commits++
		}
	}
	if commits != len(devices) {
		t.Errorf("commit spans = %d, want %d", commits, len(devices))
	}

	rec := root.Children[3]
	verifies := rec.FindAll("verify-device")
	if len(verifies) != len(devices) {
		t.Fatalf("verify-device spans = %d, want %d", len(verifies), len(devices))
	}
	for _, v := range verifies {
		if v.Attrs["result"] != "conforming" {
			t.Errorf("verify-device %s result = %q, want conforming", v.Attrs["device"], v.Attrs["result"])
		}
	}
	// Every span in the tree shares the root's request ID.
	var walk func(s telemetry.SpanSnapshot)
	walk = func(s telemetry.SpanSnapshot) {
		if s.TraceID != root.TraceID {
			t.Errorf("span %s trace_id = %q, want %q", s.Name, s.TraceID, root.TraceID)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
}

// promLine matches one sample in the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[0-9eE.+-]+)$`)

// TestMetricsEndpointScrape: the HTTP endpoint serves a parseable
// Prometheus scrape containing the pipeline's key families, a healthy
// /healthz, and the completed trace on /traces.
func TestMetricsEndpointScrape(t *testing.T) {
	r, devices := newTracedPOP(t)
	srv, err := r.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	scrape := string(body)
	for _, line := range strings.Split(strings.TrimRight(scrape, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable scrape line %q", line)
		}
	}
	for _, want := range []string{
		"robotron_generate_device_seconds_bucket{le=",
		"robotron_generate_derive_hits_total",
		"robotron_generate_derives_total",
		`robotron_deploy_commits_total{result="ok"}`,
		`robotron_deploy_commits_total{result="failed"}`,
		`robotron_reconcile_devices{state="converged"}`,
		"robotron_reconcile_breaker_open 0",
		"robotron_monitor_checks_total",
		`robotron_fbnet_queries_planned_total{strategy="indexed"}`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The two-phase deployment committed every device exactly once.
	ok := r.Telemetry.Counter("robotron_deploy_commits_total",
		telemetry.Label{Key: "result", Value: "ok"})
	if got := ok.Value(); got != int64(len(devices)) {
		t.Errorf("deploy ok commits = %d, want %d", got, len(devices))
	}

	resp, err = http.Get("http://" + srv.Addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK     bool `json:"ok"`
		Checks []telemetry.HealthStatus
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || !health.OK || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status=%d ok=%v err=%v", resp.StatusCode, health.OK, err)
	}

	resp, err = http.Get("http://" + srv.Addr + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	var traces []telemetry.SpanSnapshot
	err = json.NewDecoder(resp.Body).Decode(&traces)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range traces {
		if tr.Name == "generate-and-deploy" {
			found = true
			if _, ok := tr.Find("reconcile"); !ok {
				t.Error("/traces generate-and-deploy trace lacks reconcile span")
			}
		}
	}
	if !found {
		t.Error("/traces missing the generate-and-deploy trace")
	}
}
