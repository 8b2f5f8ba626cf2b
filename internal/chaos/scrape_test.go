package chaos

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/core"
	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/fbnet/service"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/vclock"
)

// sampleRe matches one Prometheus text-format sample line:
// name{labels} value  |  name value
var sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+]+|NaN)$`)

// scrape GETs /metrics and parses every sample into family → summed value.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for i, line := range regexp.MustCompile(`\r?\n`).Split(string(body), -1) {
		if line == "" || line[0] == '#' {
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("metrics line %d does not parse as a Prometheus sample: %q", i+1, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("metrics line %d value %q: %v", i+1, m[3], err)
		}
		out[m[1]] += v
	}
	return out
}

// TestMetricsScrapeExposesChaosSeries drives a small faulty deployment
// and a store failover, then scrapes the real /metrics endpoint and
// checks that every chaos-related series this PR added is present and
// parseable — injected faults by kind, deploy retries, ambiguous-commit
// resolutions, reconcile transport retries, service degraded gauge and
// promotions counter.
func TestMetricsScrapeExposesChaosSeries(t *testing.T) {
	policy := netsim.NewFaultPolicy(7)
	policy.Add(netsim.FaultRule{Kind: netsim.FaultTransient, Probability: 1,
		Verbs: []string{"commit"}, MaxCount: 1})
	policy.Add(netsim.FaultRule{Kind: netsim.FaultDropAfter, Probability: 1,
		Verbs: []string{"commit"}, MaxCount: 1})
	retry := &deploy.RetryPolicy{Seed: 7}

	r, err := core.New(core.Options{
		Clock:            vclock.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)),
		FaultPolicy:      policy,
		DeployRetry:      retry,
		EnableReconciler: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Reconciler.Stop()

	// A store deployment failing over shares the same registry.
	dep, err := service.NewDeployment(fbnet.NewCatalog(), "ash", []string{"ash", "fra"}, 1, r.Telemetry)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	dep.KillMaster()
	if _, err := dep.PromoteBest(); err != nil {
		t.Fatal(err)
	}

	// A tiny faulty deployment to move the counters off zero: provision
	// clean, then push an intent change through the retrying commit
	// pipeline with the faults armed.
	policy.SetDisabled(true)
	ctx := design.ChangeContext{EmployeeID: "chaos", TicketID: "T-scrape", Description: "scrape test", Domain: "pop"}
	if _, err := r.Designer.EnsureSite("pop1", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	res, err := r.ProvisionCluster(ctx, "pop1", "pop1-c1", design.POPGen1())
	if err != nil {
		t.Fatal(err)
	}
	policy.SetDisabled(false)
	if _, err := r.Designer.EnsureFirewallPolicy(ctx, design.FirewallSpec{
		Name: "scrape-cp", Direction: "in",
		Rules: []design.FirewallRuleSpec{{Action: "deny", Protocol: "any"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.AttachFirewall(ctx, "scrape-cp", res.Devices); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GenerateAndDeploy(res.Devices, deploy.Options{}, "chaos"); err != nil {
		t.Fatalf("faulty deploy should succeed via retry: %v", err)
	}

	srv, err := r.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	families := scrape(t, fmt.Sprintf("http://%s/metrics", srv.Addr))
	for _, name := range []string{
		"robotron_netsim_injected_faults_total",
		"robotron_deploy_retries_total",
		"robotron_deploy_ambiguous_resolutions_total",
		"robotron_reconcile_transport_retries_total",
		"robotron_service_degraded",
		"robotron_service_promotions_total",
	} {
		if _, ok := families[name]; !ok {
			t.Errorf("scrape missing series %s", name)
		}
	}
	if families["robotron_netsim_injected_faults_total"] < 2 {
		t.Errorf("injected faults = %v, want >= 2", families["robotron_netsim_injected_faults_total"])
	}
	if families["robotron_deploy_retries_total"] < 1 {
		t.Errorf("deploy retries = %v, want >= 1", families["robotron_deploy_retries_total"])
	}
	if families["robotron_deploy_ambiguous_resolutions_total"] < 1 {
		t.Errorf("ambiguous resolutions = %v, want >= 1", families["robotron_deploy_ambiguous_resolutions_total"])
	}
	if families["robotron_service_promotions_total"] != 1 {
		t.Errorf("promotions = %v, want 1", families["robotron_service_promotions_total"])
	}
	if families["robotron_service_degraded"] != 0 {
		t.Errorf("degraded gauge = %v, want 0 after promotion", families["robotron_service_degraded"])
	}
}
