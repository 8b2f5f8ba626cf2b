package core

import (
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/verify"
)

// TestGlobalNetworkOfNetworks assembles the paper's Figure 1: two edge
// POPs and a DC, interconnected through a backbone, then runs the full
// monitoring cycle and expects a clean audit — the "networks of networks"
// where "all of them must be configured correctly in order for the entire
// network to function" (§1).
func TestGlobalNetworkOfNetworks(t *testing.T) {
	r := newRobotron(t)
	// Sites across regions.
	for _, s := range []struct{ name, kind, region string }{
		{"pop-east", "pop", "nam"}, {"pop-west", "pop", "nam"},
		{"dc1", "dc", "nam"},
		{"bb-hub", "backbone", "nam"},
	} {
		if _, err := r.Designer.EnsureSite(s.name, s.kind, s.region); err != nil {
			t.Fatal(err)
		}
	}
	// Edge and DC clusters.
	popEast, err := r.ProvisionCluster(testCtx("pop"), "pop-east", "pop-east-c1", design.POPGen1())
	if err != nil {
		t.Fatal(err)
	}
	popWest, err := r.ProvisionCluster(testCtx("pop"), "pop-west", "pop-west-c1", design.POPGen1())
	if err != nil {
		t.Fatal(err)
	}
	dc, err := r.ProvisionCluster(testCtx("dc"), "dc1", "dc1-c1", design.DCGen2(2))
	if err != nil {
		t.Fatal(err)
	}
	// Backbone core.
	for _, n := range []string{"bb1", "bb2"} {
		if _, err := r.Designer.AddBackboneRouter(testCtx("backbone"), n, "bb-hub", "Backbone_Vendor2", "bb"); err != nil {
			t.Fatal(err)
		}
	}
	// Cross-domain transport: each POP's PR and the DC's DR attach to the
	// backbone ("PRs and DRs as edge nodes", §2.3).
	for _, edge := range []string{"pr1.pop-east-c1", "pr1.pop-west-c1", "dr1.dc1-c1"} {
		if _, err := r.Designer.AddBackboneCircuit(testCtx("backbone"), edge, "bb1", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Designer.AddBackboneCircuit(testCtx("backbone"), edge, "bb2", 1); err != nil {
			t.Fatal(err)
		}
	}
	// Peering at the east POP.
	if _, _, err := r.Designer.AddPeering(testCtx("pop"), design.PeeringSpec{
		Device: "pr1.pop-east-c1", Partner: "ISP-One", ASN: 3356, Kind: "transit", LocalAS: 32934,
		ImportPolicy: &design.PolicySpec{
			Name:  "isp-one-in",
			Terms: []design.PolicyTermSpec{{MatchPrefix: "2001:db8::/32", Action: "accept"}, {Action: "reject"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Physical build-out + deployment of the whole estate.
	if err := r.SyncFleet(); err != nil {
		t.Fatal(err)
	}
	_ = popEast
	_ = popWest
	_ = dc
	devs, err := r.Store.Find("Device", nil)
	if err != nil {
		t.Fatal(err)
	}
	var redeploy []string
	for _, d := range devs {
		redeploy = append(redeploy, d.String("name"))
	}
	if _, err := r.GenerateAndDeploy(redeploy, deploy.Options{}, "e1"); err != nil {
		t.Fatal(err)
	}
	// Close out the turn-up: the cross-domain circuits go production.
	if n, err := r.PromoteCircuits(); err != nil || n != 6 {
		t.Fatalf("promoted %d circuits (%v), want 6", n, err)
	}
	// The whole estate: 2 POPs (6 each) + DC (4 dr + 16 fsw + 2 tor) + 2
	// backbone routers.
	if len(redeploy) != 36 {
		t.Errorf("estate = %d devices, want 36", len(redeploy))
	}
	// Full monitoring cycle over everything; the audit is clean except for
	// the external peering session (its far side is an ISP we don't
	// simulate), which should be the ONLY anomaly class.
	installAuditJobs(t, r)
	if err := r.CollectOnce(); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rep.Anomalies {
		if a.Kind != "bgp-down" || !strings.Contains(a.Detail, "ebgp") {
			t.Errorf("unexpected anomaly: %v", a)
		}
	}
	// Cross-domain circuits exist in the Derived state too.
	derived, _ := r.Store.Find("DerivedCircuit", nil)
	var crossDomain int
	for _, c := range derived {
		a, z := c.String("a_device"), c.String("z_device")
		if (strings.HasPrefix(a, "bb") && !strings.HasPrefix(z, "bb")) ||
			(strings.HasPrefix(z, "bb") && !strings.HasPrefix(a, "bb")) {
			crossDomain++
		}
	}
	if crossDomain != 6 {
		t.Errorf("cross-domain derived circuits = %d, want 6", crossDomain)
	}
	// Design validation over the whole estate.
	if violations := gateViolations(t, r.Store); len(violations) != 0 {
		t.Errorf("violations: %v", violations[:min(5, len(violations))])
	}
	// FBNet scale sanity: the read API answers a global question — which
	// devices terminate production circuits to the backbone hub site.
	res, err := r.Store.Get("Circuit",
		[]string{"circuit_id", "a_interface.linecard.device.name"},
		fbnet.Eq("z_interface.linecard.device.site.name", "bb-hub"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 6 {
		t.Errorf("global query found %d circuits into bb-hub", len(res))
	}
	// Monitoring stats flowed.
	counts := r.JobManager.Stats().Counts()
	if counts[monitor.EngineSNMP] == 0 || counts[monitor.EngineCLI] == 0 {
		t.Errorf("monitoring counts = %v", counts)
	}
}

// gateViolations is the gate's verdict on the design alone: a fresh
// checker's stored checks, network-wide, with no rendered configs.
func gateViolations(t *testing.T, store *fbnet.Store) []verify.Violation {
	t.Helper()
	res, err := verify.NewChecker(store, nil).Check(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Violations
}
