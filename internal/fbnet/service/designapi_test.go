package service

import (
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/verify"
)

func meta(domain string) ChangeMeta {
	return ChangeMeta{
		EmployeeID: "e-rpc", TicketID: "T-rpc",
		Description: "rpc design change", Domain: domain, NowUnix: 1_750_000_000,
	}
}

func newDesignDeployment(t *testing.T) (*Deployment, *Client) {
	t.Helper()
	d, c := newDeployment(t)
	if _, err := d.EnableDesignAPI(design.DefaultPools()); err != nil {
		t.Fatal(err)
	}
	return d, c
}

func TestDesignAPIBuildClusterOverRPC(t *testing.T) {
	d, c := newDesignDeployment(t)
	reply, err := c.BuildCluster(ctx(), &BuildClusterRequest{
		Meta: meta("pop"), Site: "pop1", Cluster: "pop1-c1", Template: "pop-gen1",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The §5.1.1 count, through the RPC boundary: 94 Fig. 7 objects plus
	// bookkeeping (cluster, link groups, linecards).
	if reply.NumCreated < 94 {
		t.Errorf("created = %d, want >= 94", reply.NumCreated)
	}
	// The design landed on the master and replicates to readers.
	if err := d.Replicate(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Get(ctx(), "Device", []string{"name", "role"}, Eq("role", "psw"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Errorf("PSWs visible via read API = %d, want 4", len(res))
	}
	// Attribution is recorded.
	res, err = c.Get(ctx(), "DesignChange", []string{"employee_id", "ticket_id"}, Eq("id", reply.ChangeID))
	if err != nil || len(res) != 1 {
		t.Fatalf("change record: %v %d", err, len(res))
	}
	if res[0].Fields["employee_id"] != "e-rpc" {
		t.Errorf("attribution = %+v", res[0].Fields)
	}
}

func TestDesignAPIBackboneFlowOverRPC(t *testing.T) {
	d, c := newDesignDeployment(t)
	for _, n := range []string{"bb1", "bb2", "bb3"} {
		if _, err := c.AddRouter(ctx(), &AddRouterRequest{
			Meta: meta("backbone"), Name: n, Site: "bb-hub", HwProfile: "Backbone_Vendor2", Role: "bb",
		}); err != nil {
			t.Fatal(err)
		}
	}
	reply, err := c.AddCircuit(ctx(), &AddCircuitRequest{
		Meta: meta("backbone"), A: "bb1", Z: "bb2", Circuits: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.NumCreated == 0 {
		t.Error("circuit add created nothing")
	}
	d.Replicate()
	res, err := c.Get(ctx(), "Circuit", []string{"circuit_id"}, All())
	if err != nil || len(res) != 1 {
		t.Fatalf("circuits = %d, %v", len(res), err)
	}
	circuitID, _ := res[0].Fields["circuit_id"].(string)
	mig, err := c.MigrateCircuit(ctx(), &MigrateCircuitRequest{
		Meta: meta("backbone"), CircuitID: circuitID, NewZ: "bb3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if mig.NumDeleted == 0 || mig.NumCreated == 0 {
		t.Errorf("migration reply = %+v", mig)
	}
	d.Replicate()
	res, _ = c.Get(ctx(), "Circuit", []string{"circuit_id"}, All())
	if got, _ := res[0].Fields["circuit_id"].(string); !strings.Contains(got, "bb3") {
		t.Errorf("post-migration circuit id = %q", got)
	}
	// The design on the master is rule-clean.
	if violations := gateViolations(t, d.MasterStore()); len(violations) != 0 {
		t.Errorf("violations: %v", violations)
	}
}

func TestDesignAPIValidationOverRPC(t *testing.T) {
	_, c := newDesignDeployment(t)
	// Missing attribution is refused server-side.
	if _, err := c.BuildCluster(ctx(), &BuildClusterRequest{
		Site: "pop1", Cluster: "c1", Template: "pop-gen1",
	}); err == nil {
		t.Error("missing attribution should fail")
	}
	if _, err := c.BuildCluster(ctx(), &BuildClusterRequest{
		Meta: meta("pop"), Site: "pop1", Cluster: "c1", Template: "no-such-template",
	}); err == nil {
		t.Error("unknown template should fail")
	}
	if _, err := c.AddCircuit(ctx(), &AddCircuitRequest{
		Meta: meta("backbone"), A: "ghost1", Z: "ghost2", Circuits: 1,
	}); err == nil {
		t.Error("unknown devices should fail")
	}
	// Failed changes leave nothing behind.
	_, c2 := struct{}{}, c
	res, err := c2.Get(ctx(), "Cluster", []string{"name"}, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("clusters after failed changes = %d", len(res))
	}
}

// TestDesignAPISerializesWriters: concurrent RPC design changes from
// different clients serialize on the master (§8's multiple-writers
// discussion).
func TestDesignAPISerializesWriters(t *testing.T) {
	d, _ := newDesignDeployment(t)
	clients := make([]*Client, 3)
	for i := range clients {
		clients[i] = NewClient(d, []string{"ash", "fra", "sin"}[i])
		defer clients[i].Close()
	}
	errs := make(chan error, len(clients))
	for i, c := range clients {
		go func(i int, c *Client) {
			_, err := c.BuildCluster(ctx(), &BuildClusterRequest{
				Meta: meta("pop"), Site: "pop1",
				Cluster: []string{"c-a", "c-b", "c-c"}[i], Template: "pop-gen1",
			})
			errs <- err
		}(i, c)
	}
	for range clients {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	store := d.MasterStore()
	if n, _ := store.Count("Cluster"); n != 3 {
		t.Errorf("clusters = %d", n)
	}
	if violations := gateViolations(t, store); len(violations) != 0 {
		t.Errorf("violations: %v", violations)
	}
	// Unique prefixes survived concurrent allocation.
	prefixes, _ := store.Find("V6Prefix", fbnet.All())
	seen := map[string]bool{}
	for _, p := range prefixes {
		if seen[p.String("prefix")] {
			t.Fatalf("duplicate prefix %s across concurrent RPC changes", p.String("prefix"))
		}
		seen[p.String("prefix")] = true
	}
}

// gateViolations is the gate's verdict on the design alone: a fresh
// checker's stored checks, network-wide, with no rendered configs.
func gateViolations(t *testing.T, store *fbnet.Store) []verify.Violation {
	t.Helper()
	res, err := verify.NewChecker(store, nil, nil).Check(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Violations
}
