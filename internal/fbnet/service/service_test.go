package service

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/telemetry"
)

func ctx() context.Context { return context.Background() }

// newDeployment spins up a 3-region deployment with 2 read replicas per
// region and a Region object seeded through the write API.
func newDeployment(t testing.TB) (*Deployment, *Client) {
	t.Helper()
	return newDeploymentOn(t, nil)
}

// newDeploymentOn is newDeployment reporting on reg.
func newDeploymentOn(t testing.TB, reg *telemetry.Registry) (*Deployment, *Client) {
	t.Helper()
	d, err := NewDeployment(fbnet.NewCatalog(), "ash", []string{"ash", "fra", "sin"}, 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	c := NewClient(d, "fra")
	t.Cleanup(c.Close)
	return d, c
}

func seedDevices(t testing.TB, d *Deployment, c *Client) {
	t.Helper()
	resp, err := c.Write(ctx(), []WriteOp{
		CreateOp("Region", map[string]any{"name": "emea"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	regionID := resp.CreatedIDs[0]
	resp, err = c.Write(ctx(), []WriteOp{
		CreateOp("Site", map[string]any{"name": "pop1", "kind": "pop", "region": regionID}),
		CreateOp("Vendor", map[string]any{"name": "v1", "syntax": "vendor1"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	siteID, vendorID := resp.CreatedIDs[0], resp.CreatedIDs[1]
	resp, err = c.Write(ctx(), []WriteOp{
		CreateOp("HardwareProfile", map[string]any{
			"name": "hw", "vendor": vendorID, "num_slots": 2, "ports_per_linecard": 8, "port_speed_mbps": 10000}),
	})
	if err != nil {
		t.Fatal(err)
	}
	hwID := resp.CreatedIDs[0]
	var ops []WriteOp
	for _, name := range []string{"psw1.pop1", "psw2.pop1", "pr1.pop1"} {
		role := "psw"
		if strings.HasPrefix(name, "pr") {
			role = "pr"
		}
		ops = append(ops, CreateOp("Device", map[string]any{
			"name": name, "role": role, "site": siteID, "hw_profile": hwID, "drain_state": "undrained"}))
	}
	if _, err := c.Write(ctx(), ops); err != nil {
		t.Fatal(err)
	}
	if err := d.Replicate(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAndReadThroughRPC(t *testing.T) {
	d, c := newDeployment(t)
	seedDevices(t, d, c)
	res, err := c.Get(ctx(), "Device", []string{"name", "role", "site.name"}, Eq("role", "psw"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d, want 2", len(res))
	}
	for _, r := range res {
		if r.Fields["role"] != "psw" || r.Fields["site.name"] != "pop1" {
			t.Errorf("row = %+v", r.Fields)
		}
	}
}

func TestQueryOperatorsOverWire(t *testing.T) {
	d, c := newDeployment(t)
	seedDevices(t, d, c)
	cases := []struct {
		q    *WireQuery
		want int
	}{
		{Eq("role", "pr"), 1},
		{Ne("role", "pr"), 2},
		{In("role", "pr", "psw"), 3},
		{Regexp("name", `^psw\d`), 2},
		{Contains("name", "pop1"), 3},
		{And(Eq("role", "psw"), Contains("name", "psw1")), 1},
		{Or(Eq("role", "pr"), Eq("name", "psw1.pop1")), 2},
		{Not(Eq("role", "psw")), 1},
		{All(), 3},
		{nil, 3},
		{IsNull("cluster"), 3},
		{Gt("id", 0), 3},
	}
	for i, tc := range cases {
		res, err := c.Get(ctx(), "Device", []string{"name"}, tc.q)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(res) != tc.want {
			t.Errorf("case %d: results = %d, want %d", i, len(res), tc.want)
		}
	}
}

func TestReverseConnectionOverWire(t *testing.T) {
	d, c := newDeployment(t)
	seedDevices(t, d, c)
	// Add linecards to one device through the write API.
	res, err := c.Get(ctx(), "Device", []string{"name"}, Eq("name", "psw1.pop1"))
	if err != nil || len(res) != 1 {
		t.Fatal(err)
	}
	devID := res[0].ID
	if _, err := c.Write(ctx(), []WriteOp{
		CreateOp("Linecard", map[string]any{"slot": 1, "device": devID}),
		CreateOp("Linecard", map[string]any{"slot": 2, "device": devID}),
	}); err != nil {
		t.Fatal(err)
	}
	d.Replicate()
	res, err = c.Get(ctx(), "Device", []string{"name", "linecards"}, Eq("id", devID))
	if err != nil {
		t.Fatal(err)
	}
	lcs, ok := res[0].Fields["linecards"].([]any)
	if !ok || len(lcs) != 2 {
		t.Errorf("linecards = %#v", res[0].Fields["linecards"])
	}
}

func TestWriteBatchIsTransactional(t *testing.T) {
	d, c := newDeployment(t)
	seedDevices(t, d, c)
	// Second op violates a validator: the whole batch must roll back.
	_, err := c.Write(ctx(), []WriteOp{
		CreateOp("Region", map[string]any{"name": "apac"}),
		CreateOp("Region", map[string]any{"name": ""}), // invalid
	})
	if err == nil {
		t.Fatal("invalid batch should fail")
	}
	d.Replicate()
	res, err := c.Get(ctx(), "Region", []string{"name"}, Eq("name", "apac"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Error("partial batch visible after failed write")
	}
}

func TestReadAfterWriteFromMasterRegion(t *testing.T) {
	d, _ := newDeployment(t)
	// A client in the master region reads its own writes without waiting
	// for replication.
	mc := NewClient(d, "ash")
	defer mc.Close()
	if _, err := mc.Write(ctx(), []WriteOp{CreateOp("Region", map[string]any{"name": "raw"})}); err != nil {
		t.Fatal(err)
	}
	res, err := mc.Get(ctx(), "Region", []string{"name"}, Eq("name", "raw"))
	if err != nil || len(res) != 1 {
		t.Errorf("read-after-write in master region: %v, %d rows", err, len(res))
	}
}

func TestReplicationLagVisible(t *testing.T) {
	d, c := newDeployment(t)
	if _, err := c.Write(ctx(), []WriteOp{CreateOp("Region", map[string]any{"name": "lagged"})}); err != nil {
		t.Fatal(err)
	}
	// Before replication, the fra replica hasn't seen the row.
	res, err := c.Get(ctx(), "Region", []string{"name"}, Eq("name", "lagged"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Skip("replica unexpectedly caught up (auto replication)")
	}
	lag := d.Lag()
	if lag["fra"] == 0 {
		t.Error("lag should be nonzero before Replicate")
	}
	d.Replicate()
	res, err = c.Get(ctx(), "Region", []string{"name"}, Eq("name", "lagged"))
	if err != nil || len(res) != 1 {
		t.Errorf("after replication: %v, %d rows", err, len(res))
	}
}

func TestReadReplicaFailover(t *testing.T) {
	d, c := newDeployment(t)
	seedDevices(t, d, c)
	// Kill the first local read replica: reads fail over to the second.
	if err := d.FailReadReplica("fra", 0); err != nil {
		t.Fatal(err)
	}
	replica, err := c.Ping(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if replica != "read.fra.1" {
		t.Errorf("served by %s, want read.fra.1", replica)
	}
	// Kill the second too: reads reroute to a neighboring region.
	if err := d.FailReadReplica("fra", 1); err != nil {
		t.Fatal(err)
	}
	replica, err = c.Ping(ctx())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(replica, "fra") {
		t.Errorf("served by %s, want a non-fra replica", replica)
	}
	res, err := c.Get(ctx(), "Device", []string{"name"}, All())
	if err != nil || len(res) != 3 {
		t.Errorf("cross-region read: %v, %d rows", err, len(res))
	}
}

func TestMasterFailoverPromotesReplica(t *testing.T) {
	d, c := newDeployment(t)
	seedDevices(t, d, c)
	if err := d.FailMasterAndPromote("fra"); err != nil {
		t.Fatal(err)
	}
	if d.MasterRegion() != "fra" {
		t.Errorf("master region = %s", d.MasterRegion())
	}
	c.RefreshTopology(d)
	// Data survives the failover.
	res, err := c.Get(ctx(), "Device", []string{"name"}, All())
	if err != nil || len(res) != 3 {
		t.Fatalf("post-failover read: %v, %d rows", err, len(res))
	}
	// Writes continue against the new master.
	if _, err := c.Write(ctx(), []WriteOp{CreateOp("Region", map[string]any{"name": "post-failover"})}); err != nil {
		t.Fatal(err)
	}
	if err := d.Replicate(); err != nil {
		t.Fatal(err)
	}
	// Another region sees the new write after replication from the new
	// master.
	sc := NewClient(d, "sin")
	defer sc.Close()
	res, err = sc.Get(ctx(), "Region", []string{"name"}, Eq("name", "post-failover"))
	if err != nil || len(res) != 1 {
		t.Errorf("replica of new master: %v, %d rows", err, len(res))
	}
	if err := d.FailMasterAndPromote("fra"); err == nil {
		t.Error("promoting the current master should fail")
	}
}

func TestBadQueriesReturnRemoteErrors(t *testing.T) {
	d, c := newDeployment(t)
	seedDevices(t, d, c)
	if _, err := c.Get(ctx(), "NoSuchModel", []string{"x"}, All()); err == nil {
		t.Error("unknown model should fail")
	}
	if _, err := c.Get(ctx(), "Device", []string{"bogus"}, All()); err == nil {
		t.Error("unknown field should fail")
	}
	if _, err := c.Get(ctx(), "Device", []string{"name"}, &WireQuery{Op: "frobnicate"}); err == nil {
		t.Error("unknown op should fail")
	}
	if _, err := c.Write(ctx(), []WriteOp{{Action: "explode", Model: "Device"}}); err == nil {
		t.Error("unknown write action should fail")
	}
}

func TestAutoReplicationBackground(t *testing.T) {
	d, c := newDeployment(t)
	d.StartReplication(5 * time.Millisecond)
	if _, err := c.Write(ctx(), []WriteOp{CreateOp("Region", map[string]any{"name": "auto"})}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		res, err := c.Get(ctx(), "Region", []string{"name"}, Eq("name", "auto"))
		if err == nil && len(res) == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Error("background replication did not converge")
}

func BenchmarkRPCGet(b *testing.B) {
	d, c := newDeployment(b)
	seedDevices(b, d, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Get(ctx(), "Device", []string{"name", "role"}, Eq("role", "psw"))
		if err != nil || len(res) != 2 {
			b.Fatalf("%v %d", err, len(res))
		}
	}
}

func TestGetLimit(t *testing.T) {
	d, c := newDeployment(t)
	seedDevices(t, d, c)
	res, err := c.GetLimit(ctx(), "Device", []string{"name"}, All(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("limited results = %d, want 2", len(res))
	}
	// Limit larger than the result set is harmless; 0 means unlimited.
	res, _ = c.GetLimit(ctx(), "Device", []string{"name"}, All(), 100)
	if len(res) != 3 {
		t.Errorf("over-limit results = %d, want 3", len(res))
	}
	res, _ = c.GetLimit(ctx(), "Device", []string{"name"}, All(), 0)
	if len(res) != 3 {
		t.Errorf("unlimited results = %d, want 3", len(res))
	}
}
