package design

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/ipam"
	"github.com/robotron-net/robotron/internal/relstore"
)

var update = flag.Bool("update", false, "rewrite testdata/design_writes.golden")

// TestDesignWritesGolden pins the write set of every design op: one
// scripted history on a fresh store, and for each op the rows it wrote to
// FBNet and the prefixes it took from or gave back to the pools. A
// refactor of the design tools must leave testdata/design_writes.golden
// byte-identical; `go test -run TestDesignWritesGolden -update` rewrites
// it.
//
// Every write is recorded in binlog order: a delete cascades through the
// referencing tables in a fixed order (TestDeletesLogTheSameEntries), so
// the golden pins the order of the cascaded deletes and of the SET NULL
// updates too.
func TestDesignWritesGolden(t *testing.T) {
	db := relstore.NewDB("master", nil)
	store, err := fbnet.Open(db, fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDesigner(store, DefaultPools())
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	pools := d.pools.named()
	seq := db.Seq()
	held := allocations(pools)
	step := func(name string, res ChangeResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&out, "== %s\n", name)
		if res.ChangeID != 0 {
			fmt.Fprintf(&out, "result change=%d created=%d modified=%d deleted=%d\n",
				res.ChangeID, len(res.Stats.Created), len(res.Stats.Modified), len(res.Stats.Deleted))
		}
		writeEntries(&out, db.EntriesSince(seq))
		seq = db.Seq()
		now := allocations(pools)
		writeAllocDiff(&out, held, now)
		held = now
	}
	circuitsCreated := func(res ChangeResult) []string {
		var ids []string
		for _, ref := range res.Stats.Created {
			if ref.Model == "Circuit" {
				c, err := store.GetByID("Circuit", ref.ID)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, c.String("circuit_id"))
			}
		}
		return ids
	}
	ctx := testCtx

	step("EnsureStandardHardware", ChangeResult{}, d.EnsureStandardHardware())
	for _, s := range [][3]string{{"pop1", "pop", "apac"}, {"dc1", "dc", "nam"}, {"bb-site", "backbone", "nam"}} {
		_, err := d.EnsureSite(s[0], s[1], s[2])
		step("EnsureSite "+s[0], ChangeResult{}, err)
	}
	_, err = d.EnsureSite("pop1", "pop", "apac")
	step("EnsureSite pop1 again", ChangeResult{}, err)

	rejected := ctx("pop")
	rejected.Review = func(fbnet.ChangeStats) bool { return false }
	if _, err := d.BuildCluster(rejected, "pop1", "pop1-c1", POPGen1()); err == nil {
		t.Fatal("a rejected review must fail the build")
	}
	step("BuildCluster pop1-c1 rejected by review", ChangeResult{}, nil)
	built, err := d.BuildCluster(ctx("pop"), "pop1", "pop1-c1", POPGen1())
	step("BuildCluster pop1-c1 POPGen1", built.ChangeResult, err)
	built, err = d.BuildCluster(ctx("dc"), "dc1", "dc1-c1", DCGen3(1))
	step("BuildCluster dc1-c1 DCGen3(1)", built.ChangeResult, err)
	tpl := DCGen3(1)
	res, err := d.AddRack(ctx("dc"), "dc1-c1", tpl.RackTORProfle, tpl.UplinkRole, tpl.UplinksPerTOR, true, false)
	step("AddRack dc1-c1", res, err)

	for _, r := range [][2]string{{"bb1", "pr"}, {"bb2", "bb"}, {"bb3", "dr"}, {"bb4", "pr"}} {
		res, err = d.AddBackboneRouter(ctx("backbone"), r[0], "bb-site", "Backbone_Vendor2", r[1])
		step("AddBackboneRouter "+r[0]+" "+r[1], res, err)
	}
	res, err = d.AddBackboneCircuit(ctx("backbone"), "bb1", "bb2", 2)
	step("AddBackboneCircuit bb1--bb2 new bundle of 2", res, err)
	bundle := circuitsCreated(res)
	res, err = d.AddBackboneCircuit(ctx("backbone"), "bb1", "bb2", 1)
	step("AddBackboneCircuit bb1--bb2 grow by 1", res, err)
	bundle = append(bundle, circuitsCreated(res)...)
	res, err = d.AddBackboneCircuit(ctx("backbone"), "bb1", "bb3", 1)
	step("AddBackboneCircuit bb1--bb3", res, err)
	single := circuitsCreated(res)
	res, err = d.MigrateCircuit(ctx("backbone"), single[0], "bb4")
	step("MigrateCircuit bb1--bb3 to bb4", res, err)
	res, err = d.DeleteCircuit(ctx("backbone"), bundle[1])
	step("DeleteCircuit mid-bundle "+bundle[1], res, err)
	migrated, err := store.FindOne("Circuit", fbnet.Regexp("circuit_id", "--bb4:"))
	if err != nil {
		t.Fatal(err)
	}
	res, err = d.DeleteCircuit(ctx("backbone"), migrated.String("circuit_id"))
	step("DeleteCircuit last member "+migrated.String("circuit_id"), res, err)
	res, err = d.RemoveBackboneRouter(ctx("backbone"), "bb2")
	step("RemoveBackboneRouter bb2", res, err)

	res, _, err = d.AddPeering(ctx("pop"), PeeringSpec{
		Device: "pr1.pop1-c1", Partner: "isp-a", ASN: 64999, Kind: "transit", LocalAS: 65001,
		ImportPolicy: &PolicySpec{Name: "isp-a-in", Terms: []PolicyTermSpec{
			{MatchPrefix: "2001:db8::/32", Action: "accept"}, {Action: "reject"},
		}},
	})
	step("AddPeering pr1.pop1-c1 isp-a", res, err)

	fw := FirewallSpec{Name: "mgmt-acl", Direction: "in", Rules: []FirewallRuleSpec{
		{Action: "permit", Protocol: "tcp", SrcPrefix: "2401:db00::/32", DstPort: 22},
		{Action: "deny", Protocol: "any"},
	}}
	res, err = d.EnsureFirewallPolicy(ctx("pop"), fw)
	step("EnsureFirewallPolicy mgmt-acl", res, err)
	fw.Direction = "out"
	fw.Rules = fw.Rules[:1]
	res, err = d.EnsureFirewallPolicy(ctx("pop"), fw)
	step("EnsureFirewallPolicy mgmt-acl replaced", res, err)
	res, err = d.AttachFirewall(ctx("pop"), "mgmt-acl", []string{"pr1.pop1-c1", "pr2.pop1-c1"})
	step("AttachFirewall mgmt-acl", res, err)

	res, err = d.SetDrainState(ctx("pop"), "pr1.pop1-c1", "undrained")
	step("SetDrainState pr1.pop1-c1 undrained", res, err)
	res, err = d.EnsureOsImage(ctx("pop"), "v1-os-2.0", "2.0", "vendor1")
	step("EnsureOsImage v1-os-2.0", res, err)
	res, err = d.AssignOsImage(ctx("pop"), "pr1.pop1-c1", "v1-os-2.0")
	step("AssignOsImage pr1.pop1-c1", res, err)

	res, err = d.DecommissionCluster(ctx("pop"), "pop1-c1")
	step("DecommissionCluster pop1-c1", res, err)

	path := filepath.Join("testdata", "design_writes.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("write set differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("write set differs from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// named lists the pools by name, for the golden's allocation lines.
func (p Pools) named() map[string]*ipam.Pool {
	return map[string]*ipam.Pool{
		"V6P2P": p.V6P2P, "V4P2P": p.V4P2P, "V6Loopback": p.V6Loopback, "V4Loopback": p.V4Loopback,
	}
}

// allocations flattens every pool's allocations to "pool prefix owner".
func allocations(pools map[string]*ipam.Pool) map[string]bool {
	out := map[string]bool{}
	for name, pool := range pools {
		for _, pfx := range pool.Allocations() {
			out[fmt.Sprintf("%s %s %s", name, pfx, pool.Owner(pfx))] = true
		}
	}
	return out
}

func writeAllocDiff(out *strings.Builder, before, after map[string]bool) {
	var lines []string
	for a := range after {
		if !before[a] {
			lines = append(lines, "alloc "+a)
		}
	}
	for b := range before {
		if !after[b] {
			lines = append(lines, "free "+b)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return allocLess(lines[i], lines[j]) })
	for _, l := range lines {
		out.WriteString(l + "\n")
	}
}

// allocLess orders allocation lines by kind, pool and address.
func allocLess(a, b string) bool {
	af, bf := strings.Fields(a), strings.Fields(b)
	if af[0] != bf[0] || af[1] != bf[1] {
		return af[0]+af[1] < bf[0]+bf[1]
	}
	ap, _ := netip.ParsePrefix(af[2])
	bp, _ := netip.ParsePrefix(bf[2])
	return ap.Addr().Less(bp.Addr())
}

func writeEntries(out *strings.Builder, entries []relstore.LogEntry) {
	for _, e := range entries {
		switch e.Op {
		case relstore.OpInsert:
			fmt.Fprintf(out, "insert %s %d %s\n", e.Table, e.RowID, formatValues(e.Values))
		case relstore.OpUpdate:
			fmt.Fprintf(out, "update %s %d %s\n", e.Table, e.RowID, formatValues(e.Values))
		case relstore.OpDelete:
			fmt.Fprintf(out, "delete %s %d\n", e.Table, e.RowID)
		}
	}
}

func formatValues(vals map[string]any) string {
	cols := make([]string, 0, len(vals))
	for c := range vals {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	parts := make([]string, len(cols))
	for i, c := range cols {
		switch v := vals[c].(type) {
		case string:
			parts[i] = fmt.Sprintf("%s=%q", c, v)
		default:
			parts[i] = fmt.Sprintf("%s=%v", c, v)
		}
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// deleteWorld returns a fresh store holding a POP cluster, pop1-c1, and a
// backbone mesh of four routers with bundles, bb1 to bb4: the world the
// delete tests remove from.
func deleteWorld(t *testing.T) *Designer {
	t.Helper()
	d := newTestDesigner(t)
	for _, s := range [][3]string{{"pop1", "pop", "apac"}, {"bb-site", "backbone", "nam"}} {
		if _, err := d.EnsureSite(s[0], s[1], s[2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.BuildCluster(testCtx("pop"), "pop1", "pop1-c1", POPGen1()); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"bb1", "bb2", "bb3", "bb4"} {
		if _, err := d.AddBackboneRouter(testCtx("backbone"), r, "bb-site", "Backbone_Vendor2", "bb"); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range [][2]string{{"bb1", "bb2"}, {"bb2", "bb3"}, {"bb2", "bb4"}, {"bb3", "bb4"}} {
		if _, err := d.AddBackboneCircuit(testCtx("backbone"), c[0], c[1], 2); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestDeletesLogTheSameEntries: a delete logs the same binlog on every
// run. On ten fresh stores, each holding a POP cluster and a backbone
// mesh with bundles, RemoveBackboneRouter and DecommissionCluster must
// write entry for entry the same log: the same cascaded deletes, in the
// same order, and the same SET NULL updates.
func TestDeletesLogTheSameEntries(t *testing.T) {
	var want string
	for run := 0; run < 10; run++ {
		d := deleteWorld(t)
		db := d.store.DB()
		var log strings.Builder
		seq := db.Seq()
		if _, err := d.RemoveBackboneRouter(testCtx("backbone"), "bb2"); err != nil {
			t.Fatal(err)
		}
		if _, err := d.DecommissionCluster(testCtx("pop"), "pop1-c1"); err != nil {
			t.Fatal(err)
		}
		writeEntries(&log, db.EntriesSince(seq))
		if run == 0 {
			want = log.String()
			continue
		}
		if got := log.String(); got != want {
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("run %d logged a different delete at entry %d:\n got: %s\nwant: %s", run, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("run %d logged %d entries, run 0 %d", run, len(gl), len(wl))
		}
	}
}

// TestDeletesUpdateNoRowTheyRemove: a delete's transaction logs no UPDATE
// of a row it also deletes — a SET NULL on a row that a later cascade of
// the same delete removes is never written. RemoveBackboneRouter and
// DecommissionCluster each log one transaction that deletes rows.
func TestDeletesUpdateNoRowTheyRemove(t *testing.T) {
	d := deleteWorld(t)
	db := d.store.DB()
	for name, op := range map[string]func() (ChangeResult, error){
		"RemoveBackboneRouter": func() (ChangeResult, error) { return d.RemoveBackboneRouter(testCtx("backbone"), "bb2") },
		"DecommissionCluster":  func() (ChangeResult, error) { return d.DecommissionCluster(testCtx("pop"), "pop1-c1") },
	} {
		seq := db.Seq()
		if _, err := op(); err != nil {
			t.Fatal(err)
		}
		type row struct {
			table string
			id    int64
		}
		deleted := map[uint64]map[row]bool{} // by transaction
		entries := db.EntriesSince(seq)
		for _, e := range entries {
			if e.Op == relstore.OpDelete {
				if deleted[e.TxID] == nil {
					deleted[e.TxID] = map[row]bool{}
				}
				deleted[e.TxID][row{e.Table, e.RowID}] = true
			}
		}
		if len(deleted) == 0 {
			t.Fatalf("%s deleted nothing", name)
		}
		updates := 0
		for _, e := range entries {
			if e.Op != relstore.OpUpdate {
				continue
			}
			updates++
			if deleted[e.TxID][row{e.Table, e.RowID}] {
				t.Errorf("%s: transaction %d updates %s %d %s and deletes it", name, e.TxID, e.Table, e.RowID, formatValues(e.Values))
			}
		}
		t.Logf("%s: %d entries, %d updates", name, len(entries), updates)
	}
}
