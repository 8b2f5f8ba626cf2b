package configgen

import (
	"fmt"
	"maps"
	"reflect"
	"sort"
	"testing"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/relstore"
	"github.com/robotron-net/robotron/internal/thriftlite"
)

// addMesh designs routers backbone routers in one site — an iBGP full
// mesh, each router a peer of every other — joined in a ring by
// single-circuit bundles, and returns their names.
func addMesh(tb testing.TB, d *design.Designer, routers int) []string {
	tb.Helper()
	if _, err := d.EnsureSite("bb-site", "backbone", "nam"); err != nil {
		tb.Fatal(err)
	}
	roles := []string{"pr", "bb", "dr"}
	names := make([]string, routers)
	for i := range names {
		names[i] = fmt.Sprintf("bb%02d", i+1)
		if _, err := d.AddBackboneRouter(testCtx("backbone"), names[i], "bb-site", "Backbone_Vendor2", roles[i%len(roles)]); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range names {
		if _, err := d.AddBackboneCircuit(testCtx("backbone"), names[i], names[(i+1)%routers], 1); err != nil {
			tb.Fatal(err)
		}
	}
	return names
}

// storedRows copies every row of every table of db.
func storedRows(t *testing.T, db *relstore.DB) map[string][]relstore.Row {
	t.Helper()
	out := map[string][]relstore.Row{}
	tables := db.Tables()
	if err := db.View(func(v relstore.View) error {
		for _, table := range tables {
			rows, err := v.Select(table, nil)
			if err != nil {
				return err
			}
			for i := range rows {
				rows[i].Values = maps.Clone(rows[i].Values)
			}
			out[table] = rows
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDeriveLeavesStoredRowsUntouched: a derivation reads FBNet's stored
// rows in place (GetByID, FindOne) and must never write one. Every row is
// copied, a cold GenerateMany runs over a DCGen3 site, a POP and a
// backbone mesh, and every row must still equal its copy — and the
// configs must be byte-equal to those of a second cold run after
// ResetMemo. Run under -race (make store).
func TestDeriveLeavesStoredRowsUntouched(t *testing.T) {
	d, g := newPOP(t)
	if _, err := d.EnsureSite("dc1", "dc", "nam"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.BuildCluster(testCtx("dc"), "dc1", "dc1-c1", design.DCGen3(2)); err != nil {
		t.Fatal(err)
	}
	addMesh(t, d, 8)
	db := g.store.DB()
	before := storedRows(t, db)
	var names []string
	for _, r := range before["Device"] {
		names = append(names, r.Values["name"].(string))
	}
	sort.Strings(names)

	first, err := g.GenerateMany(names, 4)
	if err != nil {
		t.Fatal(err)
	}
	g.ResetMemo()
	second, err := g.GenerateMany(names, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(names) || !reflect.DeepEqual(first, second) {
		t.Fatalf("a cold run after ResetMemo generated other configs (%d and %d of %d devices)", len(first), len(second), len(names))
	}
	after := storedRows(t, db)
	for table, rows := range before {
		if !reflect.DeepEqual(rows, after[table]) {
			t.Errorf("generation changed stored %s rows", table)
		}
	}
}

// TestDeriveAllocGuard pins the allocation count of one cold derivation
// plus its Thrift encoding for a router of a 49-router iBGP mesh: 48 peers,
// each one session row and one peer device row read. Reading the stored rows in
// place allocates nothing per row, and each struct type's plan is worked
// out once per process, not per value encoded; copying every row read
// (GetByID) or re-planning every struct (tag parsing, a map and a sort)
// costs several allocations per peer and trips the bound.
func TestDeriveAllocGuard(t *testing.T) {
	d, g := newEmpty(t)
	addMesh(t, d, 49)
	data, err := g.DeriveDeviceData("bb01")
	if err != nil {
		t.Fatal(err)
	}
	if len(data.BGPNeighbors) != 48 {
		t.Fatalf("bb01 has %d BGP neighbors, want one iBGP session to each of 48 peers", len(data.BGPNeighbors))
	}
	if _, err := thriftlite.Marshal(data); err != nil { // warm the plans
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		data, err := g.derive("bb01")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := thriftlite.Marshal(data); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 107 allocs (159 while a derive recorded its read set, 1,510
	// when every row read was copied and every struct re-planned); 130
	// leaves a quarter of headroom for the data's slices, and still catches
	// a per-row copy or a per-value plan.
	if allocs > 130 {
		t.Errorf("a cold mesh-router derive and marshal costs %.0f allocs, want <= 130", allocs)
	}
}

// BenchmarkGenerateMeshRouter is a cold GenerateDevice of one router of a
// 48-router iBGP mesh: derive (47 peers), marshal, round-trip and render.
func BenchmarkGenerateMeshRouter(b *testing.B) {
	d, g := newEmpty(b)
	addMesh(b, d, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ResetMemo()
		if _, err := g.GenerateDevice("bb01"); err != nil {
			b.Fatal(err)
		}
	}
}
