package relstore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestQuickReferentialIntegrity drives random operation sequences against
// the FK-linked schema and verifies the core invariant after every
// transaction: no row ever references a nonexistent row, regardless of
// cascades, SET NULLs, rollbacks, and interleaving.
func TestQuickReferentialIntegrity(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := newTestDB(t)
		var devices, linecards, pifs, circuits []int64
		pick := func(xs []int64) (int64, bool) {
			if len(xs) == 0 {
				return 0, false
			}
			return xs[r.Intn(len(xs))], true
		}
		remove := func(xs []int64, id int64) []int64 {
			out := xs[:0]
			for _, x := range xs {
				if x != id {
					out = append(out, x)
				}
			}
			return out
		}
		for step := 0; step < 200; step++ {
			commit := r.Intn(10) > 0 // 10% of transactions roll back
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			var created struct {
				table string
				id    int64
			}
			var deleted struct {
				table string
				id    int64
			}
			op := r.Intn(8)
			opErr := func() error {
				switch op {
				case 0, 1: // insert device
					id, err := tx.Insert("device", map[string]any{
						"name": randName(r), "role": "psw"})
					created.table, created.id = "device", id
					return err
				case 2: // insert linecard
					dev, ok := pick(devices)
					if !ok {
						return nil
					}
					id, err := tx.Insert("linecard", map[string]any{"slot": int64(r.Intn(8)), "device_id": dev})
					created.table, created.id = "linecard", id
					return err
				case 3: // insert pif
					lc, ok := pick(linecards)
					if !ok {
						return nil
					}
					id, err := tx.Insert("pif", map[string]any{"name": randName(r), "linecard_id": lc})
					created.table, created.id = "pif", id
					return err
				case 4: // insert circuit
					a, ok1 := pick(pifs)
					z, ok2 := pick(pifs)
					if !ok1 || !ok2 {
						return nil
					}
					id, err := tx.Insert("circuit", map[string]any{
						"a_pif_id": a, "z_pif_id": z, "status": "up"})
					created.table, created.id = "circuit", id
					return err
				case 5: // delete device (cascades linecards+pifs, nulls circuits)
					dev, ok := pick(devices)
					if !ok {
						return nil
					}
					deleted.table, deleted.id = "device", dev
					return tx.Delete("device", dev)
				case 6: // delete circuit
					c, ok := pick(circuits)
					if !ok {
						return nil
					}
					deleted.table, deleted.id = "circuit", c
					return tx.Delete("circuit", c)
				case 7: // rename device
					dev, ok := pick(devices)
					if !ok {
						return nil
					}
					return tx.Update("device", dev, map[string]any{"name": randName(r)})
				}
				return nil
			}()
			if opErr != nil {
				// Unique collisions etc.: roll back and continue.
				tx.Rollback()
				continue
			}
			if !commit {
				tx.Rollback()
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			// Track shadow state only on commit.
			if created.id != 0 {
				switch created.table {
				case "device":
					devices = append(devices, created.id)
				case "linecard":
					linecards = append(linecards, created.id)
				case "pif":
					pifs = append(pifs, created.id)
				case "circuit":
					circuits = append(circuits, created.id)
				}
			}
			if deleted.id != 0 {
				switch deleted.table {
				case "device":
					devices = remove(devices, deleted.id)
					// Cascades: rebuild linecard/pif shadows from the db.
					linecards = idsOf(t, db, "linecard")
					pifs = idsOf(t, db, "pif")
					circuits = idsOf(t, db, "circuit")
				case "circuit":
					circuits = remove(circuits, deleted.id)
				}
			}
			assertIntegrity(t, db, seed, step)
		}
	}
}

func idsOf(t *testing.T, db *DB, table string) []int64 {
	t.Helper()
	rows, err := viewSelect(db, table, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r.ID
	}
	return out
}

// assertIntegrity checks that every FK value points at a live row.
func assertIntegrity(t *testing.T, db *DB, seed int64, step int) {
	t.Helper()
	exists := map[string]map[int64]bool{}
	for _, table := range []string{"device", "linecard", "pif", "circuit"} {
		exists[table] = map[int64]bool{}
		rows, err := viewSelect(db, table, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			exists[table][r.ID] = true
		}
	}
	check := func(table, col, ref string) {
		rows, _ := viewSelect(db, table, nil)
		for _, r := range rows {
			v := r.Get(col)
			if v == nil {
				continue
			}
			if !exists[ref][v.(int64)] {
				t.Fatalf("seed %d step %d: %s %d has dangling %s=%d -> %s",
					seed, step, table, r.ID, col, v, ref)
			}
		}
	}
	check("linecard", "device_id", "device")
	check("pif", "linecard_id", "linecard")
	check("circuit", "a_pif_id", "pif")
	check("circuit", "z_pif_id", "pif")
}

func randName(r *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, 8)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

// TestDeleteNullsOnlyRowsItKeeps: a delete clears a SET NULL key on a row
// it leaves in place, and logs no UPDATE for a row it removes through a
// cascade, even when that row's SET NULL key comes first in the referrer
// order. A rollback brings every row back as it was.
func TestDeleteNullsOnlyRowsItKeeps(t *testing.T) {
	db := NewDB("delete-order", nil)
	for _, def := range []TableDef{
		{Name: "parent", Columns: []Column{{Name: "name", Type: ColString}}},
		{Name: "child", Columns: []Column{{Name: "parent_id", Type: ColInt}},
			ForeignKeys: []ForeignKey{{Column: "parent_id", RefTable: "parent", OnDelete: Cascade}}},
		// "a_leaf" sorts before "child": its SET NULL key on parent is
		// applied before the cascade that reaches its rows through child.
		{Name: "a_leaf", Columns: []Column{{Name: "parent_id", Type: ColInt, Nullable: true}, {Name: "child_id", Type: ColInt, Nullable: true}},
			ForeignKeys: []ForeignKey{
				{Column: "parent_id", RefTable: "parent", OnDelete: SetNull},
				{Column: "child_id", RefTable: "child", OnDelete: Cascade},
			}},
	} {
		if err := db.CreateTable(def); err != nil {
			t.Fatal(err)
		}
	}
	var p, c, doomed, kept int64
	if err := db.WithTx(func(tx *Tx) (err error) {
		if p, err = tx.Insert("parent", map[string]any{"name": "p"}); err != nil {
			return err
		}
		if c, err = tx.Insert("child", map[string]any{"parent_id": p}); err != nil {
			return err
		}
		if doomed, err = tx.Insert("a_leaf", map[string]any{"parent_id": p, "child_id": c}); err != nil {
			return err
		}
		kept, err = tx.Insert("a_leaf", map[string]any{"parent_id": p})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before := db.Seq()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("parent", p); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{doomed, kept} {
		if row, err := viewGet(db, "a_leaf", id); err != nil || row.Get("parent_id") != p {
			t.Fatalf("after a rollback a_leaf %d = %v, %v; want it back, parent_id %d", id, row, err, p)
		}
	}
	if err := db.WithTx(func(tx *Tx) error { return tx.Delete("parent", p) }); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range db.EntriesSince(before) {
		got = append(got, fmt.Sprintf("%s %s %d %v", e.Op, e.Table, e.RowID, e.Values))
	}
	want := []string{
		fmt.Sprintf("UPDATE a_leaf %d map[parent_id:<nil>]", kept),
		fmt.Sprintf("DELETE a_leaf %d map[]", doomed),
		fmt.Sprintf("DELETE child %d map[]", c),
		fmt.Sprintf("DELETE parent %d map[]", p),
	}
	if !slices.Equal(got, want) {
		t.Errorf("the delete logged\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if row, err := viewGet(db, "a_leaf", kept); err != nil || row.Get("parent_id") != nil {
		t.Errorf("a_leaf %d = %v, %v; want it kept with parent_id NULL", kept, row, err)
	}
}
