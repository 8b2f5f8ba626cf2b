package relstore

import (
	"fmt"
	"testing"
)

// secondaryDB builds a schema with a non-unique Indexed column.
func secondaryDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB("master.sec", nil)
	if err := db.CreateTable(TableDef{
		Name: "device",
		Columns: []Column{
			{Name: "name", Type: ColString, Unique: true},
			{Name: "role", Type: ColString, Indexed: true},
			{Name: "note", Type: ColString, Nullable: true},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func seedRoles(t testing.TB, db *DB, roles ...string) []int64 {
	t.Helper()
	ids := make([]int64, len(roles))
	err := db.WithTx(func(tx *Tx) error {
		for i, role := range roles {
			var err error
			ids[i], err = tx.Insert("device", map[string]any{
				"name": fmt.Sprintf("d%02d", i), "role": role})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func wantIDs(t *testing.T, got []int64, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSecondaryIndexLookup(t *testing.T) {
	db := secondaryDB(t)
	ids := seedRoles(t, db, "psw", "pr", "psw", "tor")
	got, err := db.LookupIndexed("device", "role", "psw")
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, got, ids[0], ids[2])
	got, _ = db.LookupIndexed("device", "role", "bb")
	wantIDs(t, got) // no matches: empty, not an error
	if _, err := db.LookupIndexed("device", "name", "d00"); err == nil {
		t.Error("unique-but-not-Indexed column should not satisfy LookupIndexed")
	}
	if _, err := db.LookupIndexed("device", "note", "x"); err == nil {
		t.Error("plain column should not satisfy LookupIndexed")
	}
}

func TestSecondaryIndexFollowsUpdateAndDelete(t *testing.T) {
	db := secondaryDB(t)
	ids := seedRoles(t, db, "psw", "psw")
	db.WithTx(func(tx *Tx) error {
		return tx.Update("device", ids[0], map[string]any{"role": "pr"})
	})
	got, _ := db.LookupIndexed("device", "role", "psw")
	wantIDs(t, got, ids[1])
	got, _ = db.LookupIndexed("device", "role", "pr")
	wantIDs(t, got, ids[0])
	db.WithTx(func(tx *Tx) error { return tx.Delete("device", ids[1]) })
	got, _ = db.LookupIndexed("device", "role", "psw")
	wantIDs(t, got)
}

func TestSecondaryIndexRollback(t *testing.T) {
	db := secondaryDB(t)
	ids := seedRoles(t, db, "psw", "pr")
	tx, _ := db.Begin()
	tx.Insert("device", map[string]any{"name": "ghost", "role": "psw"})
	tx.Update("device", ids[0], map[string]any{"role": "tor"})
	tx.Delete("device", ids[1])
	// Uncommitted state is visible inside the tx via its own lookups.
	v, _ := tx.View()
	in, err := v.LookupIndexed("device", "role", "psw")
	if err != nil || len(in) != 1 {
		t.Fatalf("in-tx lookup: %v %v", in, err)
	}
	tx.Rollback()
	got, _ := db.LookupIndexed("device", "role", "psw")
	wantIDs(t, got, ids[0])
	got, _ = db.LookupIndexed("device", "role", "pr")
	wantIDs(t, got, ids[1])
	got, _ = db.LookupIndexed("device", "role", "tor")
	wantIDs(t, got)
}

func TestSecondaryIndexReplicates(t *testing.T) {
	db := secondaryDB(t)
	rep := NewReplica(db, "replica.sec")
	ids := seedRoles(t, db, "psw", "pr", "psw")
	db.WithTx(func(tx *Tx) error {
		return tx.Update("device", ids[1], map[string]any{"role": "psw"})
	})
	db.WithTx(func(tx *Tx) error { return tx.Delete("device", ids[0]) })
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	got, err := rep.DB().LookupIndexed("device", "role", "psw")
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, got, ids[1], ids[2])
}

func TestSecondaryIndexNullNotIndexed(t *testing.T) {
	db := NewDB("m", nil)
	if err := db.CreateTable(TableDef{
		Name: "t",
		Columns: []Column{
			{Name: "k", Type: ColString, Nullable: true, Indexed: true},
		},
	}); err != nil {
		t.Fatal(err)
	}
	var id int64
	db.WithTx(func(tx *Tx) error {
		var err error
		id, err = tx.Insert("t", map[string]any{})
		return err
	})
	// NULL is never an index key; setting and clearing the value moves the
	// row in and out of the index.
	db.WithTx(func(tx *Tx) error { return tx.Update("t", id, map[string]any{"k": "x"}) })
	got, _ := db.LookupIndexed("t", "k", "x")
	wantIDs(t, got, id)
	db.WithTx(func(tx *Tx) error { return tx.Update("t", id, map[string]any{"k": nil}) })
	got, _ = db.LookupIndexed("t", "k", "x")
	wantIDs(t, got)
}

func TestSecondaryIndexIntNormalization(t *testing.T) {
	db := NewDB("m", nil)
	if err := db.CreateTable(TableDef{
		Name:    "t",
		Columns: []Column{{Name: "n", Type: ColInt, Indexed: true}},
	}); err != nil {
		t.Fatal(err)
	}
	var id int64
	db.WithTx(func(tx *Tx) error {
		var err error
		id, err = tx.Insert("t", map[string]any{"n": 7}) // plain int: stored as int64
		return err
	})
	for _, v := range []any{7, int32(7), int64(7)} {
		got, err := db.LookupIndexed("t", "n", v)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs(t, got, id)
	}
}

func TestAlterAddIndexedColumn(t *testing.T) {
	db := secondaryDB(t)
	ids := seedRoles(t, db, "psw")
	if err := db.AlterAddColumn("device", Column{
		Name: "state", Type: ColString, Nullable: true, Indexed: true,
	}); err != nil {
		t.Fatal(err)
	}
	// Pre-existing rows read NULL and stay out of the index.
	got, err := db.LookupIndexed("device", "state", "drained")
	if err != nil {
		t.Fatal(err)
	}
	wantIDs(t, got)
	db.WithTx(func(tx *Tx) error {
		return tx.Update("device", ids[0], map[string]any{"state": "drained"})
	})
	got, _ = db.LookupIndexed("device", "state", "drained")
	wantIDs(t, got, ids[0])
}
