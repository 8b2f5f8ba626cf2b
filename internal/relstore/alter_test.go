package relstore

import (
	"strings"
	"testing"
)

func TestAlterAddColumn(t *testing.T) {
	db := newTestDB(t)
	id := insertDevice(t, db, "psw1")
	if err := db.AlterAddColumn("device", Column{Name: "os_version", Type: ColString, Nullable: true}); err != nil {
		t.Fatal(err)
	}
	// Existing row reads NULL.
	row, _ := viewGet(db, "device", id)
	if row.Get("os_version") != nil {
		t.Errorf("existing row new column = %v", row.Get("os_version"))
	}
	// New column is writable and participates in inserts.
	if err := db.WithTx(func(tx *Tx) error {
		if err := tx.Update("device", id, map[string]any{"os_version": "7.3.2"}); err != nil {
			return err
		}
		_, err := tx.Insert("device", map[string]any{"name": "psw2", "role": "psw", "os_version": "17.4"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	row, _ = viewGet(db, "device", id)
	if row.String("os_version") != "7.3.2" {
		t.Errorf("updated value = %q", row.String("os_version"))
	}
}

func TestAlterAddColumnValidation(t *testing.T) {
	db := newTestDB(t)
	cases := []struct {
		table  string
		col    Column
		errSub string
	}{
		{"nope", Column{Name: "x", Type: ColString, Nullable: true}, "no such table"},
		{"device", Column{Name: "name", Type: ColString, Nullable: true}, "already has column"},
		{"device", Column{Name: "id", Type: ColInt, Nullable: true}, "invalid new column"},
		{"device", Column{Name: "", Type: ColInt, Nullable: true}, "invalid new column"},
		{"device", Column{Name: "x", Type: ColString}, "must be nullable"},
	}
	for _, c := range cases {
		err := db.AlterAddColumn(c.table, c.col)
		if err == nil || !strings.Contains(err.Error(), c.errSub) {
			t.Errorf("AlterAddColumn(%s, %s): want %q, got %v", c.table, c.col.Name, c.errSub, err)
		}
	}
}

func TestAlterAddUniqueColumn(t *testing.T) {
	db := newTestDB(t)
	insertDevice(t, db, "psw1")
	if err := db.AlterAddColumn("device", Column{Name: "serial", Type: ColString, Nullable: true, Unique: true}); err != nil {
		t.Fatal(err)
	}
	var id2 int64
	db.WithTx(func(tx *Tx) error {
		id2, _ = tx.Insert("device", map[string]any{"name": "psw2", "role": "psw", "serial": "SN1"})
		return nil
	})
	err := db.WithTx(func(tx *Tx) error {
		_, err := tx.Insert("device", map[string]any{"name": "psw3", "role": "psw", "serial": "SN1"})
		return err
	})
	if err == nil {
		t.Error("duplicate value in evolved unique column accepted")
	}
	got, found, err := db.LookupUnique("device", "serial", "SN1")
	if err != nil || !found || got != id2 {
		t.Errorf("LookupUnique on evolved column = %d %v %v", got, found, err)
	}
}

func TestAlterReplicates(t *testing.T) {
	db := newTestDB(t)
	rep := NewReplica(db, "r")
	insertDevice(t, db, "psw1")
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if err := db.AlterAddColumn("device", Column{Name: "os_version", Type: ColString, Nullable: true}); err != nil {
		t.Fatal(err)
	}
	db.WithTx(func(tx *Tx) error {
		_, err := tx.Insert("device", map[string]any{"name": "psw2", "role": "psw", "os_version": "x"})
		return err
	})
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	def, err := rep.DB().Def("device")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := def.column("os_version"); !ok {
		t.Error("replica schema missing evolved column")
	}
	rows, _ := viewSelect(rep.DB(), "device", func(r Row) bool { return r.String("os_version") == "x" })
	if len(rows) != 1 {
		t.Errorf("replica rows with evolved value = %d", len(rows))
	}
}
