package relstore

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/robotron-net/robotron/internal/telemetry"
)

// viewGet and viewSelect read one row, or the rows pred matches, through
// one View of db: the stored maps, which a test never writes.
func viewGet(db *DB, table string, id int64) (r Row, err error) {
	err = db.View(func(v View) error {
		r, err = v.Get(table, id)
		return err
	})
	return r, err
}

func viewSelect(db *DB, table string, pred func(Row) bool) (rows []Row, err error) {
	err = db.View(func(v View) error {
		rows, err = v.Select(table, pred)
		return err
	})
	return rows, err
}

// newTestDB builds a small FBNet-like schema: device <- linecard <- pif,
// with a circuit referencing two pifs.
func newTestDB(t testing.TB) *DB {
	t.Helper()
	return newTestDBOn(t, nil)
}

// newTestDBOn is newTestDB counting into reg.
func newTestDBOn(t testing.TB, reg *telemetry.Registry) *DB {
	t.Helper()
	db := NewDB("master.test", reg)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.CreateTable(TableDef{
		Name: "device",
		Columns: []Column{
			{Name: "name", Type: ColString, Unique: true},
			{Name: "role", Type: ColString},
			{Name: "drained", Type: ColBool, Nullable: true},
		},
	}))
	must(db.CreateTable(TableDef{
		Name: "linecard",
		Columns: []Column{
			{Name: "slot", Type: ColInt},
			{Name: "device_id", Type: ColInt},
		},
		ForeignKeys: []ForeignKey{{Column: "device_id", RefTable: "device", OnDelete: Cascade}},
	}))
	must(db.CreateTable(TableDef{
		Name: "pif",
		Columns: []Column{
			{Name: "name", Type: ColString},
			{Name: "linecard_id", Type: ColInt},
			{Name: "agg_id", Type: ColInt, Nullable: true},
		},
		ForeignKeys: []ForeignKey{
			{Column: "linecard_id", RefTable: "linecard", OnDelete: Cascade},
		},
	}))
	must(db.CreateTable(TableDef{
		Name: "circuit",
		Columns: []Column{
			{Name: "a_pif_id", Type: ColInt, Nullable: true},
			{Name: "z_pif_id", Type: ColInt, Nullable: true},
			{Name: "status", Type: ColString},
		},
		ForeignKeys: []ForeignKey{
			{Column: "a_pif_id", RefTable: "pif", OnDelete: SetNull},
			{Column: "z_pif_id", RefTable: "pif", OnDelete: SetNull},
		},
	}))
	return db
}

func insertDevice(t testing.TB, db *DB, name string) int64 {
	t.Helper()
	var id int64
	err := db.WithTx(func(tx *Tx) error {
		var err error
		id, err = tx.Insert("device", map[string]any{"name": name, "role": "psw"})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestInsertAndGet(t *testing.T) {
	db := newTestDB(t)
	id := insertDevice(t, db, "psw1.pop1")
	row, err := viewGet(db, "device", id)
	if err != nil {
		t.Fatal(err)
	}
	if row.String("name") != "psw1.pop1" || row.String("role") != "psw" {
		t.Errorf("row = %+v", row)
	}
	if row.Get("drained") != nil {
		t.Errorf("nullable unset column should be nil, got %v", row.Get("drained"))
	}
}

func TestInsertValidations(t *testing.T) {
	db := newTestDB(t)
	insertDevice(t, db, "psw1")
	cases := []struct {
		name   string
		table  string
		values map[string]any
		errSub string
	}{
		{"duplicate unique", "device", map[string]any{"name": "psw1", "role": "psw"}, "duplicate"},
		{"missing non-nullable", "device", map[string]any{"name": "x"}, "NULL not allowed"},
		{"unknown column", "device", map[string]any{"name": "y", "role": "psw", "bogus": 1}, "unknown column"},
		{"type mismatch", "device", map[string]any{"name": 5, "role": "psw"}, "want string"},
		{"fk violation", "linecard", map[string]any{"slot": 1, "device_id": 999}, "foreign key violation"},
		{"no such table", "nope", map[string]any{}, "no such table"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := db.WithTx(func(tx *Tx) error {
				_, err := tx.Insert(c.table, c.values)
				return err
			})
			if err == nil || !strings.Contains(err.Error(), c.errSub) {
				t.Errorf("want error containing %q, got %v", c.errSub, err)
			}
		})
	}
}

func TestColumnValidator(t *testing.T) {
	db := NewDB("m", nil)
	err := db.CreateTable(TableDef{
		Name: "prefix",
		Columns: []Column{{
			Name: "v6", Type: ColString,
			Validate: func(v any) error {
				if !strings.Contains(v.(string), ":") {
					return fmt.Errorf("%q is not an IPv6 prefix", v)
				}
				return nil
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WithTx(func(tx *Tx) error {
		_, err := tx.Insert("prefix", map[string]any{"v6": "10.0.0.0/8"})
		return err
	}); err == nil {
		t.Error("validator should reject v4 value")
	}
	if err := db.WithTx(func(tx *Tx) error {
		_, err := tx.Insert("prefix", map[string]any{"v6": "2401:db00::/32"})
		return err
	}); err != nil {
		t.Errorf("validator rejected valid value: %v", err)
	}
}

func TestUpdate(t *testing.T) {
	db := newTestDB(t)
	id := insertDevice(t, db, "psw1")
	if err := db.WithTx(func(tx *Tx) error {
		return tx.Update("device", id, map[string]any{"role": "pr", "drained": true})
	}); err != nil {
		t.Fatal(err)
	}
	row, _ := viewGet(db, "device", id)
	if row.String("role") != "pr" || !row.Bool("drained") {
		t.Errorf("update not applied: %+v", row)
	}
}

func TestUpdateUniqueIndexMoves(t *testing.T) {
	db := newTestDB(t)
	id := insertDevice(t, db, "old-name")
	if err := db.WithTx(func(tx *Tx) error {
		return tx.Update("device", id, map[string]any{"name": "new-name"})
	}); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := db.LookupUnique("device", "name", "old-name"); found {
		t.Error("old unique value still indexed")
	}
	got, found, _ := db.LookupUnique("device", "name", "new-name")
	if !found || got != id {
		t.Errorf("new unique value lookup = %d, %v", got, found)
	}
	// The freed value is reusable.
	insertDevice(t, db, "old-name")
}

func TestDeleteRestrict(t *testing.T) {
	db := NewDB("m", nil)
	if err := db.CreateTable(TableDef{Name: "a", Columns: []Column{{Name: "x", Type: ColInt}}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(TableDef{
		Name:        "b",
		Columns:     []Column{{Name: "a_id", Type: ColInt}},
		ForeignKeys: []ForeignKey{{Column: "a_id", RefTable: "a", OnDelete: Restrict}},
	}); err != nil {
		t.Fatal(err)
	}
	var aID int64
	db.WithTx(func(tx *Tx) error {
		aID, _ = tx.Insert("a", map[string]any{"x": 1})
		_, err := tx.Insert("b", map[string]any{"a_id": aID})
		return err
	})
	err := db.WithTx(func(tx *Tx) error { return tx.Delete("a", aID) })
	if err == nil || !strings.Contains(err.Error(), "still referenced") {
		t.Errorf("restrict delete should fail, got %v", err)
	}
}

func TestDeleteCascadeAndSetNull(t *testing.T) {
	db := newTestDB(t)
	var devID, lcID, pifA, pifZ, cirID int64
	err := db.WithTx(func(tx *Tx) error {
		var err error
		if devID, err = tx.Insert("device", map[string]any{"name": "psw1", "role": "psw"}); err != nil {
			return err
		}
		if lcID, err = tx.Insert("linecard", map[string]any{"slot": 1, "device_id": devID}); err != nil {
			return err
		}
		if pifA, err = tx.Insert("pif", map[string]any{"name": "et1/1", "linecard_id": lcID}); err != nil {
			return err
		}
		if pifZ, err = tx.Insert("pif", map[string]any{"name": "et1/2", "linecard_id": lcID}); err != nil {
			return err
		}
		cirID, err = tx.Insert("circuit", map[string]any{"a_pif_id": pifA, "z_pif_id": pifZ, "status": "up"})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deleting the device cascades to linecard and pifs; circuit endpoints go NULL.
	if err := db.WithTx(func(tx *Tx) error { return tx.Delete("device", devID) }); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"linecard", "pif"} {
		if n, _ := db.Count(tbl); n != 0 {
			t.Errorf("%s not cascaded: %d rows remain", tbl, n)
		}
	}
	cir, err := viewGet(db, "circuit", cirID)
	if err != nil {
		t.Fatalf("circuit should survive: %v", err)
	}
	if cir.Get("a_pif_id") != nil || cir.Get("z_pif_id") != nil {
		t.Errorf("circuit endpoints should be NULL: %+v", cir)
	}
}

func TestRollbackRestoresEverything(t *testing.T) {
	db := newTestDB(t)
	devID := insertDevice(t, db, "psw1")
	var lcID int64
	db.WithTx(func(tx *Tx) error {
		lcID, _ = tx.Insert("linecard", map[string]any{"slot": 1, "device_id": devID})
		return nil
	})
	before, _ := viewSelect(db, "device", nil)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("device", map[string]any{"name": "psw2", "role": "psw"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("device", devID, map[string]any{"name": "renamed"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("device", devID); err != nil { // cascades to linecard
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	after, _ := viewSelect(db, "device", nil)
	if len(after) != len(before) {
		t.Fatalf("device count %d after rollback, want %d", len(after), len(before))
	}
	row, err := viewGet(db, "device", devID)
	if err != nil || row.String("name") != "psw1" {
		t.Errorf("device not restored: %+v, %v", row, err)
	}
	if _, err := viewGet(db, "linecard", lcID); err != nil {
		t.Errorf("cascaded delete not rolled back: %v", err)
	}
	// Unique index restored: the renamed value is free, the original is taken.
	if _, found, _ := db.LookupUnique("device", "name", "renamed"); found {
		t.Error("rolled-back rename still in unique index")
	}
	if id, found, _ := db.LookupUnique("device", "name", "psw1"); !found || id != devID {
		t.Error("original name missing from unique index after rollback")
	}
	if err := db.WithTx(func(tx *Tx) error {
		_, err := tx.Insert("device", map[string]any{"name": "psw1", "role": "x"})
		return err
	}); err == nil {
		t.Error("unique constraint lost after rollback")
	}
}

func TestTxDone(t *testing.T) {
	db := newTestDB(t)
	tx, _ := db.Begin()
	tx.Commit()
	if _, err := tx.Insert("device", nil); err != ErrTxDone {
		t.Errorf("want ErrTxDone, got %v", err)
	}
	if err := tx.Commit(); err != ErrTxDone {
		t.Errorf("double commit: want ErrTxDone, got %v", err)
	}
	if err := tx.Rollback(); err != ErrTxDone {
		t.Errorf("rollback after commit: want ErrTxDone, got %v", err)
	}
}

func TestTxIsolation(t *testing.T) {
	db := newTestDB(t)
	tx, _ := db.Begin()
	if _, err := tx.Insert("device", map[string]any{"name": "psw1", "role": "psw"}); err != nil {
		t.Fatal(err)
	}
	// A concurrent reader must not observe the uncommitted row; it blocks
	// until the transaction finishes (single-writer lock model).
	done := make(chan int)
	go func() {
		rows, _ := viewSelect(db, "device", nil)
		done <- len(rows)
	}()
	tx.Rollback()
	if n := <-done; n != 0 {
		t.Errorf("reader saw %d uncommitted rows", n)
	}
}

func TestConcurrentWriters(t *testing.T) {
	db := newTestDB(t)
	const n = 20
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := db.WithTx(func(tx *Tx) error {
				_, err := tx.Insert("device", map[string]any{"name": fmt.Sprintf("d%d", i), "role": "psw"})
				return err
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if cnt, _ := db.Count("device"); cnt != n {
		t.Errorf("count = %d, want %d", cnt, n)
	}
}

func TestReferencing(t *testing.T) {
	db := newTestDB(t)
	devID := insertDevice(t, db, "psw1")
	var lc1, lc2 int64
	db.WithTx(func(tx *Tx) error {
		lc1, _ = tx.Insert("linecard", map[string]any{"slot": 1, "device_id": devID})
		lc2, _ = tx.Insert("linecard", map[string]any{"slot": 2, "device_id": devID})
		return nil
	})
	ids, err := db.Referencing("linecard", "device_id", devID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != lc1 || ids[1] != lc2 {
		t.Errorf("Referencing = %v, want [%d %d]", ids, lc1, lc2)
	}
}

func TestServerDown(t *testing.T) {
	db := newTestDB(t)
	db.SetDown(true)
	if _, err := viewSelect(db, "device", nil); err == nil {
		t.Error("reads should fail on a down server")
	}
	if _, err := db.Begin(); err == nil {
		t.Error("writes should fail on a down server")
	}
	if db.Healthy() {
		t.Error("health check should fail")
	}
	db.SetDown(false)
	if !db.Healthy() {
		t.Error("health check should pass after recovery")
	}
	insertDevice(t, db, "psw1")
}

func TestBadSchemas(t *testing.T) {
	db := NewDB("m", nil)
	cases := []struct {
		name string
		def  TableDef
	}{
		{"empty table name", TableDef{Name: ""}},
		{"duplicate column", TableDef{Name: "t", Columns: []Column{{Name: "a", Type: ColString}, {Name: "a", Type: ColInt}}}},
		{"column named id", TableDef{Name: "t", Columns: []Column{{Name: "id", Type: ColInt}}}},
		{"fk on unknown column", TableDef{Name: "t", ForeignKeys: []ForeignKey{{Column: "x", RefTable: "t"}}}},
		{"fk to unknown table", TableDef{Name: "t", Columns: []Column{{Name: "x", Type: ColInt}},
			ForeignKeys: []ForeignKey{{Column: "x", RefTable: "missing"}}}},
		{"fk on non-int column", TableDef{Name: "t", Columns: []Column{{Name: "x", Type: ColString}},
			ForeignKeys: []ForeignKey{{Column: "x", RefTable: "t"}}}},
		{"setnull on non-nullable", TableDef{Name: "t", Columns: []Column{{Name: "x", Type: ColInt}},
			ForeignKeys: []ForeignKey{{Column: "x", RefTable: "t", OnDelete: SetNull}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := db.CreateTable(c.def); err == nil {
				t.Errorf("CreateTable(%+v) should fail", c.def)
			}
		})
	}
	if err := db.CreateTable(TableDef{Name: "ok", Columns: []Column{{Name: "x", Type: ColInt}}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(TableDef{Name: "ok"}); err == nil {
		t.Error("duplicate table should fail")
	}
}

// --- replication ---

func TestReplicationConverges(t *testing.T) {
	db := newTestDB(t)
	rep := NewReplica(db, "replica.test")
	devID := insertDevice(t, db, "psw1")
	db.WithTx(func(tx *Tx) error {
		lc, _ := tx.Insert("linecard", map[string]any{"slot": 1, "device_id": devID})
		_, err := tx.Insert("pif", map[string]any{"name": "et1/1", "linecard_id": lc})
		return err
	})
	if rep.Lag() == 0 {
		t.Error("replica should be behind before CatchUp")
	}
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if rep.Lag() != 0 {
		t.Errorf("lag after CatchUp = %d", rep.Lag())
	}
	row, err := viewGet(rep.DB(), "device", devID)
	if err != nil || row.String("name") != "psw1" {
		t.Errorf("replica row = %+v, %v", row, err)
	}
	// Updates and cascaded deletes replicate too.
	db.WithTx(func(tx *Tx) error { return tx.Update("device", devID, map[string]any{"role": "pr"}) })
	db.WithTx(func(tx *Tx) error { return tx.Delete("device", devID) })
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if n, _ := rep.DB().Count("device"); n != 0 {
		t.Errorf("replica device count = %d after delete", n)
	}
	if n, _ := rep.DB().Count("pif"); n != 0 {
		t.Errorf("replica pif count = %d after cascade", n)
	}
}

func TestReplicationPartialLag(t *testing.T) {
	db := newTestDB(t)
	rep := NewReplica(db, "r")
	insertDevice(t, db, "d1")
	insertDevice(t, db, "d2")
	// Schema entries: 4 CreateTable ops precede the inserts.
	if err := rep.ApplyN(5); err != nil {
		t.Fatal(err)
	}
	if n, _ := rep.DB().Count("device"); n != 1 {
		t.Errorf("after partial apply, replica sees %d devices, want 1", n)
	}
	if rep.Lag() != 1 {
		t.Errorf("lag = %d, want 1", rep.Lag())
	}
	rep.CatchUp()
	if n, _ := rep.DB().Count("device"); n != 2 {
		t.Errorf("after catchup, replica sees %d devices", n)
	}
}

func TestRolledBackTxDoesNotReplicate(t *testing.T) {
	db := newTestDB(t)
	rep := NewReplica(db, "r")
	tx, _ := db.Begin()
	tx.Insert("device", map[string]any{"name": "ghost", "role": "psw"})
	tx.Rollback()
	rep.CatchUp()
	if n, _ := rep.DB().Count("device"); n != 0 {
		t.Errorf("rolled-back insert replicated: %d rows", n)
	}
}

func TestPromoteContinuesAsMaster(t *testing.T) {
	db := newTestDB(t)
	rep := NewReplica(db, "r1")
	insertDevice(t, db, "d1")
	if err := rep.CatchUp(); err != nil {
		t.Fatal(err)
	}
	db.SetDown(true)
	newMaster := rep.Promote()
	// Writes continue on the promoted replica.
	if err := newMaster.WithTx(func(tx *Tx) error {
		_, err := tx.Insert("device", map[string]any{"name": "d2", "role": "psw"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n, _ := newMaster.Count("device"); n != 2 {
		t.Errorf("new master count = %d", n)
	}
	// A fresh replica of the new master converges from its binlog.
	rep2 := NewReplica(newMaster, "r2")
	if err := rep2.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if n, _ := rep2.DB().Count("device"); n != 2 {
		t.Errorf("replica of promoted master count = %d", n)
	}
}

// Property: for a random interleaving of committed and rolled-back
// transactions, the database state equals replaying only the committed
// ones, and a replica converges to the same state.
func TestQuickTransactionAtomicity(t *testing.T) {
	type op struct {
		Name   string
		Commit bool
	}
	f := func(ops []op) bool {
		db := NewDB("m", nil)
		if err := db.CreateTable(TableDef{Name: "d", Columns: []Column{{Name: "name", Type: ColString}}}); err != nil {
			return false
		}
		want := 0
		for _, o := range ops {
			tx, err := db.Begin()
			if err != nil {
				return false
			}
			if _, err := tx.Insert("d", map[string]any{"name": o.Name}); err != nil {
				tx.Rollback()
				continue
			}
			if o.Commit {
				tx.Commit()
				want++
			} else {
				tx.Rollback()
			}
		}
		n, _ := db.Count("d")
		if n != want {
			return false
		}
		rep := NewReplica(db, "r")
		if err := rep.CatchUp(); err != nil {
			return false
		}
		rn, _ := rep.DB().Count("d")
		return rn == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	db := newTestDB(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := db.WithTx(func(tx *Tx) error {
			_, err := tx.Insert("device", map[string]any{"name": fmt.Sprintf("d%d", i), "role": "psw"})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectScan(b *testing.B) {
	db := newTestDB(b)
	db.WithTx(func(tx *Tx) error {
		for i := 0; i < 5000; i++ {
			tx.Insert("device", map[string]any{"name": fmt.Sprintf("d%d", i), "role": "psw"})
		}
		return nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := viewSelect(db, "device", func(r Row) bool { return r.String("role") == "psw" })
		if err != nil || len(rows) != 5000 {
			b.Fatalf("%v %d", err, len(rows))
		}
	}
}
