package relstore

import "fmt"

// View is one pinned read of the published table set: every read through
// it sees the same epoch, so a lookup and the rows it leads to are
// consistent with each other, as of one committed binlog sequence (Seq).
//
// Rows come out as the stored maps themselves, not copies. A stored row is
// never written (the row rule, epoch.go), so such a map stays valid after
// the view ends; a caller may keep it but must never write to it. Id lists
// are copies.
//
// A View is valid only inside the function DB.View hands it to; one from
// Tx.View reads an open transaction's tables instead, and only while it
// is open.
type View struct {
	seq    uint64
	tables map[string]*table
}

// view reads the epoch; the caller holds its pin while the view is used.
func (e *epoch) view() View { return View{seq: e.seq, tables: e.tables} }

// View runs fn over the published epoch, pinned until fn returns —
// whatever fn returns, or if it panics. A commit that replaces the epoch
// waits for the pin while holding the write lock, so fn, and any Select
// predicate it passes, must not call back into the DB.
func (db *DB) View(fn func(View) error) error {
	if db.downFlag.Load() {
		return fmt.Errorf("relstore: %s is down", db.name)
	}
	e := db.readEpoch()
	defer e.release()
	return fn(e.view())
}

// Seq returns the binlog sequence of the last transaction the view
// reflects.
func (v View) Seq() uint64 { return v.seq }

// TableSeq returns the binlog sequence of the last entry that touched the
// named table, as of this view: its CREATE, an ALTER, or a committed row
// write. Within one DB every change to the table moves it, so a reader
// that saw the table at some seq knows it unchanged while the seq stays.
func (v View) TableSeq(tableName string) (uint64, error) {
	t, err := tableIn(v.tables, tableName)
	if err != nil {
		return 0, err
	}
	return t.seq, nil
}

// Get returns one row by primary key; its Values are the stored map.
func (v View) Get(tableName string, id int64) (Row, error) {
	t, err := tableIn(v.tables, tableName)
	if err != nil {
		return Row{}, err
	}
	return t.get(id)
}

// Select returns the rows matching pred (nil matches all) in ascending id
// order; their Values are the stored maps.
func (v View) Select(tableName string, pred func(Row) bool) ([]Row, error) {
	t, err := tableIn(v.tables, tableName)
	if err != nil {
		return nil, err
	}
	return t.scan(pred), nil
}

// LookupUnique finds a row id by a unique column value.
func (v View) LookupUnique(tableName, col string, val any) (int64, bool, error) {
	t, err := tableIn(v.tables, tableName)
	if err != nil {
		return 0, false, err
	}
	return t.lookupUnique(col, val)
}

// LookupIndexed returns the ids of rows whose Indexed column equals val,
// in ascending id order.
func (v View) LookupIndexed(tableName, col string, val any) ([]int64, error) {
	t, err := tableIn(v.tables, tableName)
	if err != nil {
		return nil, err
	}
	return t.lookupIndexed(col, val)
}

// Referencing returns the ids of rows in tableName whose fkCol references
// refID, in ascending order.
func (v View) Referencing(tableName, fkCol string, refID int64) ([]int64, error) {
	t, err := tableIn(v.tables, tableName)
	if err != nil {
		return nil, err
	}
	return t.referencing(fkCol, refID)
}
