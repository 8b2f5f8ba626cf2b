package relstore

import (
	"errors"
	"fmt"
	"maps"
)

// Op is the kind of a binlog entry.
type Op int

const (
	OpCreateTable Op = iota
	OpInsert
	OpUpdate
	OpDelete
	OpAlterAddColumn
)

func (o Op) String() string {
	switch o {
	case OpCreateTable:
		return "CREATE TABLE"
	case OpInsert:
		return "INSERT"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	case OpAlterAddColumn:
		return "ALTER TABLE ADD COLUMN"
	}
	return "unknown"
}

// LogEntry is one replicated binlog record.
type LogEntry struct {
	Seq uint64
	// TxID groups the entries of one transaction. Replication applies a
	// whole group atomically, so a replica (and anything promoted from
	// it) can never expose a torn transaction suffix. DDL statements
	// auto-commit as single-entry groups.
	TxID   uint64
	Op     Op
	Table  string
	RowID  int64
	Values map[string]any // full values for insert, changed columns for update
	Def    *TableDef      // for OpCreateTable
	Col    *Column        // for OpAlterAddColumn
}

// ErrTxDone is returned when using a transaction after Commit or Rollback.
var ErrTxDone = errors.New("relstore: transaction already finished")

// ErrNoRow is wrapped by View.Get when the requested primary key is absent.
var ErrNoRow = errors.New("no such row")

// undoEntry records how to reverse one applied operation.
type undoEntry struct {
	op     Op
	table  string
	rowID  int64
	values map[string]any // previous values (update) or full row (delete)
}

// Tx is a transaction. It holds the database write lock from Begin until
// Commit or Rollback, so its effects are invisible to concurrent readers
// until committed, and a rollback restores the exact prior state. This
// mirrors the paper's write API: "each write API is wrapped in a single
// database transaction, and therefore no partial state is visible to other
// applications before the API call completes" (§4.3.2).
type Tx struct {
	db      *DB
	tables  map[string]*table // the DB's spare table set, written in place
	undo    []undoEntry
	pending []LogEntry
	done    bool
}

// Begin starts a transaction on the spare table set, blocking other
// writers until it finishes. Returns an error if the server is down.
func (db *DB) Begin() (*Tx, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil, fmt.Errorf("relstore: %s is down", db.name)
	}
	return &Tx{db: db, tables: db.writeSet()}, nil
}

// WithTx runs fn inside a transaction, committing on nil return and rolling
// back (and returning fn's error) otherwise.
func (db *DB) WithTx(fn func(*Tx) error) error {
	tx, err := db.Begin()
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// Commit makes the transaction's effects durable and visible, appending
// them to the binlog for replication.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	db := tx.db
	if len(tx.pending) > 0 {
		db.txSeq++
		for i := range tx.pending {
			db.seq++
			tx.pending[i].Seq = db.seq
			tx.pending[i].TxID = db.txSeq
			tx.tables[tx.pending[i].Table].seq = db.seq
		}
		// The whole group lands in the binlog atomically (under binlogMu)
		// before the committed watermark advances, so every binlog prefix
		// a reader can observe is transaction-consistent; readers observe
		// the new state the moment the table set is swapped in — before
		// Commit returns, preserving read-your-writes.
		db.publish(tx.pending...)
	}
	db.mCommits.Inc()
	db.mu.Unlock()
	return nil
}

// Rollback reverses all operations performed in the transaction.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	db := tx.db
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := tx.undo[i]
		t := tx.tables[u.table]
		switch u.op {
		case OpInsert: // undo an insert: remove the row and hand its id back
			t.removeRow(u.rowID)
			t.nextID = u.rowID - 1
		case OpUpdate: // undo an update: restore previous column values
			t.applyUpdate(u.rowID, u.values)
		case OpDelete: // undo a delete: restore the row with its old id
			t.restoreRow(u.rowID, u.values)
		}
	}
	db.mRollbacks.Inc()
	db.mu.Unlock()
	return nil
}

func (tx *Tx) table(name string) (*table, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	return tableIn(tx.tables, name)
}

// View is the transaction's read API: a read of its tables as they stand,
// its own writes included. Like a DB's View it hands out the stored rows,
// not copies: a write never changes a stored row (an update installs a
// new map), so a row read through it stays as it was read, and a caller
// must never write one. It must not outlive the transaction, whose table
// set it reads. Its Seq and TableSeq are those of the last commit: the
// transaction's own writes have no sequence yet.
func (tx *Tx) View() (View, error) {
	if tx.done {
		return View{}, ErrTxDone
	}
	return View{seq: tx.db.seq, tables: tx.tables}, nil
}

// Insert adds a row. Unspecified nullable columns default to NULL; missing
// non-nullable columns are an error. Returns the new row id.
func (tx *Tx) Insert(tableName string, values map[string]any) (int64, error) {
	t, err := tx.table(tableName)
	if err != nil {
		return 0, err
	}
	norm := make(map[string]any, len(t.def.Columns))
	for k := range values {
		if _, ok := t.def.column(k); !ok {
			return 0, fmt.Errorf("relstore: %s: unknown column %q", tableName, k)
		}
	}
	for i := range t.def.Columns {
		c := &t.def.Columns[i]
		v, err := checkValue(tableName, c, values[c.Name])
		if err != nil {
			return 0, err
		}
		norm[c.Name] = v
	}
	if err := tx.checkConstraints(t, norm, 0); err != nil {
		return 0, err
	}
	t.nextID++
	id := t.nextID
	t.rows[id] = norm
	t.indexRow(id, norm)
	tx.undo = append(tx.undo, undoEntry{op: OpInsert, table: tableName, rowID: id})
	// norm is never written again: it is the row here, the entry's Values,
	// and through replay the row in the other table set and every replica.
	tx.pending = append(tx.pending, LogEntry{Op: OpInsert, Table: tableName, RowID: id, Values: norm})
	return id, nil
}

// Update changes the given columns of a row.
func (tx *Tx) Update(tableName string, id int64, changes map[string]any) error {
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	cur, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("relstore: %s: no row with id %d", tableName, id)
	}
	norm := make(map[string]any, len(changes))
	prev := make(map[string]any, len(changes))
	for k, v := range changes {
		c, ok := t.def.column(k)
		if !ok {
			return fmt.Errorf("relstore: %s: unknown column %q", tableName, k)
		}
		nv, err := checkValue(tableName, c, v)
		if err != nil {
			return err
		}
		norm[k] = nv
		prev[k] = cur[k]
	}
	if err := tx.checkChangedConstraints(t, norm, id); err != nil {
		return err
	}
	t.applyUpdate(id, norm)
	tx.undo = append(tx.undo, undoEntry{op: OpUpdate, table: tableName, rowID: id, values: prev})
	tx.pending = append(tx.pending, LogEntry{Op: OpUpdate, Table: tableName, RowID: id, Values: norm})
	return nil
}

// Delete removes a row, applying referential actions: RESTRICT blocks the
// delete, CASCADE deletes referencing rows recursively, SET NULL clears the
// referencing columns. Each table's referencing rows are resolved foreign
// key by foreign key in the table's fixed referrer order, and each key's
// rows in id order, so one delete logs the same entries on every run. A
// SET NULL is skipped on a row this delete goes on to remove through some
// cascade: the row's entries are its DELETE alone, never an UPDATE first.
func (tx *Tx) Delete(tableName string, id int64) error {
	t, err := tx.table(tableName)
	if err != nil {
		return err
	}
	if _, ok := t.rows[id]; !ok {
		return fmt.Errorf("relstore: %s: no row with id %d", tableName, id)
	}
	doomed := map[rowRef]bool{{tableName, id}: true}
	tx.cascades(t, id, doomed)
	return tx.delete(t, id, doomed)
}

// rowRef names one row of one table.
type rowRef struct {
	table string
	id    int64
}

// cascades adds to doomed every row that deleting row id of t removes
// through CASCADE keys, recursively. A SET NULL clears only columns of SET
// NULL keys, never one a cascade follows, so the rows a delete removes are
// fixed before it starts.
func (tx *Tx) cascades(t *table, id int64, doomed map[rowRef]bool) {
	for _, ref := range t.referrers {
		if ref.fk.OnDelete != Cascade {
			continue
		}
		rt := tx.tables[ref.table]
		for rid := range rt.refIndex[ref.fk.Column][id] {
			if r := (rowRef{ref.table, rid}); !doomed[r] {
				doomed[r] = true
				tx.cascades(rt, rid, doomed)
			}
		}
	}
}

// delete removes row id of t after applying its referential actions,
// skipping a SET NULL on any row in doomed.
func (tx *Tx) delete(t *table, id int64, doomed map[rowRef]bool) error {
	tableName := t.def.Name
	for _, ref := range t.referrers {
		fk := ref.fk
		refs := tx.tables[ref.table].refIndex[fk.Column][id]
		if len(refs) == 0 {
			continue
		}
		if fk.OnDelete == Restrict {
			return fmt.Errorf("relstore: cannot delete %s id %d: still referenced by %d row(s) of %s.%s",
				tableName, id, len(refs), ref.table, fk.Column)
		}
		ids := make([]int64, 0, len(refs))
		for rid := range refs {
			ids = append(ids, rid)
		}
		sortInt64s(ids)
		for _, rid := range ids {
			var err error
			switch {
			case fk.OnDelete == Cascade:
				err = tx.delete(tx.tables[ref.table], rid, doomed)
			case !doomed[rowRef{ref.table, rid}]: // SetNull
				err = tx.Update(ref.table, rid, map[string]any{fk.Column: nil})
			}
			if err != nil {
				return err
			}
		}
	}
	old := t.rows[id]
	t.unindexRow(id, old, old)
	delete(t.rows, id)
	tx.undo = append(tx.undo, undoEntry{op: OpDelete, table: tableName, rowID: id, values: old})
	tx.pending = append(tx.pending, LogEntry{Op: OpDelete, Table: tableName, RowID: id})
	return nil
}

// checkChangedConstraints validates uniqueness and foreign-key existence
// for the changed columns of an update. Unchanged columns cannot create
// new violations, so updates skip the full-row merge the insert path
// needs. selfID excludes the row being updated from unique collision
// checks.
func (tx *Tx) checkChangedConstraints(t *table, changes map[string]any, selfID int64) error {
	for col, v := range changes {
		if idx, ok := t.unique[col]; ok && v != nil {
			if existing, dup := idx[v]; dup && existing != selfID {
				return fmt.Errorf("relstore: %s.%s: duplicate value %v (row %d)", t.def.Name, col, v, existing)
			}
		}
	}
	for _, fk := range t.def.ForeignKeys {
		v, changed := changes[fk.Column]
		if !changed || v == nil {
			continue
		}
		refID := v.(int64)
		ref := tx.tables[fk.RefTable]
		if _, ok := ref.rows[refID]; !ok {
			return fmt.Errorf("relstore: %s.%s: foreign key violation: %s id %d does not exist",
				t.def.Name, fk.Column, fk.RefTable, refID)
		}
	}
	return nil
}

// checkConstraints validates uniqueness and foreign-key existence for a
// full candidate row. selfID excludes the row being updated from unique
// collision checks (0 for inserts).
func (tx *Tx) checkConstraints(t *table, vals map[string]any, selfID int64) error {
	for col, idx := range t.unique {
		v := vals[col]
		if v == nil {
			continue
		}
		if existing, dup := idx[v]; dup && existing != selfID {
			return fmt.Errorf("relstore: %s.%s: duplicate value %v (row %d)", t.def.Name, col, v, existing)
		}
	}
	for _, fk := range t.def.ForeignKeys {
		v := vals[fk.Column]
		if v == nil {
			continue
		}
		refID := v.(int64)
		ref := tx.tables[fk.RefTable]
		if _, ok := ref.rows[refID]; !ok {
			return fmt.Errorf("relstore: %s.%s: foreign key violation: %s id %d does not exist",
				t.def.Name, fk.Column, fk.RefTable, refID)
		}
	}
	return nil
}

// --- index maintenance ---

// indexRow adds a fresh row to all indexes.
func (t *table) indexRow(id int64, vals map[string]any) {
	for col, idx := range t.unique {
		if v := vals[col]; v != nil {
			idx[v] = id
		}
	}
	for col := range t.secondary {
		if v := vals[col]; v != nil {
			t.indexSecondary(col, v, id)
		}
	}
	for _, fk := range t.def.ForeignKeys {
		if v := vals[fk.Column]; v != nil {
			t.indexRef(fk.Column, v.(int64), id)
		}
	}
}

// unindexRow removes index entries for the columns in changed (or all
// entries when changed covers the whole row).
func (t *table) unindexRow(id int64, vals map[string]any, changed map[string]any) {
	for col := range changed {
		if idx, ok := t.unique[col]; ok {
			if v := vals[col]; v != nil {
				delete(idx, v)
			}
		}
		if _, ok := t.secondary[col]; ok {
			if v := vals[col]; v != nil {
				t.unindexSecondary(col, v, id)
			}
		}
		if _, ok := t.refIndex[col]; ok {
			if v := vals[col]; v != nil {
				t.unindexRef(col, v.(int64), id)
			}
		}
	}
}

// reindexRow re-adds index entries for changed columns using current values.
func (t *table) reindexRow(id int64, vals map[string]any, changed map[string]any) {
	for col := range changed {
		if idx, ok := t.unique[col]; ok {
			if v := vals[col]; v != nil {
				idx[v] = id
			}
		}
		if _, ok := t.secondary[col]; ok {
			if v := vals[col]; v != nil {
				t.indexSecondary(col, v, id)
			}
		}
		if _, ok := t.refIndex[col]; ok {
			if v := vals[col]; v != nil {
				t.indexRef(col, v.(int64), id)
			}
		}
	}
}

// removeRow deletes a row and its index entries (rollback/replication path;
// constraints were already enforced). nextID stays: a committed delete
// never frees an id, on the set that ran it or on one that replays it.
func (t *table) removeRow(id int64) {
	if vals, ok := t.rows[id]; ok {
		t.unindexRow(id, vals, vals)
		delete(t.rows, id)
	}
}

// restoreRow reinstates a row with a specific id (rollback/replication path).
func (t *table) restoreRow(id int64, vals map[string]any) {
	t.rows[id] = vals
	t.indexRow(id, vals)
	if id > t.nextID {
		t.nextID = id
	}
}

// applyUpdate replaces a row with a new map — its columns plus changes —
// leaving the stored one, which the other table set, the binlog and
// replicas may share, as it was.
func (t *table) applyUpdate(id int64, changes map[string]any) {
	cur, ok := t.rows[id]
	if !ok {
		return
	}
	next := maps.Clone(cur)
	for k, v := range changes {
		next[k] = v
	}
	t.unindexRow(id, cur, changes)
	t.rows[id] = next
	t.reindexRow(id, next, changes)
}
